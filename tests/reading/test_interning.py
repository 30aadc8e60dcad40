"""Unit tests for the token dictionary behind the interned kernel."""

from __future__ import annotations

import gc
import pickle
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.backends.shm import decode_profile_row, encode_profile_row
from repro.reading import TokenDictionary, pack_ids


class TestTokenDictionary:
    def test_ids_are_dense_and_first_seen_ordered(self):
        d = TokenDictionary()
        assert d.intern("wood") == 0
        assert d.intern("panel") == 1
        assert d.intern("pavilion") == 2
        assert len(d) == 3
        assert list(d) == ["wood", "panel", "pavilion"]

    def test_intern_is_idempotent(self):
        d = TokenDictionary()
        first = d.intern("glass")
        assert d.intern("glass") == first
        assert len(d) == 1

    def test_contains_and_lookup_do_not_assign(self):
        d = TokenDictionary()
        assert "wood" not in d
        assert d.lookup("wood") is None
        assert len(d) == 0
        d.intern("wood")
        assert "wood" in d
        assert d.lookup("wood") == 0

    def test_decode_roundtrip(self):
        d = TokenDictionary()
        tokens = ["a", "b", "c"]
        ids = [d.intern(t) for t in tokens]
        assert [d.decode(i) for i in ids] == tokens

    def test_decode_unknown_raises(self):
        d = TokenDictionary()
        with pytest.raises(IndexError):
            d.decode(0)
        with pytest.raises(IndexError):
            d.decode(-1)

    def test_intern_set_decode_set_roundtrip(self):
        d = TokenDictionary()
        tokens = frozenset({"wood", "panel", "pavilion"})
        ids = d.intern_set(tokens)
        assert isinstance(ids, frozenset)
        assert d.decode_set(ids) == tokens

    def test_id_space_is_exactly_range_len(self):
        d = TokenDictionary()
        for i in range(50):
            d.intern(f"tok{i}")
        assert sorted(d.lookup(t) for t in d) == list(range(len(d)))

    def test_concurrent_interning_stays_bijective(self):
        d = TokenDictionary()
        tokens = [f"tok{i % 100}" for i in range(2000)]
        with ThreadPoolExecutor(max_workers=8) as pool:
            ids = list(pool.map(d.intern, tokens))
        assert len(d) == 100
        for token, tid in zip(tokens, ids):
            assert d.lookup(token) == tid
            assert d.decode(tid) == token


class TestPackIds:
    def test_sorted_compact_array(self):
        d = TokenDictionary()
        ids = d.intern_set(["wood", "glass", "panel", "roof"])
        packed = pack_ids(ids)
        assert type(packed) is tuple
        assert packed == (0, 1, 2, 3)
        assert pack_ids({5, 1, 3}) == (1, 3, 5)
        # The tuple holds the dictionary's own int objects, not copies.
        assert all(i is d.lookup(d.decode(i)) for i in packed)
        # Untracked by the collector after one collection.
        gc.collect()
        assert not gc.is_tracked(packed)

    def test_empty(self):
        assert pack_ids(()) == ()

    def test_wide_ids_fall_back_to_signed_64bit(self):
        packed = pack_ids({1 << 33, 1})
        assert packed == (1, 1 << 33)
        # Through a shared-memory profile row: the 64-bit slot, losslessly.
        row = encode_profile_row(("left", 4), packed)
        assert row[:1] == b"q"
        assert decode_profile_row(row) == (("left", 4), packed)
        assert encode_profile_row(4, pack_ids({1, 3}))[:1] == b"I"

    def test_pickles_smaller_than_string_sets(self):
        tokens = frozenset(f"token_number_{i}" for i in range(30))
        d = TokenDictionary()
        packed = pack_ids(d.intern_set(tokens))
        assert len(pickle.dumps(packed)) < len(pickle.dumps(tokens)) / 2

    @given(st.sets(st.integers(min_value=0, max_value=1 << 40), max_size=40))
    def test_roundtrips_any_id_set(self, ids):
        assert list(pack_ids(ids)) == sorted(ids)

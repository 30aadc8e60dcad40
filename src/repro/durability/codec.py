"""Canonical JSON encoding of ER values for WAL records and snapshots.

The log carries entity descriptions (:func:`encode_entity`); snapshots
carry profiles and matches.  Identifiers survive for every shape the
framework produces — ints, strings, and the ``(source, local_id)`` tuples
of clean-clean ER — and floats round-trip exactly (``json`` emits
``repr``-precision, which is lossless for finite IEEE doubles), so
"bit-identical match sets" means similarities too, not just pair keys.

:func:`state_digest` is the oracle primitive behind the
``durability-replay-digest`` invariant: a canonical SHA-256 over the
complete mutable state, insensitive to store iteration order but
sensitive to everything resolution semantics depend on, including block
member order.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from repro.errors import DatasetError
from repro.types import EntityDescription, EntityId, Match, Profile

__all__ = [
    "encode_id",
    "decode_id",
    "encode_entity",
    "decode_entity",
    "encode_profile",
    "decode_profile",
    "encode_match",
    "decode_match",
    "state_digest",
]


def encode_id(eid: EntityId) -> object:
    """A JSON-safe rendering of an entity identifier (tuples tagged)."""
    if isinstance(eid, tuple):
        return {"__tuple__": [encode_id(part) for part in eid]}
    if isinstance(eid, (int, str)) or eid is None:
        return eid
    raise DatasetError(f"identifier {eid!r} is not JSON-persistable")


def decode_id(value: object) -> EntityId:
    if isinstance(value, dict) and "__tuple__" in value:
        return tuple(decode_id(part) for part in value["__tuple__"])
    return value  # type: ignore[return-value]


def encode_entity(entity: EntityDescription) -> list:
    """One logged entity description: ``[eid, attributes, source]``."""
    return [
        encode_id(entity.eid),
        [[name, value] for name, value in entity.attributes],
        entity.source,
    ]


def decode_entity(data: list) -> EntityDescription:
    eid, attributes, source = data
    return EntityDescription(
        eid=decode_id(eid),
        attributes=tuple((name, value) for name, value in attributes),
        source=source,
    )


def encode_profile(profile: Profile) -> dict:
    """Encode a profile, remembering *whether* it carried interned ids.

    The ids themselves are not stored — they are dictionary-relative, and
    a snapshot restores the token dictionary first, so ids are re-attached
    by lookup (never re-interning, which could reorder them).
    """
    return {
        "eid": encode_id(profile.eid),
        "attributes": [[name, value] for name, value in profile.attributes],
        "tokens": sorted(profile.tokens),
        "source": profile.source,
        "interned": profile.token_ids is not None,
    }


def decode_profile(data: dict, dictionary: Any = None) -> Profile:
    """Decode a profile, re-attaching token ids from ``dictionary``.

    Ids are resolved with ``lookup`` — every token of an interned profile
    must already be in the dictionary (snapshots store the dictionary
    wholesale), so a miss means corruption and fails loudly.
    """
    tokens = frozenset(data["tokens"])
    token_ids: frozenset[int] | None = None
    if data.get("interned") and dictionary is not None:
        ids = []
        for token in tokens:
            tid = dictionary.lookup(token)
            if tid is None:
                raise DatasetError(
                    f"interned profile references token {token!r} missing "
                    f"from the restored dictionary"
                )
            ids.append(tid)
        token_ids = frozenset(ids)
    return Profile(
        eid=decode_id(data["eid"]),
        attributes=tuple((name, value) for name, value in data["attributes"]),
        tokens=tokens,
        source=data.get("source"),
        token_ids=token_ids,
    )


def encode_match(match: Match) -> dict:
    return {
        "left": encode_id(match.left),
        "right": encode_id(match.right),
        "similarity": match.similarity,
    }


def decode_match(data: dict) -> Match:
    return Match(
        left=decode_id(data["left"]),
        right=decode_id(data["right"]),
        similarity=data["similarity"],
    )


def _sort_key(value: object) -> str:
    return repr(value)


def state_digest(backend: Any) -> str:
    """A canonical SHA-256 over the backend's complete mutable state.

    Order-insensitive: stores are rendered in a sorted canonical order so
    backends with equal contents digest equally however they were filled.
    Block *member* order is preserved (candidate generation reads it), and
    the token dictionary is rendered in id order (id stability is part of
    the state).
    """
    blocks = {
        repr(key): [repr(eid) for eid in members]
        for key, members in backend.blocks.items()
    }
    profiles = sorted(
        (
            repr(p.eid),
            sorted(p.tokens),
            sorted(map(list, p.attributes)),
            p.source,
            sorted(p.token_ids) if p.token_ids is not None else None,
        )
        for p in backend.profiles.values()
    )
    matches = sorted(
        (repr(m.key()), repr(m.similarity)) for m in backend.matches.matches()
    )
    document = {
        "blocks": dict(sorted(blocks.items())),
        "blacklist": sorted(repr(k) for k in backend.blacklist.keys),
        "profiles": profiles,
        "matches": matches,
        "dictionary": list(getattr(backend, "dictionary", ()) or ()),
    }
    payload = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()

"""Persistence of the ER state: suspend and resume dynamic resolution.

§III-A of the paper allows the initial state σ₁ to be "filled with the
state resulting from applying ER on another dataset, which D is updating".
This module makes that concrete: the full pipeline state round-trips
through a single JSON document, so resolution can be suspended, shipped,
and resumed with bit-identical results.

Since the durability layer landed, the on-disk format *is* the snapshot
schema of :mod:`repro.durability.snapshot` (version 2) — a cooperative
suspend is simply a checkpoint at epoch 0 with no WAL.  Crucially, v2
persists the :class:`~repro.reading.interning.TokenDictionary` in id
order, so resuming restores the exact token-id assignment instead of
re-interning (which assigns ids in *iteration* order of each profile's
token set and can therefore reorder them — the v1 format had exactly
this hole).

Version-1 documents (which carried no dictionary) are still read through
a compatibility shim; their interned profiles are rebuilt by re-interning,
reproducing the v1 behaviour, ids and all.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import IO

from repro.core.pipeline import StreamERPipeline
from repro.durability.codec import decode_id, decode_match
from repro.durability.snapshot import (
    apply_state_document,
    state_document,
    validate_state_document,
)
from repro.errors import DatasetError, RecoveryError
from repro.types import Profile

LEGACY_FORMAT = "repro-er-state"


def dump_state(pipeline: StreamERPipeline, target: str | Path | IO[str]) -> None:
    """Serialize the pipeline's complete state to a JSON document (v2)."""
    document = state_document(
        pipeline.backend,
        entities_processed=pipeline.entities_processed,
        epoch=0,
        next_seq=pipeline.entities_processed,
    )
    if isinstance(target, (str, Path)):
        with Path(target).open("w", encoding="utf-8") as handle:
            json.dump(document, handle)
    else:
        json.dump(document, target)


def load_state(pipeline: StreamERPipeline, source: str | Path | IO[str]) -> None:
    """Restore a previously dumped state into a *fresh* pipeline.

    The pipeline must not have processed anything yet — resuming merges,
    rather than replaces, and a half-filled state would silently corrupt
    the resolution.  Accepts both the current snapshot documents and
    legacy version-1 dumps.
    """
    if pipeline.entities_processed:
        raise DatasetError("state can only be loaded into a fresh pipeline")
    if isinstance(source, (str, Path)):
        with Path(source).open(encoding="utf-8") as handle:
            document = json.load(handle)
    else:
        document = json.load(source)
    if document.get("format") == LEGACY_FORMAT:
        _load_legacy(pipeline, document)
        return
    try:
        validate_state_document(document, "state document")
        count = apply_state_document(document, pipeline.backend)
    except RecoveryError as exc:
        raise DatasetError(str(exc)) from exc
    pipeline._entities_processed = count  # noqa: SLF001


def _load_legacy(pipeline: StreamERPipeline, document: dict) -> None:
    """The version-1 shim: no persisted dictionary, ids re-interned."""
    if document.get("version") != 1:
        raise DatasetError(f"unsupported state version {document.get('version')!r}")
    backend = pipeline.backend
    for key, members in document["blocks"].items():
        for encoded in members:
            backend.blocks.add(key, decode_id(encoded))
    for key in document["blacklist"]:
        backend.blacklist.add(key)
    dictionary = pipeline.dr.builder.dictionary
    for encoded in document["profiles"]:
        profile = Profile(
            eid=decode_id(encoded["eid"]),
            attributes=tuple((n, v) for n, v in encoded["attributes"]),
            tokens=frozenset(encoded["tokens"]),
            source=encoded.get("source"),
        )
        if dictionary is not None:
            profile = dataclasses.replace(
                profile, token_ids=dictionary.intern_set(profile.tokens)
            )
        backend.profiles.put(profile)
    for encoded in document["matches"]:
        backend.matches.add(decode_match(encoded))
    pipeline._entities_processed = document["entities_processed"]  # noqa: SLF001

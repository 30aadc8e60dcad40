"""Pluggable state backends: where the ER state σ physically lives."""

from repro.core.backends.base import (
    CooccurrenceCounter,
    StateBackend,
    backend_capabilities,
)
from repro.core.backends.durable import (
    DurabilityConfig,
    DurableBackend,
    config_fingerprint,
)
from repro.core.backends.memory import InMemoryBackend
from repro.core.backends.sharded import (
    ShardedBackend,
    ShardedBlacklist,
    ShardedBlockCollection,
    ShardedCooccurrenceCounter,
    ShardedMatchStore,
    ShardedProfileStore,
    shard_index,
)
from repro.core.backends.shm import (
    SharedColumnReader,
    SharedColumnStore,
    SharedMemoryBackend,
    SharedTokenArrayStore,
    active_shm_segments,
)

__all__ = [
    "StateBackend",
    "CooccurrenceCounter",
    "backend_capabilities",
    "InMemoryBackend",
    "DurableBackend",
    "DurabilityConfig",
    "config_fingerprint",
    "ShardedBackend",
    "ShardedBlockCollection",
    "ShardedBlacklist",
    "ShardedProfileStore",
    "ShardedMatchStore",
    "ShardedCooccurrenceCounter",
    "shard_index",
    "SharedColumnReader",
    "SharedColumnStore",
    "SharedMemoryBackend",
    "SharedTokenArrayStore",
    "active_shm_segments",
]

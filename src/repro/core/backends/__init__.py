"""Pluggable state backends: where the ER state σ physically lives."""

from repro.core.backends.base import StateBackend
from repro.core.backends.durable import DurableBackend
from repro.core.backends.memory import InMemoryBackend
from repro.core.backends.shm import (
    SharedColumnReader,
    SharedColumnStore,
    SharedMemoryBackend,
    active_shm_segments,
)

__all__ = [
    "StateBackend",
    "InMemoryBackend",
    "DurableBackend",
    "SharedColumnReader",
    "SharedColumnStore",
    "SharedMemoryBackend",
    "active_shm_segments",
]

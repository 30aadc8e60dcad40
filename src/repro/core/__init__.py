"""Core of the reproduction: functional model, state, plan, pipeline."""

from repro.core.backends import DurableBackend, InMemoryBackend, StateBackend
from repro.core.cleanclean import combine, combine_many, source_of, tag, tag_pairs
from repro.core.config import StreamERConfig, SupervisionPolicy
from repro.core.model import (
    FunctionalState,
    ModelConfig,
    f_er,
    fold_er,
    stream_er,
)
from repro.core.pipeline import ERResult, StreamERPipeline
from repro.core.plan import STAGE_ORDER, CompiledPipeline, PipelinePlan, StageSpec
from repro.core.state import (
    Blacklist,
    BlockCollection,
    ERState,
    MatchStore,
    ProfileStore,
)
from repro.durability.snapshot import dump_state, load_state

__all__ = [
    "StreamERConfig",
    "SupervisionPolicy",
    "StreamERPipeline",
    "ERResult",
    "ERState",
    "PipelinePlan",
    "StageSpec",
    "CompiledPipeline",
    "STAGE_ORDER",
    "StateBackend",
    "InMemoryBackend",
    "DurableBackend",
    "BlockCollection",
    "Blacklist",
    "ProfileStore",
    "MatchStore",
    "FunctionalState",
    "ModelConfig",
    "f_er",
    "fold_er",
    "stream_er",
    "combine",
    "combine_many",
    "tag",
    "tag_pairs",
    "source_of",
    "dump_state",
    "load_state",
]

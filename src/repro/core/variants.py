"""Design-choice ablation variants of the stream pipeline.

§IV-A motivates two framework design choices:

* **profile maintenance** — blocks store identifiers only; full profiles
  live in the profile map and are re-attached by ``f_lm``;
* **avoiding shared state** — covered by the stage ownership layout.

:class:`InlineProfilePipeline` implements the *rejected* alternative for
the first choice: blocks store the full profiles, comparison generation
emits profile pairs directly, and there is no load-management stage.  The
ablation benchmark contrasts the two on runtime and state size.
"""

from __future__ import annotations

import sys
import time
from typing import Iterable

from repro.core.config import StreamERConfig
from repro.core.pipeline import ERResult
from repro.core.stages import (
    ClassificationStage,
    ComparisonStage,
    DataReadingStage,
    MaterializedComparisons,
    ScoredComparisons,
)
from repro.metablocking.iwnp import iwnp
from repro.types import EntityDescription, Match, Profile


class InlineProfilePipeline:
    """The no-profile-map variant: blocks carry full profiles.

    Functionally equivalent to :class:`~repro.core.pipeline.StreamERPipeline`
    (same matches on the same input); the difference is purely in state
    representation and stage structure, which is what the ablation
    measures.
    """

    def __init__(self, config: StreamERConfig | None = None) -> None:
        self.config = config or StreamERConfig()
        cfg = self.config
        self.dr = DataReadingStage(cfg.profile_builder)
        self.co = ComparisonStage(cfg.comparator)
        self.cl = ClassificationStage(cfg.classifier)
        self._blocks: dict[str, list[Profile]] = {}
        self._blacklist: set[str] = set()
        self.pruned_blocks = 0
        self.comparisons_generated = 0
        self.comparisons_after_cleaning = 0
        self.elapsed_seconds = 0.0
        self._entities = 0

    def _block_step(self, profile: Profile) -> dict[str, list[Profile]]:
        """Algorithm 1 over profile-carrying blocks."""
        cfg = self.config
        snapshot: dict[str, list[Profile]] = {}
        for key in profile.tokens:
            if cfg.enable_block_cleaning and key in self._blacklist:
                continue
            block = self._blocks.setdefault(key, [])
            block.append(profile)
            if cfg.enable_block_cleaning and len(block) >= cfg.alpha:
                del self._blocks[key]
                self._blacklist.add(key)
                self.pruned_blocks += 1
                snapshot.pop(key, None)
                continue
            if len(block) > 1:
                snapshot[key] = block
        return snapshot

    def _ghost_step(
        self, snapshot: dict[str, list[Profile]]
    ) -> dict[str, list[Profile]]:
        if not self.config.enable_block_cleaning or not snapshot:
            return snapshot
        min_size = min(len(b) for b in snapshot.values())
        threshold = min_size / self.config.beta
        return {k: b for k, b in snapshot.items() if len(b) <= threshold}

    def process(self, entity: EntityDescription) -> list[Match]:
        start = time.perf_counter()
        self._entities += 1
        profile = self.dr(entity)
        snapshot = self._ghost_step(self._block_step(profile))
        candidates: list[Profile] = []
        my_source = profile.eid[0] if self.config.clean_clean else None  # type: ignore[index]
        for block in snapshot.values():
            for other in block:
                if other.eid == profile.eid:
                    continue
                if self.config.clean_clean and other.eid[0] == my_source:  # type: ignore[index]
                    continue
                candidates.append(other)
        self.comparisons_generated += len(candidates)
        if self.config.enable_comparison_cleaning:
            survivors = iwnp(candidates)
        else:
            survivors = list(dict.fromkeys(candidates))
        self.comparisons_after_cleaning += len(survivors)
        scored = self.co(MaterializedComparisons(profile=profile, partners=survivors))
        matches = self.cl(ScoredComparisons(profile=profile, scored=scored.scored))
        self.elapsed_seconds += time.perf_counter() - start
        return matches

    def process_many(self, entities: Iterable[EntityDescription]) -> ERResult:
        matches: list[Match] = []
        count = 0
        for entity in entities:
            matches.extend(self.process(entity))
            count += 1
        return ERResult(
            entities_processed=count,
            matches=matches,
            comparisons_generated=self.comparisons_generated,
            comparisons_after_cleaning=self.comparisons_after_cleaning,
            blocks_pruned=self.pruned_blocks,
            elapsed_seconds=self.elapsed_seconds,
        )

    def block_state_bytes(self) -> int:
        """Approximate in-memory size of the block collection."""
        return approx_block_bytes(self._blocks)


def approx_block_bytes(blocks: dict) -> int:
    """Shallow-ish size estimate of a block collection.

    Counts the dict, the per-block lists, the member references, and — for
    profile members — the attribute strings and token sets once per block
    occurrence (which is the point: inline profiles are duplicated per
    block, identifiers are not).
    """
    total = sys.getsizeof(blocks)
    for key, members in blocks.items():
        total += sys.getsizeof(key) + sys.getsizeof(members)
        for member in members:
            total += sys.getsizeof(member)
            if isinstance(member, Profile):
                total += sys.getsizeof(member.tokens)
                total += sum(sys.getsizeof(t) for t in member.tokens)
                for name, value in member.attributes:
                    total += sys.getsizeof(name) + sys.getsizeof(value)
    return total

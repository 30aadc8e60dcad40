"""Process allocation for the optimized framework (§IV-B).

Given measured per-stage times, assign P worker processes so every stage
completes in a comparable time: stages that cannot or need not be
parallelized (``dr``, ``bb+bp``, ``bg``) get exactly one process; the
remaining P − 3 are distributed over ``cg`` (z), ``cc`` (x), ``lm`` (v),
``co`` (y) and ``cl`` (v) by water-filling — each next process goes to the
stage with the largest remaining per-process time.  This reproduces the
paper's ``P = 3 + 2v + x + y + z`` scheme and, with the measured ratios
``T_co ≈ 2·T_cc ≈ 6·T_cg``, its example allocation (P=15 → v=1, x=3, y=6,
z=1).

The solver allocates over whatever stage list the executor's
:class:`~repro.core.plan.PipelinePlan` activated (optional nodes may be
dropped); by default it covers the full eight-stage ``STAGE_ORDER``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

from repro.core.plan import STAGE_ORDER
from repro.errors import ConfigurationError

#: The serial stage: ``f_bb+bp`` writes the profile map, the block
#: collection and the blacklist, and its verdicts depend on arrival order,
#: so it always runs on exactly one process (data parallelism over the
#: block-collection state would be needed to replicate it, which the paper
#: leaves aside).  The thread framework re-sequences arrivals in front of it.
FIXED_STAGES: frozenset[str] = frozenset({"bb+bp"})

#: Stages eligible for replication: every other stage, in pipeline order.
#: The paper's formula additionally pins ``dr`` and ``bg`` to one process
#: because they are the cheapest stages on its Scala substrate; the
#: water-filling solver below reduces to exactly that allocation under the
#: paper's measured times (they never receive a second process before the
#: bottlenecks are saturated), while also handling substrates where, e.g.,
#: data reading is relatively expensive.
SCALABLE_STAGES: tuple[str, ...] = tuple(
    stage for stage in STAGE_ORDER if stage not in FIXED_STAGES
)


def allocate_processes(
    stage_seconds: dict[str, float],
    total_processes: int,
    stages: Sequence[str] = STAGE_ORDER,
) -> dict[str, int]:
    """Distribute ``total_processes`` over the active ``stages``.

    ``stage_seconds`` maps stage names (see ``STAGE_ORDER``) to measured
    total times of a sequential run; entries for inactive stages are
    ignored.  Requires at least one process per active stage.
    """
    if not stages:
        raise ConfigurationError("stages must not be empty")
    if total_processes < len(stages):
        raise ConfigurationError(
            f"need at least {len(stages)} processes, got {total_processes}"
        )
    missing = [s for s in stages if s not in stage_seconds]
    if missing:
        raise ConfigurationError(f"missing stage times for: {missing}")

    scalable = [s for s in SCALABLE_STAGES if s in stages]
    allocation = {stage: 1 for stage in stages}
    spare = total_processes - len(stages)
    for _ in range(spare):
        # Water-filling: relieve the stage with the worst per-process time.
        worst = max(
            scalable,
            key=lambda s: stage_seconds[s] / allocation[s],
        )
        allocation[worst] += 1
    return allocation


def bottleneck_time(stage_seconds: dict[str, float], allocation: dict[str, int]) -> float:
    """The limiting per-stage time under an allocation (lower is better)."""
    return max(stage_seconds[s] / allocation[s] for s in allocation)


@dataclass(frozen=True)
class PartitionPlan:
    """The result of :func:`plan_partitions`: groups assigned to bins.

    ``bins[i]`` holds the group keys bin ``i`` owns; ``bin_costs[i]`` their
    summed cost.  Bins may be empty (fewer groups than bins, or heavily
    skewed costs); an empty bin simply holds no work.
    """

    bins: tuple[tuple[Hashable, ...], ...]
    bin_costs: tuple[int, ...]
    group_count: int
    total_cost: int

    @property
    def used_bins(self) -> int:
        """Bins that received any work."""
        return sum(1 for cost in self.bin_costs if cost)

    @property
    def imbalance(self) -> float:
        """Largest bin cost over the ideal (total/bins) share; 1.0 = perfect.

        This is the makespan ratio: wall-clock is bounded by the largest
        bin, so an imbalance of 2.0 means half the theoretical speedup.
        """
        if self.total_cost <= 0 or not self.bin_costs:
            return 1.0
        return max(self.bin_costs) * len(self.bin_costs) / self.total_cost

    @property
    def largest_share(self) -> float:
        """Fraction of all work held by the largest bin (skew indicator)."""
        if self.total_cost <= 0 or not self.bin_costs:
            return 0.0
        return max(self.bin_costs) / self.total_cost


def plan_partitions(
    group_costs: Mapping[Hashable, int], bins: int
) -> PartitionPlan:
    """Greedy bin-packing of blocking-key groups onto worker bins.

    Longest-processing-time-first: groups are sorted by descending cost
    and each is placed on the currently least-loaded bin — the classic
    4/3-approximation of makespan scheduling, and the load-balancing move
    of Kolb/Thor/Rahm's MapReduce sorted-neighborhood blocking (there,
    skewed blocks are split across reducers; here, whole key groups are
    packed because a group must stay with one worker to keep the cleaning
    count filter local).  Deterministic: ties in cost break on the key's
    repr, ties in load on bin index.

    No executor calls it any more — the multiprocess executor streams
    small descriptors to the pool's shared task queue instead of packing
    an increment at its end.  Only the end-to-end benchmark still does
    (``parallel.allocation.*`` in ``benchmarks/e2e/measure.py``), which is
    why it stays.
    """
    if bins < 1:
        raise ConfigurationError("bins must be >= 1")
    order = sorted(group_costs.items(), key=lambda kv: (-kv[1], repr(kv[0])))
    assigned: list[list[Hashable]] = [[] for _ in range(bins)]
    loads = [0] * bins
    heap = [(0, index) for index in range(bins)]
    for key, cost in order:
        load, index = heapq.heappop(heap)
        assigned[index].append(key)
        loads[index] = load + cost
        heapq.heappush(heap, (load + cost, index))
    return PartitionPlan(
        bins=tuple(tuple(keys) for keys in assigned),
        bin_costs=tuple(loads),
        group_count=len(group_costs),
        total_cost=sum(group_costs.values()),
    )


def paper_example_times() -> dict[str, float]:
    """The stage-time ratios reported for D_dbpedia in §IV-B.

    All phases except ``co`` and ``cc`` take a comparable time (normalized
    to 1.0 here); ``T_cc ≈ 3·T_cg`` and ``T_co ≈ 2·T_cc``.
    """
    base = 1.0
    t_cg = base
    t_cc = 3.0 * t_cg
    t_co = 2.0 * t_cc
    return {
        "dr": base, "bb+bp": base, "bg": base, "cg": t_cg,
        "cc": t_cc, "lm": base, "co": t_co, "cl": base,
    }

"""The four workloads: seeded inputs, increment shapes and configurations.

Every input is generated from the run's ``--seed`` by the repository's own
synthetic generator (Zipf-skewed common tokens, rare per-cluster tokens —
the block-size skew the cleaning stages exist for); the executors under
test only ever see the generated entity descriptions.  Sizes are chosen so
that three repetitions of the largest workload fit the measuring window of
``BENCHMARK.json`` (see README.md, "Sizes").
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.classification import ThresholdClassifier
from repro.core import StreamERConfig
from repro.datasets import DatasetSpec, GeneratedDataset, generate

THRESHOLD = 0.7
BETA = 0.05
ALPHA_FRACTION = 0.05
#: Entities of the warm-up pass that ends set-up.
WARMUP_ENTITIES = 2000
#: Fixed arrival rate of the open-loop phase (entities per second).
OPEN_LOOP_RATE = 2000.0
#: Worker budget of the thread framework: one worker per stage, so
#: completions leave in submission order.
PP_PROCESSES = 8


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``bulk`` entities arrive first (one increment where the executor takes
    increments), then ``(entities - bulk) / step`` update increments of
    ``step`` entities each.  Entity-at-a-time executors get the same stream
    and are timed over the same ``step``-sized windows after ``bulk``.
    """

    name: str
    executor: str  # "seq" | "mp" | "pp" | "trickle"
    kind: str  # "dirty" | "clean-clean"
    entities: int
    bulk: int
    step: int
    why: str

    def scaled(self, scale: float) -> "Workload":
        """The same shape at ``scale`` times the size (``--smoke`` uses 1/20)."""
        if scale == 1.0:
            return self
        step = max(1, round(self.step * scale))
        updates = (self.entities - self.bulk) // self.step
        bulk = max(2, round(self.bulk * scale))
        return replace(self, entities=bulk + updates * step, bulk=bulk, step=step)


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="seq_bulk_updates_50k",
        executor="seq",
        kind="dirty",
        entities=50_000,
        bulk=40_000,
        step=500,
        why="Interned sequential pipeline, 40k bulk then 20 increments of 500: "
        "only the stage chain and in-memory state work, at the largest scale the run cap allows.",
    ),
    Workload(
        name="mp_bulk_updates_20k",
        executor="mp",
        kind="dirty",
        entities=20_000,
        bulk=14_000,
        step=500,
        why="Partitioned multiprocess runner on shm, 14k bulk then 12 increments of 500, "
        "against sequential: spawn, publish, planning, IPC and merge dominate the kernels.",
    ),
    Workload(
        name="pp_stream_8k",
        executor="pp",
        kind="dirty",
        entities=8_000,
        bulk=4_000,
        step=500,
        why="Thread framework on one CPU, fed one entity at a time, closed loop then open loop at 2000/s: "
        "queues and the GIL set per-entity latency, the paper's streaming metric.",
    ),
    Workload(
        name="seq_trickle_cc_20k",
        executor="trickle",
        kind="clean-clean",
        entities=20_000,
        bulk=16_000,
        step=500,
        why="String comparator, clean-clean 10k+10k, process() per entity: no interning, prefilter, "
        "batching or pool, so changes to those should leave it unchanged.",
    ),
)


def by_name(name: str) -> Workload:
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    known = ", ".join(w.name for w in WORKLOADS)
    raise SystemExit(f"unknown workload {name!r}; expected one of: {known}")


def dataset(workload: Workload, seed: int) -> GeneratedDataset:
    """The workload's input, deterministic in ``seed``."""
    n = workload.entities
    size: int | tuple[int, int] = n
    if workload.kind == "clean-clean":
        size = (n // 2, n - n // 2)
    return generate(
        DatasetSpec(
            name=workload.name,
            kind=workload.kind,
            size=size,
            matches=max(1, int(0.3 * n)),
            avg_attributes=4.0,
            heterogeneity=0.5,
            vocab_rare=max(1000, int(1.5 * n)),
            seed=seed,
        )
    )


def increments(workload: Workload, entities: list) -> list[list]:
    """The bulk increment followed by the ``step``-sized update increments."""
    bulk, step = workload.bulk, workload.step
    return [entities[:bulk]] + [
        entities[i : i + step] for i in range(bulk, len(entities), step)
    ]


def config(workload: Workload) -> StreamERConfig:
    """A fresh configuration (fresh profile-builder cache) for one executor.

    Every workload but the trickle one runs the interned kernel; the
    trickle workload keeps the default string ``TokenSetComparator``.
    """
    params = {
        "alpha": StreamERConfig.alpha_for(workload.entities, ALPHA_FRACTION),
        "beta": BETA,
        "clean_clean": workload.kind == "clean-clean",
        "classifier": ThresholdClassifier(THRESHOLD),
    }
    if workload.executor == "trickle":
        return StreamERConfig(**params)
    return StreamERConfig.interned(**params)

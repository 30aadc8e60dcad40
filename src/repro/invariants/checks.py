"""The central registry of runtime invariants over ER state and stage output.

Every invariant is a named, declarative check over one of four scopes:

``state``
    the :class:`~repro.core.backends.StateBackend` at an entity boundary —
    O(1) counters equal full recounts, post-purge block sizes stay below
    α, the token dictionary is bijective, every blocked identifier has a
    resolvable profile;
``stage``
    one stage's output message — no self-comparisons out of ``f_cg``,
    distinct survivors out of ``f_cc``, well-formed materializations out
    of ``f_lm``;
``run``
    a finished run's result against the backend and metrics registry —
    failure accounting, match containment, metric totals;
``simulation``
    a :class:`~repro.parallel.simulator.SimulationResult` — item
    conservation and non-negative times (the simulator moves abstract
    items, so the other scopes do not apply).

Checks take a small view object (:class:`StateView` / :class:`StageView` /
:class:`RunView` / :class:`SimulationView`) and raise
:class:`~repro.errors.InvariantViolation` on violation.  All invariants
register themselves here at import time; executors enforce them through a
:class:`~repro.invariants.checker.InvariantChecker` compiled into the
plan, and ``repro-er check`` runs them as part of the oracle suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import InvariantViolation
from repro.observability.instrument import ENTITIES, MATCHES

__all__ = [
    "Invariant",
    "StateView",
    "StageView",
    "RunView",
    "SimulationView",
    "register",
    "get_invariant",
    "invariant_names",
    "invariants_for",
    "all_invariants",
]


# --------------------------------------------------------------------------
# Views: what a check gets to look at (duck-typed, no core imports here).


@dataclass
class StateView:
    """A state-scope snapshot: the backend plus the active config.

    No entity is exempt from a state check: dead-lettering is a survival
    guarantee, not a rollback, but ``f_bb+bp`` registers the profile
    before any block add, so even a dead-lettered entity in a block
    resolves in the profile map.

    ``processed`` is how many entities the run has put through its
    pipeline, when a check lands inside an admission (the sequential
    pipeline's every-``state_every``-entities check); ``None`` means the
    state is quiescent and everything admitted has run.
    """

    config: Any
    backend: Any
    processed: int | None = None


@dataclass
class StageView:
    """A stage-scope observation: one stage's output message.

    ``source`` is the message the stage was called with (None when the
    observer has only the output), for invariants that relate the two.
    """

    stage: str
    config: Any
    payload: Any
    source: Any = None


@dataclass
class RunView:
    """A run-scope view: the finished result against backend and metrics.

    ``expected_entities`` is the executor's own idea of how many entities
    the metrics registry should have counted (executors differ: the thread
    framework counts completions, the others count admissions), or None to
    skip the metric check.  ``sequencer`` is the thread framework's reorder
    buffer, or None for executors without one.
    """

    config: Any
    backend: Any
    registry: Any
    result: Any
    expected_entities: int | None = None
    sequencer: Any = None


@dataclass
class SimulationView:
    """A simulation-scope view: the result plus the submitted item count."""

    result: Any
    n_items: int


# --------------------------------------------------------------------------
# Registry


@dataclass(frozen=True)
class Invariant:
    """One named invariant: scope, optional stage binding, check function."""

    name: str
    scope: str  # "state" | "stage" | "run" | "simulation"
    check: Callable[[Any], None] = field(compare=False)
    stage: str | None = None
    description: str = ""


_REGISTRY: dict[str, Invariant] = {}


def register(invariant: Invariant) -> Invariant:
    if invariant.name in _REGISTRY:
        raise ValueError(f"invariant {invariant.name!r} already registered")
    if invariant.scope not in ("state", "stage", "run", "simulation"):
        raise ValueError(f"unknown invariant scope {invariant.scope!r}")
    _REGISTRY[invariant.name] = invariant
    return invariant


def get_invariant(name: str) -> Invariant:
    return _REGISTRY[name]


def invariant_names() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def all_invariants() -> tuple[Invariant, ...]:
    return tuple(_REGISTRY.values())


def invariants_for(scope: str, stage: str | None = None) -> tuple[Invariant, ...]:
    """Invariants of one scope (stage-scope additionally filtered by stage)."""
    return tuple(
        inv
        for inv in _REGISTRY.values()
        if inv.scope == scope and (scope != "stage" or inv.stage == stage)
    )


def _fail(name: str, detail: str) -> None:
    raise InvariantViolation(name, detail)


def _invariant(name: str, scope: str, stage: str | None = None, description: str = ""):
    """Decorator: register the function as an invariant's check."""

    def wrap(fn: Callable[[Any], None]) -> Callable[[Any], None]:
        register(
            Invariant(
                name=name, scope=scope, check=fn, stage=stage, description=description
            )
        )
        return fn

    return wrap


# --------------------------------------------------------------------------
# State-scope invariants


@_invariant(
    "block-counters-consistent",
    "state",
    description="O(1) size/assignment/comparison counters equal full recounts",
)
def check_block_counters(view: StateView) -> None:
    store = view.backend.blocks
    members = {key: list(block) for key, block in store.items()}
    assignments = sum(len(block) for block in members.values())
    comparisons = sum(
        len(block) * (len(block) - 1) // 2 for block in members.values()
    )
    if store.total_assignments() != assignments:
        _fail(
            "block-counters-consistent",
            f"total_assignments()={store.total_assignments()} but recount "
            f"over {len(members)} blocks gives {assignments}",
        )
    if store.total_comparisons() != comparisons:
        _fail(
            "block-counters-consistent",
            f"total_comparisons()={store.total_comparisons()} but recount "
            f"gives {comparisons}",
        )
    sizes = dict(store.sizes())
    actual = {key: len(block) for key, block in members.items()}
    if sizes != actual:
        drift = {
            key: (sizes.get(key), actual.get(key))
            for key in sizes.keys() | actual.keys()
            if sizes.get(key) != actual.get(key)
        }
        _fail(
            "block-counters-consistent",
            f"sizes() disagrees with block contents for {drift}",
        )


@_invariant(
    "block-sizes-bounded",
    "state",
    description="with block cleaning on, every surviving block stays below α",
)
def check_block_sizes(view: StateView) -> None:
    if not view.config.enable_block_cleaning:
        return
    alpha = view.config.alpha
    for key, size in view.backend.blocks.sizes().items():
        if size >= alpha:
            _fail(
                "block-sizes-bounded",
                f"block {key!r} has size {size} >= alpha={alpha} post-purge",
            )


@_invariant(
    "blacklist-excludes-blocks",
    "state",
    description="a pruned (blacklisted) key never reappears in the collection",
)
def check_blacklist(view: StateView) -> None:
    blocks = view.backend.blocks
    for key in view.backend.blacklist.keys:
        if key in blocks:
            _fail(
                "blacklist-excludes-blocks",
                f"key {key!r} is blacklisted but present with size "
                f"{len(blocks.block(key))}",
            )


@_invariant(
    "dictionary-bijective",
    "state",
    description="the token dictionary is a bijection onto range(len(d))",
)
def check_dictionary(view: StateView) -> None:
    dictionary = getattr(view.backend, "dictionary", None)
    if dictionary is None:
        return
    tokens = list(dictionary)
    if len(tokens) != len(dictionary):
        _fail(
            "dictionary-bijective",
            f"iteration yields {len(tokens)} tokens but len() is {len(dictionary)}",
        )
    if len(set(tokens)) != len(tokens):
        _fail("dictionary-bijective", "duplicate tokens in the id space")
    for tid, token in enumerate(tokens):
        if dictionary.lookup(token) != tid:
            _fail(
                "dictionary-bijective",
                f"token {token!r} decodes from id {tid} but interns to "
                f"{dictionary.lookup(token)}",
            )


@_invariant(
    "blocked-entities-have-profiles",
    "state",
    description="every identifier in a block resolves in the profile map",
)
def check_blocked_profiles(view: StateView) -> None:
    profiles = view.backend.profiles
    for key, members in view.backend.blocks.items():
        for eid in members:
            if eid not in profiles:
                _fail(
                    "blocked-entities-have-profiles",
                    f"entity {eid!r} is in block {key!r} but has no stored "
                    f"profile (stale block membership)",
                )


@_invariant(
    "match-store-consistent",
    "state",
    description="the match store is deduplicated and free of self-matches",
)
def check_match_store(view: StateView) -> None:
    store = view.backend.matches
    pairs = store.pairs()
    if len(pairs) != len(store):
        _fail(
            "match-store-consistent",
            f"{len(store)} stored matches but only {len(pairs)} distinct pairs",
        )
    for a, b in pairs:
        if a == b:
            _fail("match-store-consistent", f"self-match {a!r} in the store")


def _durable(backend: Any) -> bool:
    from repro.core.backends.durable import DurableBackend

    return isinstance(backend, DurableBackend)


@_invariant(
    "durability-layout-consistent",
    "state",
    description="durable run directory is well-formed: monotonic snapshot "
    "epochs, gap-free WAL segment chain up to the live epoch",
)
def check_durability_layout(view: StateView) -> None:
    backend = view.backend
    if not _durable(backend):
        return
    from repro.durability.snapshot import list_snapshots
    from repro.durability.wal import segment_path

    wal_dir = backend.wal_dir
    snapshots = list_snapshots(wal_dir)
    epochs = [epoch for epoch, _ in snapshots]
    if epochs != sorted(set(epochs)):
        _fail(
            "durability-layout-consistent",
            f"snapshot epochs are not strictly monotonic: {epochs}",
        )
    if epochs and epochs[-1] > backend.epoch:
        _fail(
            "durability-layout-consistent",
            f"newest snapshot epoch {epochs[-1]} is ahead of the live WAL "
            f"epoch {backend.epoch}",
        )
    chain_start = epochs[-1] if epochs else 0
    for epoch in range(chain_start, backend.epoch + 1):
        if not segment_path(wal_dir, epoch).exists():
            _fail(
                "durability-layout-consistent",
                f"WAL segment for epoch {epoch} is missing (chain "
                f"{chain_start}..{backend.epoch})",
            )


@_invariant(
    "durability-replay-digest",
    "state",
    description="re-running the logged input of the durable run reproduces "
    "the live state, digest for digest",
)
def check_durability_replay(view: StateView) -> None:
    backend = view.backend
    if not _durable(backend):
        return
    backend.flush()
    from repro.durability.codec import state_digest
    from repro.durability.recovery import recover

    # Dead letters are logged too, so the replay of exactly the entities
    # the live run has processed owes the live state every bit.
    recovered = recover(backend.wal_dir, view.config, upto=view.processed)
    live = state_digest(backend)
    replayed = state_digest(recovered.backend)
    if live != replayed:
        at = backend.entities_logged if view.processed is None else view.processed
        _fail(
            "durability-replay-digest",
            f"replayed-state digest {replayed[:16]}… != live-state digest "
            f"{live[:16]}… after entity {at}",
        )


# --------------------------------------------------------------------------
# Stage-scope invariants (over inter-stage messages)


@_invariant(
    "dr-interned-view-consistent",
    "stage",
    stage="dr",
    description="an interned profile carries exactly one id per token",
)
def check_dr_output(view: StageView) -> None:
    profile = view.payload
    if profile.token_ids is not None and len(profile.token_ids) != len(profile.tokens):
        _fail(
            "dr-interned-view-consistent",
            f"profile {profile.eid!r} has {len(profile.tokens)} tokens but "
            f"{len(profile.token_ids)} interned ids",
        )


@_invariant(
    "bb-snapshot-wellformed",
    "stage",
    stage="bb+bp",
    description="every B_ei snapshot (block, n) is a non-empty prefix of "
    "its block's member list, sized below the α bound post-purge",
)
def check_bb_output(view: StageView) -> None:
    blocked = view.payload
    alpha = view.config.alpha
    cleaning = view.config.enable_block_cleaning
    for key, (block, n) in blocked.others.items():
        if n == 0:
            _fail(
                "bb-snapshot-wellformed",
                f"singleton block {key!r} survived removeSingletons",
            )
        if n > len(block):
            _fail(
                "bb-snapshot-wellformed",
                f"snapshot of block {key!r} claims {n} members but its list "
                f"holds {len(block)}",
            )
        if cleaning and n + 1 >= alpha:
            _fail(
                "bb-snapshot-wellformed",
                f"block {key!r} in B_ei has size {n + 1} >= alpha={alpha}",
            )


@_invariant(
    "cg-no-self-pairs",
    "stage",
    stage="cg",
    description="candidates never include the entity itself; clean-clean "
    "candidates are cross-source only",
)
def check_cg_output(view: StageView) -> None:
    generated = view.payload
    eid = generated.profile.eid
    for j in generated.candidates:
        if j == eid:
            _fail("cg-no-self-pairs", f"entity {eid!r} is its own candidate")
        if view.config.clean_clean and j[0] == eid[0]:
            _fail(
                "cg-no-self-pairs",
                f"clean-clean candidate {j!r} shares source with {eid!r}",
            )


@_invariant(
    "cg-multiplicity-conserved",
    "stage",
    stage="cg",
    description="dirty ER: one candidate per member of every surviving "
    "snapshot, minus the entity's own occurrences (the CBS weights f_cc counts)",
)
def check_cg_multiplicity(view: StageView) -> None:
    blocked = view.source
    if blocked is None or view.config.clean_clean:
        return
    generated = view.payload
    eid = generated.profile.eid
    expected = sum(n - block[:n].count(eid) for block, n in blocked.others.values())
    if len(generated.candidates) != expected:
        _fail(
            "cg-multiplicity-conserved",
            f"entity {eid!r}: {len(generated.candidates)} candidates from "
            f"snapshots holding {expected} non-self members",
        )


@_invariant(
    "cc-survivors-distinct",
    "stage",
    stage="cc",
    description="comparison cleaning emits each surviving partner once",
)
def check_cc_output(view: StageView) -> None:
    cleaned = view.payload
    if len(set(cleaned.candidates)) != len(cleaned.candidates):
        _fail(
            "cc-survivors-distinct",
            f"duplicate partners in survivors of {cleaned.profile.eid!r}: "
            f"{cleaned.candidates}",
        )


@_invariant(
    "lm-materialization-wellformed",
    "stage",
    stage="lm",
    description="materialized partners are distinct and non-self (every "
    "pair is anchored on the incoming profile by construction)",
)
def check_lm_output(view: StageView) -> None:
    materialized = view.payload
    anchor = materialized.profile.eid
    partners = [p.eid for p in materialized.partners]
    if anchor in partners:
        _fail(
            "lm-materialization-wellformed",
            f"self-comparison materialized for {anchor!r}",
        )
    if len(set(partners)) != len(partners):
        _fail(
            "lm-materialization-wellformed",
            f"duplicate partners materialized for {anchor!r}: {partners}",
        )


@_invariant(
    "co-scores-sane",
    "stage",
    stage="co",
    description="every similarity score is finite and non-negative",
)
def check_co_output(view: StageView) -> None:
    scored = view.payload
    for item in scored.scored:
        s = item.similarity
        if not math.isfinite(s) or s < 0.0:
            _fail(
                "co-scores-sane",
                f"similarity {s!r} for pair {item.comparison.ids}",
            )


@_invariant(
    "cl-no-self-matches",
    "stage",
    stage="cl",
    description="classification never declares an entity a match of itself",
)
def check_cl_output(view: StageView) -> None:
    for match in view.payload:
        if match.left == match.right:
            _fail("cl-no-self-matches", f"self-match {match.left!r}")


# --------------------------------------------------------------------------
# Run-scope invariants


@_invariant(
    "run-failure-accounting",
    "run",
    description="items_failed equals the dead-letter count",
)
def check_run_failures(view: RunView) -> None:
    result = view.result
    if result.items_failed != len(result.dead_letters):
        _fail(
            "run-failure-accounting",
            f"items_failed={result.items_failed} but "
            f"{len(result.dead_letters)} dead letters recorded",
        )


@_invariant(
    "run-matches-in-store",
    "run",
    description="every match the run reported is present in the match store",
)
def check_run_matches(view: RunView) -> None:
    stored = view.backend.matches.pairs()
    for match in view.result.matches:
        if match.key() not in stored:
            _fail(
                "run-matches-in-store",
                f"reported match {match.key()} is missing from the store",
            )


@_invariant(
    "run-metrics-consistent",
    "run",
    description="metric totals agree with the run result and the match store",
)
def check_run_metrics(view: RunView) -> None:
    registry = view.registry
    if registry is None or not registry.enabled or view.expected_entities is None:
        return
    entities = registry.value(ENTITIES)
    if entities != view.expected_entities:
        _fail(
            "run-metrics-consistent",
            f"{ENTITIES}={entities} but the executor processed "
            f"{view.expected_entities}",
        )
    matches = registry.value(MATCHES)
    stored = len(view.backend.matches)
    if matches != stored:
        _fail(
            "run-metrics-consistent",
            f"{MATCHES}={matches} but the match store holds {stored}",
        )


@_invariant(
    "reorder-buffer-drained",
    "run",
    description="after a thread run: no pending arrivals, and completions "
    "plus dead letters account for every submission",
)
def check_reorder_buffer(view: RunView) -> None:
    result = view.result
    latencies = getattr(result, "latencies", None)
    if latencies is not None:
        completed = len(latencies)
        if completed + result.items_failed != result.entities_processed:
            _fail(
                "reorder-buffer-drained",
                f"{completed} completions + {result.items_failed} dead letters "
                f"!= {result.entities_processed} submissions",
            )
    sequencer = view.sequencer
    if sequencer is not None and sequencer.pending_count() != 0:
        _fail(
            "reorder-buffer-drained",
            f"{sequencer.pending_count()} arrivals still buffered after join "
            f"(holes not declared for dead letters?)",
        )


# --------------------------------------------------------------------------
# Simulation-scope invariants


@_invariant(
    "sim-item-conservation",
    "simulation",
    description="admitted completions plus dead letters equal submissions; "
    "all simulated times are non-negative",
)
def check_simulation(view: SimulationView) -> None:
    result = view.result
    if result.admitted + result.items_failed != view.n_items:
        _fail(
            "sim-item-conservation",
            f"{result.admitted} completions + {result.items_failed} dead "
            f"letters != {view.n_items} submitted items",
        )
    if len(result.completion_times) != result.admitted:
        _fail(
            "sim-item-conservation",
            f"{len(result.completion_times)} completion times for "
            f"{result.admitted} admitted items",
        )
    if len(result.latencies) != result.admitted:
        _fail(
            "sim-item-conservation",
            f"{len(result.latencies)} latencies for {result.admitted} "
            f"admitted items",
        )
    if any(latency < 0 for latency in result.latencies):
        _fail("sim-item-conservation", "negative simulated latency")
    if any(busy < 0 for busy in result.stage_busy_seconds.values()):
        _fail("sim-item-conservation", "negative stage busy time")
    if result.makespan < 0:
        _fail("sim-item-conservation", f"negative makespan {result.makespan}")

"""Self-tuning block ghosting: an online controller for β.

The paper sets β statically and notes that "changing it dynamically is an
interesting avenue for future research" (§IV-A).  This module implements
that avenue: a feedback controller that observes the comparison workload
each entity actually generates and nudges β so the pipeline tracks a
target comparisons-per-entity budget.

β semantics (Algorithm 2): a key is ghosted when ``|b_k| > |b_min|/β``, so
*larger* β ghosts more aggressively and produces fewer comparisons.  The
controller therefore raises β when the observed workload exceeds the
budget and lowers it when there is headroom (multiplicative increase /
decrease, clamped to a configurable band).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import StreamERConfig
from repro.core.pipeline import StreamERPipeline
from repro.errors import ConfigurationError
from repro.types import EntityDescription, Match


@dataclass
class BetaController:
    """Multiplicative-increase/decrease controller for the ghosting ratio.

    Parameters
    ----------
    target_comparisons:
        Desired (smoothed) number of generated comparisons per entity.
    rate:
        Multiplicative adjustment step per control interval (e.g. 1.1).
    smoothing:
        EWMA factor applied to the observed comparisons (0 < smoothing ≤ 1;
        1 means "react to the raw last observation").
    min_beta / max_beta:
        Clamp band, kept inside Algorithm 2's valid (0, 1) range.
    interval:
        Apply an adjustment every ``interval`` observations.
    """

    target_comparisons: float
    rate: float = 1.15
    smoothing: float = 0.1
    min_beta: float = 0.005
    max_beta: float = 0.9
    interval: int = 25
    _ewma: float = field(default=0.0, init=False)
    _seen: int = field(default=0, init=False)
    adjustments: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.target_comparisons <= 0:
            raise ConfigurationError("target_comparisons must be positive")
        if self.rate <= 1.0:
            raise ConfigurationError("rate must be > 1")
        if not 0.0 < self.smoothing <= 1.0:
            raise ConfigurationError("smoothing must be in (0, 1]")
        if not 0.0 < self.min_beta < self.max_beta < 1.0:
            raise ConfigurationError("need 0 < min_beta < max_beta < 1")
        if self.interval < 1:
            raise ConfigurationError("interval must be >= 1")

    @property
    def observed(self) -> float:
        """The smoothed comparisons-per-entity estimate."""
        return self._ewma

    def update(self, beta: float, comparisons: int) -> float:
        """Fold one observation in; returns the (possibly adjusted) β."""
        self._ewma += self.smoothing * (comparisons - self._ewma)
        self._seen += 1
        if self._seen % self.interval:
            return beta
        if self._ewma > self.target_comparisons * 1.1:
            adjusted = min(self.max_beta, beta * self.rate)
        elif self._ewma < self.target_comparisons * 0.9:
            adjusted = max(self.min_beta, beta / self.rate)
        else:
            return beta
        if adjusted != beta:
            self.adjustments += 1
        return adjusted


class SelfTuningERPipeline:
    """A stream pipeline whose β is adjusted online by a controller.

    The controller observes ``f_cg``'s output size per entity (the workload
    β exists to bound) and rewrites the ghosting stage's β between
    entities, which is safe: β is read once per entity.  A config without
    block cleaning has no ghosting stage to tune and is rejected.
    """

    def __init__(
        self,
        config: StreamERConfig | None = None,
        controller: BetaController | None = None,
        instrument: bool = False,
    ) -> None:
        self.pipeline = StreamERPipeline(config, instrument=instrument)
        if self.pipeline.bg is None:
            raise ConfigurationError(
                "self-tuning beta needs the ghosting stage: "
                "enable_block_cleaning must be True"
            )
        self.controller = controller or BetaController(target_comparisons=50.0)
        self.beta_history: list[float] = []

    @property
    def beta(self) -> float:
        return self.pipeline.bg.beta

    def process(self, entity: EntityDescription) -> list[Match]:
        before = self.pipeline.cg.generated
        matches = self.pipeline.process(entity)
        generated = self.pipeline.cg.generated - before
        new_beta = self.controller.update(self.pipeline.bg.beta, generated)
        if new_beta != self.pipeline.bg.beta:
            self.pipeline.bg.beta = new_beta
            self.beta_history.append(new_beta)
        return matches

    def process_many(self, entities) -> list[Match]:
        out: list[Match] = []
        for entity in entities:
            out.extend(self.process(entity))
        return out

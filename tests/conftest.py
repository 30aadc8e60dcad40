"""Shared fixtures: the paper's running example and small synthetic data."""

from __future__ import annotations

import pytest

from repro.classification import OracleClassifier, ThresholdClassifier
from repro.core import StreamERConfig
from repro.datasets import DatasetSpec, generate
from repro.types import EntityDescription


@pytest.fixture()
def paper_entities() -> list[EntityDescription]:
    """The running example of Figure 2: e1..e5 from the building sector.

    After standardization, e4's "fiber" becomes "fibre" and e5's "timber"
    becomes "wood", exactly as the paper assumes.
    """
    return [
        EntityDescription.create(1, {"title": "wooden top panel pavilion", "author": "John"}),
        EntityDescription.create(2, {"name": "glass fibre panel pavilion"}),
        EntityDescription.create(3, {"t": "wood top panel pavilion", "a": "John Doe"}),
        EntityDescription.create(4, {"desc": "fiber glass panel for pavilion"}),
        EntityDescription.create(
            5, {"material": "timber", "part": "side panel pavilion", "owner": "Jane"}
        ),
    ]


@pytest.fixture()
def paper_config() -> StreamERConfig:
    """The α=5, β=0.6 parameters used in the paper's worked example."""
    return StreamERConfig(alpha=5, beta=0.6, classifier=ThresholdClassifier(0.3))


@pytest.fixture(scope="session")
def tiny_dirty_dataset():
    """A small deterministic dirty-ER dataset with ground truth."""
    spec = DatasetSpec(
        name="tiny-dirty", kind="dirty", size=300, matches=220,
        avg_attributes=4.0, heterogeneity=0.2, vocab_rare=3000, seed=42,
    )
    return generate(spec)


@pytest.fixture(scope="session")
def tiny_clean_dataset():
    """A small deterministic clean-clean dataset with ground truth."""
    spec = DatasetSpec(
        name="tiny-clean", kind="clean-clean", size=(150, 170), matches=120,
        avg_attributes=4.0, heterogeneity=0.4, vocab_rare=3000, seed=43,
    )
    return generate(spec)


@pytest.fixture()
def oracle(tiny_dirty_dataset) -> OracleClassifier:
    return OracleClassifier.from_pairs(tiny_dirty_dataset.ground_truth)

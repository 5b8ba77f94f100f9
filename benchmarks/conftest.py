"""Shared fixtures for the per-table/per-figure benchmark harness.

Heavy artifacts (the synthesized design dataset, trained SNS models) are
built once per session and shared across benches.  The preset is chosen
with the ``SNS_BENCH_PRESET`` environment variable:

- ``paper`` (default): ``repro.experiments.FULL`` — full-size
  Circuitformer, augmented path dataset, the configuration behind the
  committed EXPERIMENTS.md numbers.
- ``fast``: minutes-scale smoke configuration.
"""

from __future__ import annotations

import os

import pytest

from repro.datagen import train_test_split_by_family
from repro.experiments import (FAST, FULL, ExperimentSettings, build_dataset,
                               fit_sns)

_PRESETS = {"paper": FULL, "fast": FAST}


@pytest.fixture(scope="session")
def settings() -> ExperimentSettings:
    name = os.environ.get("SNS_BENCH_PRESET", "paper")
    if name not in _PRESETS:
        raise KeyError(f"SNS_BENCH_PRESET must be one of {sorted(_PRESETS)}")
    return _PRESETS[name]


@pytest.fixture(scope="session")
def design_records(settings):
    """The synthesized 41-design Hardware Design Dataset (Table 4)."""
    return build_dataset(settings)


@pytest.fixture(scope="session")
def cv_parts(design_records, settings):
    """The 2-fold split (part A, part B) used by Figure 6 / Table 7."""
    return train_test_split_by_family(design_records, 0.5, seed=settings.seed)


@pytest.fixture(scope="session")
def sns_on_a(cv_parts, settings):
    """SNS trained on part A (evaluates part B)."""
    return fit_sns(cv_parts[0], settings)


@pytest.fixture(scope="session")
def sns_on_b(cv_parts, settings):
    """SNS trained on part B (evaluates part A)."""
    return fit_sns(cv_parts[1], settings)


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)

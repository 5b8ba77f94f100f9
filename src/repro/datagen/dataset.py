"""Dataset containers and builders (Section 4.1/4.2, Tables 4 and 5).

- :class:`DesignRecord` — one Hardware Design Dataset row: a design (kept
  as its GraphIR rather than Verilog files) plus its synthesized
  timing/area/power labels.
- :class:`PathRecord` — one Circuit Path Dataset row: a token sequence
  plus its per-path synthesized labels.
- Family-aware train/test splitting: designs generated from the same
  parameterizable base never straddle the split (Section 4.1).

Each ``DesignRecord.graph`` is the design's :class:`CompiledGraph`,
which the path sampler walks directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from typing import TYPE_CHECKING

from .. import obs
from ..designs import DesignEntry
from ..graphir import CompiledGraph
from ..synth import Synthesizer

if TYPE_CHECKING:  # avoid a circular import with repro.core at runtime
    from ..core.sampler import PathSampler

__all__ = [
    "DesignRecord",
    "PathRecord",
    "build_design_dataset",
    "sample_path_dataset",
    "train_test_split_by_family",
]


@dataclass(frozen=True)
class DesignRecord:
    """Table 4 row: design + synthesized design-level labels."""

    name: str
    family: str
    graph: CompiledGraph
    timing_ps: float
    area_um2: float
    power_mw: float

    @property
    def labels(self) -> np.ndarray:
        return np.array([self.timing_ps, self.area_um2, self.power_mw])


@dataclass(frozen=True)
class PathRecord:
    """Table 5 row: token sequence + synthesized path-level labels."""

    tokens: tuple[str, ...]
    timing_ps: float
    area_um2: float
    power_mw: float

    @property
    def labels(self) -> np.ndarray:
        return np.array([self.timing_ps, self.area_um2, self.power_mw])


def build_design_dataset(entries: list[DesignEntry],
                         synthesizer: Synthesizer | None = None,
                         max_nodes: int | None = None,
                         num_workers: int | None = 1,
                         cache_dir=None) -> list[DesignRecord]:
    """Elaborate and synthesize each registry entry into a dataset row.

    ``max_nodes`` optionally skips designs whose elaborated GraphIR
    exceeds the budget (useful for fast test configurations).

    ``num_workers`` fans the per-entry elaborate+synthesize out over a
    process pool (``num_workers=None`` uses the CPU count); records are
    merged back in registry order, bit-identical to the serial builder.
    ``cache_dir`` (a ``.sqlite`` file or a directory holding
    ``store.sqlite``, opened with :func:`repro.store.open_backend` like
    every ``--cache-dir``) keeps labels in the ``synth`` kind of an
    artifact store, keyed on graph structure x library x effort, so
    rebuilds replay labels instead of re-synthesizing.

    Under an open :func:`repro.obs.record` the build is a
    ``datagen.build`` span with one child per kept design
    (``datagen.design.<name>``: the seconds its worker spent elaborating
    and labeling it, so with several workers the children can sum past
    the parent), and counters for the worker count and, with a
    ``cache_dir``, synthesis-label hits and misses.
    """
    from ..runtime.parallel import parallel_build_design_dataset

    with obs.span("datagen.build"):
        return parallel_build_design_dataset(
            entries, synthesizer=synthesizer, max_nodes=max_nodes,
            num_workers=num_workers, cache_dir=cache_dir)


def sample_path_dataset(records: list[DesignRecord],
                        sampler: PathSampler | None = None,
                        synthesizer: Synthesizer | None = None) -> list[PathRecord]:
    """Sample complete circuit paths from designs and label each one.

    Duplicate token sequences across designs are collapsed — the Circuit
    Path Dataset keys on the path itself (Table 5).
    """
    if sampler is None:
        from ..core.sampler import PathSampler

        sampler = PathSampler()
    synthesizer = synthesizer or Synthesizer(effort="medium")
    seen: set[tuple[str, ...]] = set()
    unique: list[tuple[str, ...]] = []
    for record in records:
        for path in sampler.sample(record.graph):
            if path.tokens in seen:
                continue
            seen.add(path.tokens)
            unique.append(path.tokens)
    # One batched labeling call over the deduped paths (first-seen order
    # preserved).
    labels = synthesizer.synthesize_path_batch([list(t) for t in unique])
    return [PathRecord(
        tokens=tokens,
        timing_ps=label.timing_ps,
        area_um2=label.area_um2,
        power_mw=label.power_mw,
    ) for tokens, label in zip(unique, labels)]


def train_test_split_by_family(records: list[DesignRecord], train_fraction: float = 0.5,
                               seed: int = 0) -> tuple[list[DesignRecord], list[DesignRecord]]:
    """Split designs into train/test without splitting any family.

    Families never straddle the split (Section 4.1 of the paper).  The
    assignment is a size-balanced draft: families are ordered by their
    largest member and dealt to whichever side is furthest below its
    design-count budget (ties broken by the seeded RNG, preferring the
    side with less accumulated size) — so both folds span the dataset's
    orders-of-magnitude size range instead of concentrating all large
    designs on one side.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1): {train_fraction}")
    rng = np.random.default_rng(seed)
    families: dict[str, list[DesignRecord]] = {}
    for r in records:
        families.setdefault(r.family, []).append(r)

    def family_size(name: str) -> int:
        return max(r.graph.num_nodes for r in families[name])

    # Shuffle first so equal-size ties are seed-dependent, then order by
    # size descending (stable sort keeps the shuffled tie order).
    names = sorted(families)
    rng.shuffle(names)
    names.sort(key=family_size, reverse=True)

    total = len(records)
    target_train = train_fraction * total
    target_test = total - target_train
    train: list[DesignRecord] = []
    test: list[DesignRecord] = []
    size_train = size_test = 0
    for name in names:
        group = families[name]
        fill_train = len(train) / target_train
        fill_test = len(test) / target_test
        if abs(fill_train - fill_test) > 1e-9:
            to_train = fill_train < fill_test
        else:
            to_train = size_train <= size_test
        if to_train:
            train.extend(group)
            size_train += sum(r.graph.num_nodes for r in group)
        else:
            test.extend(group)
            size_test += sum(r.graph.num_nodes for r in group)
    if not train or not test:
        raise ValueError("split produced an empty side; need more families")
    return train, test

"""The batched, cached inference engine over a trained SNS predictor.

``BatchPredictor.predict_batch`` is the throughput path the paper's
headline numbers (Figure 7) and every DSE driver depend on.  It differs
from looping ``SNS.predict`` in three ways:

1. **Global path dedup** — sampled paths are deduplicated *across* the
   whole batch, so the hundreds of identical paths that sibling DSE
   configurations share are predicted once and broadcast.
2. **Length-bucketed forward passes** — unique sequences from every
   design are pooled and run through
   :meth:`~repro.core.circuitformer.Circuitformer.predict_unique`, whose
   bucket-padded batches avoid padding a 4-token path to the longest
   path in the pool.  The kernel is batch-composition invariant, so the
   engine's predictions are bit-identical to serial ``SNS.predict``.
3. **Content-addressed caching** — each (graph, model weights, sampler
   config, activity map) tuple is fingerprinted; repeat evaluations skip
   sampling and inference entirely, and any weight or config change
   invalidates automatically.  A batch reads every key with one
   ``get_many`` and writes its new entries with one ``put_many``: one
   round trip each way on a persistent store.
"""

from __future__ import annotations

import time
import warnings

import numpy as np

from ..core.predictor import SNS, SNSPrediction
from ..core.sampler import SampledPath
from ..store import ArtifactStore
from .fingerprint import (cache_key, fingerprint_activity, fingerprint_graph,
                          fingerprint_model, fingerprint_sampler)

__all__ = ["BatchPredictor", "resolve_activity_maps"]


def resolve_activity_maps(graphs, activity_maps) -> list[dict | None]:
    """Match activity maps to designs by elaborated graph name.

    ``activity_maps`` may be a dict keyed by design name or a sequence
    aligned with ``graphs`` (one entry per design, ``None`` allowed).
    Dict keys that match no design raise a ``UserWarning`` instead of
    being silently dropped.
    """
    if not activity_maps:
        return [None] * len(graphs)
    if isinstance(activity_maps, (list, tuple)):
        if len(activity_maps) != len(graphs):
            raise ValueError(
                f"got {len(activity_maps)} activity maps for {len(graphs)} designs")
        resolved = list(activity_maps)
        # A sequence entry that is a non-empty dict of all-None values is
        # almost always a misplaced *name-keyed* mapping (the dict form)
        # riding in the sequence slot: {"alu": None} at position i means
        # "no activity" only if the design at i IS "alu".  Normalize to
        # None and warn when the keys don't match that design's name.
        for i, entry in enumerate(resolved):
            if (isinstance(entry, dict) and entry
                    and all(v is None for v in entry.values())):
                if set(entry) != {graphs[i].name}:
                    warnings.warn(
                        f"activity map for design {graphs[i].name!r} "
                        f"(position {i}) is a dict of all-None values keyed "
                        f"{sorted(entry)} — it looks like a name-keyed "
                        "mapping passed in sequence form; treating it as "
                        "no activity", UserWarning, stacklevel=3)
                resolved[i] = None
        return resolved
    names = [g.name for g in graphs]
    unmatched = set(activity_maps) - set(names)
    if unmatched:
        warnings.warn(
            "activity maps matched no design and were ignored: "
            f"{sorted(unmatched)}", UserWarning, stacklevel=3)
    return [activity_maps.get(name) for name in names]


def _entry_from_parts(timing: float, area: float, power: float,
                      num_paths: int, spread: dict | None,
                      critical: SampledPath | None) -> dict:
    """Serialize one prediction into the ``prediction`` payload schema."""
    return {
        "timing_ps": timing,
        "area_um2": area,
        "power_mw": power,
        "num_paths": num_paths,
        "spread": spread,
        "critical": None if critical is None else {
            "node_ids": list(critical.node_ids),
            "tokens": list(critical.tokens),
        },
    }


def _prediction_from_entry(entry: dict, design_name: str,
                           runtime_s: float) -> SNSPrediction:
    critical = entry.get("critical")
    return SNSPrediction(
        design=design_name,
        timing_ps=float(entry["timing_ps"]),
        area_um2=float(entry["area_um2"]),
        power_mw=float(entry["power_mw"]),
        runtime_s=runtime_s,
        num_paths=int(entry["num_paths"]),
        critical_path=None if critical is None else SampledPath(
            node_ids=tuple(critical["node_ids"]),
            tokens=tuple(critical["tokens"])),
        spread=None if entry.get("spread") is None
        else {k: float(v) for k, v in entry["spread"].items()},
    )


class BatchPredictor:
    """Throughput-oriented batch inference over a trained :class:`SNS`.

    Parameters
    ----------
    sns:
        A fitted predictor; the engine never mutates it.
    store:
        The :class:`~repro.store.ArtifactStore` whose ``prediction``
        kind holds results (defaults to a fresh in-memory store, so a
        throwaway predictor keeps nothing).
    encoding_cache:
        Optional :class:`repro.runtime.trainer.EncodingCache` handed to
        ``predict_unique`` so bucket chunks repeated across batches skip
        re-encoding (a served model keeps one).
    """

    def __init__(self, sns: SNS, store: ArtifactStore | None = None,
                 encoding_cache=None, frontend_cache=None):
        self.sns = sns
        self.store = store if store is not None else ArtifactStore()
        self.encoding_cache = encoding_cache
        # Optional repro.runtime.FrontendCache (a served model keeps
        # one): Modules skip elaboration on repeat configurations and
        # sampled paths replay from the (graph content x sampler) tier.
        self.frontend_cache = frontend_cache

    # ------------------------------------------------------------------ #
    def predict_batch(self, designs, activity_maps=None) -> list[SNSPrediction]:
        """Predict a batch of designs; results align with the input order.

        Per-design ``runtime_s`` is the batch wall-clock divided evenly
        across the batch — the quantity that matters for throughput
        accounting (designs/sec), since the whole point of batching is
        that per-design cost is amortized.
        """
        designs = list(designs)
        if not designs:
            return []
        if not self.sns._fitted:
            raise RuntimeError("SNS.fit() must run before batch prediction")
        start = time.perf_counter()

        # Modules elaborate to CompiledGraphs (through the front-end
        # cache when one is attached); graphs pass through.
        from .frontend import compile_design

        graphs = [compile_design(d, self.frontend_cache) for d in designs]
        activities = resolve_activity_maps(graphs, activity_maps)

        model_fp = fingerprint_model(self.sns)
        sampler_fp = fingerprint_sampler(self.sns.sampler)
        keys = [cache_key(fingerprint_graph(graph), model_fp, sampler_fp,
                          fingerprint_activity(activity))
                for graph, activity in zip(graphs, activities)]
        hits = self.store.get_many("prediction", keys)
        results: list[dict | None] = [None] * len(graphs)
        pending: dict[str, list[int]] = {}
        for i, key in enumerate(keys):
            if key in hits:
                results[i] = hits[key]
            else:
                # Identical (graph, activity) pairs inside one batch
                # collapse onto one computation.
                pending.setdefault(key, []).append(i)

        # ---- sample the misses, dedup sequences across the whole batch
        group_paths: dict[str, list[SampledPath]] = {}
        unique: dict[tuple[str, ...], int] = {}
        group_index: dict[str, list[int]] = {}
        for key, members in pending.items():
            if self.frontend_cache is not None:
                paths = self.frontend_cache.sample(graphs[members[0]],
                                                   self.sns.sampler)
            else:
                paths = self.sns.sampler.sample(graphs[members[0]])
            group_paths[key] = paths
            group_index[key] = [
                unique.setdefault(p.tokens, len(unique)) for p in paths]

        # ---- one pooled, bucketed inference pass over unique sequences
        physical = (self.sns.circuitformer.predict_unique(
            list(unique), encoding_cache=self.encoding_cache)
            if unique else np.zeros((0, 3)))

        # ---- aggregate per pending group, fill every member
        for key, members in pending.items():
            first = members[0]
            paths = group_paths[key]
            preds = physical[group_index[key]]
            timing, area, power, spread, critical = self.sns._aggregate(
                graphs[first], paths, preds, activities[first])
            entry = _entry_from_parts(timing, area, power, len(paths),
                                      spread, critical)
            for i in members:
                results[i] = entry
        if pending:
            self.store.put_many("prediction", {
                key: results[members[0]] for key, members in pending.items()})

        per_design = (time.perf_counter() - start) / len(graphs)
        return [_prediction_from_entry(entry, graphs[i].name, per_design)
                for i, entry in enumerate(results)]

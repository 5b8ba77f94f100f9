"""Content-addressed fingerprints for the prediction cache.

A cached prediction is valid only while three things are unchanged: the
design (graph structure), the model (every trained weight and scaler),
and the sampler configuration (which paths get sampled).  Each gets its
own SHA-256 fingerprint; :func:`cache_key` combines them — so mutating a
single weight, re-seeding the sampler, or editing one node of the design
each yields a different key and an automatic cache miss.
"""

from __future__ import annotations

import hashlib
import json
import struct
import weakref
import zlib

import numpy as np

from ..graphir import CompiledGraph

__all__ = [
    "fingerprint_graph",
    "fingerprint_model",
    "fingerprint_sampler",
    "fingerprint_activity",
    "fingerprint_library",
    "cache_key",
]


def fingerprint_graph(graph: CompiledGraph) -> str:
    """SHA-256 over the graph's structure (nodes, widths, edges).

    The design *name* is deliberately excluded: two parameter sweeps that
    elaborate to identical hardware share one cache entry regardless of
    what they were called.  See :meth:`CompiledGraph.fingerprint`.
    """
    return graph.fingerprint()


def _update_with_arrays(h, named_arrays) -> None:
    # Each array contributes (name, dtype, shape, CRC-32 of its raw
    # buffer) to the running SHA-256.  CRC-32 reads the weight bytes at
    # memory-bandwidth speed (hardware-accelerated, no copy via
    # memoryview), so fingerprinting a 100 MB model costs ~30 ms instead
    # of ~170 ms — this runs on every cached predict_batch call.  Any
    # single-bit weight change still flips the combined digest; the
    # 2^-32 per-array collision odds only risk a stale cache entry, not
    # correctness of fresh predictions.
    for name, value in named_arrays:
        arr = np.ascontiguousarray(value)
        h.update(name.encode())
        h.update(str(arr.dtype).encode())
        h.update(struct.pack("<q", arr.ndim) + struct.pack(f"<{arr.ndim}q", *arr.shape))
        flat = arr.reshape(-1)
        h.update(struct.pack("<I", zlib.crc32(memoryview(flat).cast("B"))))


# Memoized model fingerprints: hashing ~100 MB of weights costs ~30 ms,
# which would dominate a warm-cache predict_batch call.  The token below
# captures every Parameter's (identity, version) — the version counter
# bumps on any .data assignment, including optimizer steps and state-dict
# loads — plus the identity and buffer address of each non-Parameter
# scaler array (those are only ever *replaced*, by fit()).  The cache
# entry keeps strong references to the tokenized objects so their ids
# cannot be recycled while the entry is live.
_MODEL_FP_CACHE: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _model_token(sns):
    refs = sns.circuitformer.parameters()
    parts = [(id(p), p.version) for p in refs]
    arrays = [sns.circuitformer.scaler.mean, sns.circuitformer.scaler.std]
    parts.append(len(sns.aggregators))
    for agg in sns.aggregators:
        agg_params = agg.parameters()
        parts += [(id(p), p.version) for p in agg_params]
        refs += agg_params
        arrays += [agg.area_weights, agg.energy_weights, agg.input_mean,
                   agg.input_std, agg.residual_mean, agg.residual_std]
        parts.append(float(agg.timing_scale))
    for a in arrays:
        arr = np.asarray(a)
        parts.append((id(a), arr.ctypes.data if arr.ndim else float(arr)))
        refs.append(a)
    return tuple(parts), refs


def fingerprint_model(sns) -> str:
    """SHA-256 over every trained parameter and scaler of an SNS predictor.

    Covers the Circuitformer weights and target scaler plus each ensemble
    aggregator's MLP weights, physics-layer weights, and input/residual
    scalers — any weight mutation (retraining, fine-tuning, manual edits)
    changes the fingerprint and invalidates cached predictions.  Repeat
    calls on an unchanged model return a memoized digest (see
    ``_MODEL_FP_CACHE``); only a weight assignment triggers re-hashing.
    """
    token, refs = _model_token(sns)
    cached = _MODEL_FP_CACHE.get(sns)
    if cached is not None and cached[0] == token:
        return cached[2]
    h = hashlib.sha256(b"model:v1")
    _update_with_arrays(h, sorted(sns.circuitformer.state_dict().items()))
    _update_with_arrays(h, [("cf_scaler_mean", sns.circuitformer.scaler.mean),
                            ("cf_scaler_std", sns.circuitformer.scaler.std)])
    h.update(struct.pack("<q", len(sns.aggregators)))
    for i, agg in enumerate(sns.aggregators):
        prefix = f"agg{i}:"
        _update_with_arrays(h, ((prefix + k, v)
                                for k, v in sorted(agg.state_dict().items())))
        _update_with_arrays(h, [
            (prefix + "area_weights", agg.area_weights),
            (prefix + "energy_weights", agg.energy_weights),
            (prefix + "input_mean", agg.input_mean),
            (prefix + "input_std", agg.input_std),
            (prefix + "residual_mean", agg.residual_mean),
            (prefix + "residual_std", agg.residual_std),
        ])
        h.update(struct.pack("<d", agg.timing_scale))
    digest = h.hexdigest()
    _MODEL_FP_CACHE[sns] = (token, refs, digest)
    return digest


def fingerprint_sampler(sampler) -> str:
    """SHA-256 over the path-sampler configuration."""
    payload = json.dumps({"k": sampler.k, "max_len": sampler.max_len,
                          "max_paths": sampler.max_paths, "seed": sampler.seed},
                         sort_keys=True)
    return hashlib.sha256(b"sampler:v1" + payload.encode()).hexdigest()


def fingerprint_library(library) -> str:
    """SHA-256 over a :class:`~repro.synth.library.TechLibrary`'s cost basis.

    Covers every unit-cost knob the library exposes (gate area/delay/
    energy/leakage plus the flip-flop constants); two libraries with the
    same knobs produce identical labels, so they share cache entries
    regardless of their names... except the name *is* included — named
    libraries are calibration points and renames are rare, while silently
    sharing entries across differently-named libraries would make cache
    bugs invisible.
    """
    payload = json.dumps({
        "name": library.name,
        "gate_area": library.gate_area,
        "gate_delay": library.gate_delay,
        "gate_energy": library.gate_energy,
        "gate_leakage": library.gate_leakage,
        "dff_setup": library.dff_setup,
        "dff_clk_q": library.dff_clk_q,
    }, sort_keys=True)
    return hashlib.sha256(b"library:v1" + payload.encode()).hexdigest()


def fingerprint_activity(activity: dict[int, float] | None) -> str:
    """SHA-256 over a register-activity map (power gating input)."""
    if not activity:
        return "none"
    payload = json.dumps(sorted((int(k), float(v)) for k, v in activity.items()))
    return hashlib.sha256(b"activity:v1" + payload.encode()).hexdigest()


def cache_key(graph_fp: str, model_fp: str, sampler_fp: str,
              activity_fp: str = "none") -> str:
    """Combine component fingerprints into one cache key.

    Delegates to :func:`repro.store.keys.prediction_key` — the unified
    key schema — with an unchanged byte layout, so entries written by
    earlier revisions keep their addresses.
    """
    from ..store.keys import prediction_key

    return prediction_key(graph_fp, model_fp, sampler_fp, activity_fp)

"""``repro.runtime`` — the throughput-oriented inference runtime.

Layers a batched, cached serving engine over the core SNS predictor:

- :class:`BatchPredictor` — cross-design path dedup + length-bucketed
  pooled forward passes, bit-identical to serial ``SNS.predict``, with
  results kept under the ``prediction`` kind of a
  :class:`repro.store.ArtifactStore` keyed on (graph, weights, sampler,
  activity).
- :class:`TrainingEngine` — length-bucketed minibatching with fused
  in-place optimizer steps, graph-freeing backward, and epoch-persistent
  encodings (:class:`PreparedPathDataset`); :class:`EncodingCache`
  reuses inference encodings across a served model's requests.
- :func:`parallel_build_design_dataset` — process-pool label
  generation for the Hardware Design Dataset.
- :class:`FrontendCache` / :func:`compile_source` / :func:`compile_module`
  — the content-addressed compiled front end (source -> CompiledGraph
  -> sampled paths) over the store's ``graph`` and ``paths`` kinds;
  :class:`DeltaElaborator` is ``compile_module``'s lookup with hit
  counts, as the DSE engine uses it.
- Fingerprint helpers for cache keying and invalidation.
"""

from .engine import BatchPredictor, resolve_activity_maps
from .frontend import (
    DeltaElaborator,
    FrontendCache,
    compile_design,
    compile_module,
    compile_source,
    fingerprint_frontend_module,
    fingerprint_frontend_source,
)
from .fingerprint import (
    cache_key,
    fingerprint_activity,
    fingerprint_graph,
    fingerprint_library,
    fingerprint_model,
    fingerprint_sampler,
)
from .parallel import parallel_build_design_dataset
from .trainer import EncodingCache, PreparedPathDataset, TrainingEngine

__all__ = [
    "BatchPredictor", "resolve_activity_maps",
    "TrainingEngine", "PreparedPathDataset", "EncodingCache",
    "cache_key", "fingerprint_activity", "fingerprint_graph",
    "fingerprint_library", "fingerprint_model", "fingerprint_sampler",
    "parallel_build_design_dataset",
    "FrontendCache", "DeltaElaborator",
    "compile_design", "compile_module", "compile_source",
    "fingerprint_frontend_module", "fingerprint_frontend_source",
]

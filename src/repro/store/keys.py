"""The unified artifact key schema: one content address per pipeline stage.

Every cached artifact in the pipeline is a pure function of fingerprinted
inputs, and each stage's key embeds the fingerprints of the stages it
depends on — so invalidation is structural, never manual:

    source/module ─► graph ─┬─► paths ──────┬─► prediction
                            └─► synth label │
    library, effort, activity ──┘           │
    model weights ──────────────────────────┤
    sampler config ─────────────────────────┘
    training request ─► model weights (trained-model registry)

Concretely: a ``paths`` key hashes (graph fingerprint x sampler
fingerprint); a ``synth`` key hashes (graph x library x effort x
activity); a ``prediction`` key hashes (graph x model x sampler x
activity).  Editing one Verilog line changes the graph fingerprint and
thereby every downstream key; retraining changes the model fingerprint
and invalidates predictions but leaves graphs, paths, and labels warm.

``repro.runtime.fingerprint.cache_key``,
``repro.synth.cache.synthesis_cache_key`` and ``FrontendCache.path_key``
delegate here, so every layer addresses an artifact the same way.  The
byte layouts are fixed: changing one orphans every entry that SQLite
and directory stores already hold.

This module is deliberately dependency-free (hashlib/json only): it
takes *fingerprint strings*, not live objects, so ``repro.store`` never
imports the higher pipeline layers that import it.
"""

from __future__ import annotations

import hashlib
import json

__all__ = [
    "KINDS",
    "paths_key",
    "synth_key",
    "prediction_key",
    "model_key",
    "training_request_key",
    "alias_key",
]

#: Artifact kinds the pipeline stores, in dependency order.  ``graph``
#: keys are the raw front-end fingerprints (source/module content hash);
#: the rest are composed here.
KINDS = ("graph", "paths", "synth", "prediction", "model",
         "model-index", "model-alias")


def _chain(prefix: bytes, parts, sep: bytes = b"|") -> str:
    h = hashlib.sha256(prefix)
    for part in parts:
        h.update(part.encode())
        if sep:
            h.update(sep)
    return h.hexdigest()


def paths_key(graph_fp: str, sampler_fp: str) -> str:
    """Sampled-path artifact: depends on (graph, sampler config)."""
    return _chain(b"frontend-paths:v1", (graph_fp, sampler_fp), sep=b"")


def synth_key(graph_fp: str, library_fp: str, effort: str,
              activity_fp: str = "none") -> str:
    """Synthesis label: depends on (graph, library, effort, activity)."""
    return _chain(b"synth:v1", (graph_fp, library_fp, effort, activity_fp))


def prediction_key(graph_fp: str, model_fp: str, sampler_fp: str,
                   activity_fp: str = "none") -> str:
    """Prediction: depends on (graph, model weights, sampler, activity)."""
    return _chain(b"", (graph_fp, model_fp, sampler_fp, activity_fp))


def model_key(model_fp: str) -> str:
    """Trained-model weights are addressed by their own fingerprint."""
    return model_fp


def training_request_key(request: dict) -> str:
    """Content address of one training request (designs, effort, epochs,
    seed, ...) — the ``model-index`` kind maps it to the fingerprint of
    the model that request produced, which is what makes ``/train``
    results replayable across server restarts."""
    payload = json.dumps(request, sort_keys=True, default=str)
    return hashlib.sha256(b"train-request:v1" + payload.encode()).hexdigest()


def alias_key(name: str) -> str:
    """Key of a mutable name -> model-fingerprint pointer."""
    return hashlib.sha256(b"model-alias:v1" + name.encode()).hexdigest()

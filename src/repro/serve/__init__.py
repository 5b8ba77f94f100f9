"""``repro.serve`` — prediction-as-a-service over the SNS runtime.

An asyncio HTTP tier (stdlib only) that converts the batched runtime's
throughput into user-facing latency under concurrency:

- :class:`PredictionServer` / :class:`ServeConfig` — the server:
  ``/predict``, ``/dse``, ``/train``, ``/healthz``, ``/metrics``.
- :class:`MicroBatchQueue` — cross-request micro-batching into
  ``BatchPredictor.predict_batch`` (size + deadline flush triggers,
  cancellation, per-request error isolation).
- :class:`ModelRegistry` / :class:`ServedModel` — the warm model
  registry: load-once, fingerprint-keyed, staleness-checked, with one
  warm batch predictor and its caches per model.
- :class:`RateLimiter` / :class:`TokenBucket` — per-client admission
  control; with the bounded queue, overload sheds as 429/503.
- :class:`ServerMetrics` — per-endpoint counters, in-flight gauges,
  latency percentiles, batch-size distribution, cache hit rates.
- :class:`ServeClient` / :func:`run_load` — the matching blocking
  client and the closed-loop load generator behind ``BENCH_serve.json``.
- :class:`ServerThread` — in-process server lifecycle for tests and
  benches.
"""

from .admission import RateLimiter, TokenBucket
from .batcher import MicroBatchQueue, QueueFullError
from .http import HttpError, Request, Response, ServeClient
from .loadgen import LoadResult, run_load
from .metrics import EndpointMetrics, LatencyHistogram, ServerMetrics
from .registry import ModelRegistry, ServedModel
from .server import PredictionServer, ServeConfig, ServerThread

__all__ = [
    "PredictionServer", "ServeConfig", "ServerThread",
    "MicroBatchQueue", "QueueFullError",
    "ModelRegistry", "ServedModel",
    "RateLimiter", "TokenBucket",
    "ServerMetrics", "EndpointMetrics", "LatencyHistogram",
    "ServeClient", "HttpError", "Request", "Response",
    "LoadResult", "run_load",
]

"""``repro.serve`` — the asyncio prediction server.

One process, one event loop, a thread worker pool:

- the event loop owns all protocol work (HTTP parsing, admission
  control, micro-batch coalescing, single-flight bookkeeping) — cheap,
  allocation-light, never blocked by a prediction;
- CPU-bound work (front-end compiles, batched inference, synthesis,
  training) trampolines onto the pool via ``run_in_executor``, where
  the numpy kernels release the GIL for real parallelism;
- each served model gets its own
  :class:`~repro.serve.batcher.MicroBatchQueue` feeding its one warm
  :class:`~repro.runtime.BatchPredictor`, so concurrent requests from
  unrelated clients coalesce into single pooled, deduplicated forward
  passes — responses stay bit-identical to direct ``SNS.predict``.

Overload policy: per-client token buckets answer 429 before work is
queued, a bounded queue answers 503, and per-request deadlines answer
504 with real cancellation (a timed-out request still queued is skipped
at flush time).  ``/metrics`` reports all of it.
"""

from __future__ import annotations

import asyncio
import math
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .. import obs
from .admission import RateLimiter
from .batcher import MicroBatchQueue, QueueFullError
from .http import HttpError, Request, Response, read_request
from .metrics import ServerMetrics
from .registry import ModelRegistry, ServedModel

__all__ = ["ServeConfig", "PredictionServer", "ServerThread"]


@dataclass
class ServeConfig:
    """Tunables for one :class:`PredictionServer`."""

    host: str = "127.0.0.1"
    port: int = 0                      # 0 = ephemeral (tests / benches)
    max_batch: int = 32                # micro-batch size trigger
    max_wait_ms: float = 2.0           # micro-batch deadline trigger
    max_queue: int = 256               # queued requests before 503s
    workers: int = 4                   # thread pool width
    rate_limit: float | None = None    # per-client requests/sec (None = off)
    request_timeout_s: float = 30.0    # per-request deadline -> 504
    cache_dir: str | None = None       # persistent cache root
    allow_train: bool = True           # expose POST /train


def _number(body: dict, field: str, default, cast=int, low=None):
    """``cast(body[field])`` (``default`` when absent): a finite number, at
    least ``low`` when given; anything else answers 400 naming the field."""
    raw = body.get(field, default)
    try:
        value = cast(raw)
    except (TypeError, ValueError, OverflowError):
        raise HttpError(400, f"{field} must be a number: {raw!r}") from None
    if not math.isfinite(value) or (low is not None and value < low):
        raise HttpError(400, f"{field} out of range: {raw!r}")
    return value


class _InFlight:
    """Single-flight bookkeeping for one prediction key."""

    __slots__ = ("task", "waiters")

    def __init__(self, task: asyncio.Task):
        self.task = task
        self.waiters = 1


class PredictionServer:
    """The serving tier over a :class:`~repro.serve.registry.ModelRegistry`."""

    def __init__(self, config: ServeConfig | None = None,
                 registry: ModelRegistry | None = None):
        self.config = config or ServeConfig()
        cfg = self.config
        self.registry = registry or ModelRegistry(cache_dir=cfg.cache_dir)
        self.metrics = ServerMetrics()
        self.limiter = RateLimiter(cfg.rate_limit)
        self._pool = ThreadPoolExecutor(
            max_workers=cfg.workers, thread_name_prefix="repro-serve")
        self._batchers: dict[str, MicroBatchQueue] = {}
        self._inflight: dict[str, _InFlight] = {}
        self._train_lock = asyncio.Lock()
        self._dse_lock = asyncio.Lock()
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.Task] = set()
        # Connections between a parsed request and its written response.
        self._busy: set[asyncio.Task] = set()
        self._default: str | None = None
        self._draining = False

    # -- model management ---------------------------------------------- #
    def add_model(self, sns, name: str = "default") -> ServedModel:
        served = self.registry.register(sns, name)
        if self._default is None:
            self._default = name
        return served

    def load_model(self, path, name: str | None = None) -> ServedModel:
        served = self.registry.load(path, name)
        if self._default is None:
            self._default = served.name
        return served

    def _resolve_model(self, body: dict) -> ServedModel:
        ref = body.get("model") or self._default
        if ref is None:
            raise HttpError(503, "no model is loaded")
        try:
            served = self.registry.get(str(ref))
        except KeyError as exc:
            raise HttpError(404, str(exc)) from exc
        served.fresh()  # re-key if the weights moved in place
        return served

    # -- lifecycle ------------------------------------------------------ #
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._serve_connection, self.config.host, self.config.port,
            limit=256 * 1024)

    @property
    def port(self) -> int:
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    async def stop(self, drain_timeout: float = 10.0) -> None:
        """Stop accepting, drain in-flight work, then tear down.

        The drain order matters: close the listener first (no new
        connections) and drop idle keep-alive connections (no request in
        flight), let queued predictions flush and in-flight handlers
        answer, then cancel stragglers and release the pool.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in self._connections - self._busy:
            task.cancel()
        deadline = asyncio.get_running_loop().time() + drain_timeout
        for batcher in self._batchers.values():
            remaining = max(0.0, deadline - asyncio.get_running_loop().time())
            await batcher.drain(timeout=remaining)
        while self._busy and asyncio.get_running_loop().time() < deadline:
            await asyncio.sleep(0.01)
        for batcher in self._batchers.values():
            await batcher.close()
        for task in list(self._connections):
            task.cancel()
        self._pool.shutdown(wait=False)

    async def serve_forever(self) -> None:
        """Run until cancelled (the CLI wires SIGINT to a clean stop)."""
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    # -- connection handling ------------------------------------------- #
    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    writer.write(Response(exc.status, {"error": exc.message})
                                 .encode(keep_alive=False))
                    await writer.drain()
                    break
                if request is None:
                    break
                self._busy.add(task)
                response = await self._dispatch(request, writer)
                keep_alive = (request.headers.get("connection", "keep-alive")
                              .lower() != "close") and not self._draining
                writer.write(response.encode(keep_alive=keep_alive))
                await writer.drain()
                self._busy.discard(task)
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            self._connections.discard(task)
            self._busy.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionResetError,
                    BrokenPipeError, OSError):
                pass

    def _client_id(self, request: Request,
                   writer: asyncio.StreamWriter) -> str:
        explicit = request.headers.get("x-client-id")
        if explicit:
            return explicit
        peer = writer.get_extra_info("peername")
        return str(peer[0]) if peer else "unknown"

    async def _dispatch(self, request: Request,
                        writer: asyncio.StreamWriter) -> Response:
        route = (request.method, request.path)
        handlers = {
            ("GET", "/healthz"): self._handle_healthz,
            ("GET", "/metrics"): self._handle_metrics,
            ("POST", "/predict"): self._handle_predict,
            ("POST", "/dse"): self._handle_dse,
            ("POST", "/train"): self._handle_train,
        }
        handler = handlers.get(route)
        if handler is None:
            known = {path for _, path in handlers}
            status = 405 if request.path in known else 404
            return Response(status, {"error": f"no route {route[0]} {route[1]}"})

        name = request.path.lstrip("/")
        self.metrics.begin(name)
        start = time.perf_counter()
        try:
            response = await handler(request, writer)
        except HttpError as exc:
            response = Response(exc.status, {"error": exc.message})
            if exc.status == 429:
                response.headers["retry-after"] = \
                    exc.message.rsplit(" ", 1)[-1].rstrip("s")
        except asyncio.TimeoutError:
            response = Response(504, {"error": "request timed out"})
        except Exception as exc:  # noqa: BLE001 — answer 500, keep serving
            traceback.print_exc()
            response = Response(500, {"error": f"{type(exc).__name__}: {exc}"})
        self.metrics.end(name, response.status,
                         time.perf_counter() - start)
        return response

    def _admit(self, request: Request, writer: asyncio.StreamWriter) -> None:
        allowed, retry_after = self.limiter.check(
            self._client_id(request, writer))
        if not allowed:
            raise HttpError(
                429, f"rate limit exceeded; retry after {retry_after:.3f}s")

    # -- endpoints ------------------------------------------------------ #
    async def _handle_healthz(self, request: Request, writer) -> Response:
        return Response(200, {
            "status": "ok",
            "models": self.registry.names(),
            "default_model": self._default,
            "uptime_s": time.time() - self.metrics.started_at,
        })

    async def _handle_metrics(self, request: Request, writer) -> Response:
        depth = sum(b.depth for b in self._batchers.values())
        return Response(200, self.metrics.as_dict(extra={
            "queue_depth": depth,
            "store": self.registry.store.stats(),
            "registry": self.registry.stats(),
            "config": {
                "max_batch": self.config.max_batch,
                "max_wait_ms": self.config.max_wait_ms,
                "max_queue": self.config.max_queue,
                "workers": self.config.workers,
                "rate_limit": self.config.rate_limit,
            },
        }))

    # .. predict ........................................................ #
    def _parse_activity(self, body: dict) -> dict[int, float] | None:
        raw = body.get("activity")
        if raw is None:
            return None
        if not isinstance(raw, dict):
            raise HttpError(400, "activity must map node ids to coefficients")
        try:
            activity = {int(k): float(v) for k, v in raw.items()}
        except (TypeError, ValueError) as exc:
            raise HttpError(400, f"bad activity map: {exc}") from exc
        for node, value in activity.items():
            if not (math.isfinite(value) and value >= 0.0):
                raise HttpError(400, f"bad activity map: node {node} has "
                                     f"coefficient {value}; coefficients "
                                     f"must be finite and non-negative")
        return activity

    def _compile_request(self, body: dict, served: ServedModel):
        """Front-end work for one request (runs on a worker thread)."""
        from ..runtime.frontend import compile_module, compile_source

        source = body.get("source")
        name = body.get("design")
        if (source is None) == (name is None):
            raise HttpError(
                400, "request must carry exactly one of 'source' "
                     "(Verilog text) or 'design' (bundled design name)")
        try:
            if source is not None:
                if not isinstance(source, str):
                    raise HttpError(400, "'source' must be a string")
                return compile_source(source, top=body.get("top"),
                                      cache=served.frontend_cache)
            from ..designs import get_design

            return compile_module(get_design(str(name)).module,
                                  cache=served.frontend_cache)
        except HttpError:
            raise
        except KeyError as exc:
            raise HttpError(400, f"unknown bundled design: {exc}") from exc
        except Exception as exc:  # noqa: BLE001 — front-end rejects are 400s
            raise HttpError(
                400, f"front end rejected design: "
                     f"{type(exc).__name__}: {exc}") from exc

    def _batcher_for(self, served: ServedModel) -> MicroBatchQueue:
        batcher = self._batchers.get(served.name)
        if batcher is None:
            engine = served.predictor
            loop = asyncio.get_running_loop()

            async def run_batch(payloads, _engine=engine, _loop=loop):
                graphs = [p[0] for p in payloads]
                activities = [p[1] for p in payloads]
                return await _loop.run_in_executor(
                    self._pool, lambda: _engine.predict_batch(
                        graphs, activity_maps=activities))

            batcher = MicroBatchQueue(
                run_batch, max_batch=self.config.max_batch,
                max_wait_s=self.config.max_wait_ms / 1e3,
                max_queue=self.config.max_queue,
                max_concurrent=self.config.workers,
                on_flush=self.metrics.observe_batch)
            self._batchers[served.name] = batcher
        return batcher

    @staticmethod
    def _prediction_payload(pred, served: ServedModel) -> dict:
        return {
            "design": pred.design,
            "timing_ps": pred.timing_ps,
            "area_um2": pred.area_um2,
            "power_mw": pred.power_mw,
            "num_paths": pred.num_paths,
            "spread": pred.spread,
            "critical_path": (None if pred.critical_path is None
                              else list(pred.critical_path.tokens)),
            "model": served.fingerprint,
        }

    async def _handle_predict(self, request: Request, writer) -> Response:
        self._admit(request, writer)
        body = request.json()
        precision = body.get("precision", "fp64")
        if precision != "fp64":
            raise HttpError(400, f"precision must be 'fp64': got {precision!r}")
        served = self._resolve_model(body)
        activity = self._parse_activity(body)
        loop = asyncio.get_running_loop()
        graph = await loop.run_in_executor(
            self._pool, self._compile_request, body, served)

        # Single-flight: identical concurrent requests (same graph,
        # model, sampler, activity) share one computation and
        # therefore exactly one read and one write of the store's
        # ``prediction`` kind.
        from ..runtime.fingerprint import (cache_key, fingerprint_activity,
                                           fingerprint_graph,
                                           fingerprint_sampler)

        key = cache_key(fingerprint_graph(graph), served.fingerprint,
                        fingerprint_sampler(served.sns.sampler),
                        fingerprint_activity(activity))
        entry = self._inflight.get(key)
        if entry is not None and not entry.task.done():
            entry.waiters += 1
            self.metrics.observe_single_flight_hit()
            shared = entry
        else:
            batcher = self._batcher_for(served)
            task = loop.create_task(batcher.submit((graph, activity)))
            shared = _InFlight(task)
            self._inflight[key] = shared
            task.add_done_callback(
                lambda _t, _k=key: self._inflight.pop(_k, None)
                if self._inflight.get(_k) is shared else None)

        try:
            pred = await asyncio.wait_for(
                asyncio.shield(shared.task), timeout=self.config.request_timeout_s)
        except asyncio.TimeoutError:
            shared.waiters -= 1
            if shared.waiters <= 0 and not shared.task.done():
                # Last interested client gave up: cancel the shared
                # computation; a still-queued waiter is skipped at flush.
                shared.task.cancel()
                self._inflight.pop(key, None)
            raise HttpError(504, "prediction timed out")
        except QueueFullError as exc:
            raise HttpError(503, str(exc)) from exc
        except asyncio.CancelledError:
            raise
        shared.waiters -= 1
        return Response(200, self._prediction_payload(pred, served))

    # .. dse ............................................................ #
    async def _handle_dse(self, request: Request, writer) -> Response:
        self._admit(request, writer)
        body = request.json()
        served = self._resolve_model(body)
        budget = _number(body, "budget", 256, low=1)
        if budget > 1_000_000:
            raise HttpError(400, f"budget out of range: {budget}")
        space = str(body.get("space", "boom"))
        if space not in ("boom", "extended"):
            raise HttpError(400, f"space must be 'boom' or 'extended': {space}")
        fidelity = _number(body, "fidelity", 0.25, float)
        if not 0.0 < fidelity <= 1.0:
            raise HttpError(400, f"fidelity must be in (0, 1]: {fidelity}")
        predict_budget = max(1, int(round(budget * fidelity)))
        seed = _number(body, "seed", 0)
        chunk = _number(body, "chunk", 256, low=1)
        loop = asyncio.get_running_loop()

        def run():
            from ..boom import BoomDSE, boom_grid, extended_grid

            grid = extended_grid() if space == "extended" else boom_grid()
            dse = BoomDSE(predictor=served.sns)
            # Pool threads do not inherit the handler's context, so the
            # job records its own profile.
            with obs.record() as recorder:
                result = dse.explore(grid=grid, budget=budget,
                                     predict_budget=predict_budget,
                                     chunk=chunk, seed=seed)
            return grid, result, recorder

        async with self._dse_lock:  # one exploration at a time per process
            grid, result, recorder = await asyncio.wait_for(
                loop.run_in_executor(self._pool, run),
                timeout=max(self.config.request_timeout_s, 300.0))
        eng = result.engine_result

        from dataclasses import asdict

        def point(p):
            return {"name": p.config.name, "params": asdict(p.config),
                    "score": p.score, "timing_ps": p.timing_ps,
                    "area_um2": p.area_um2, "power_mw": p.power_mw}

        return Response(200, {
            "space": space, "grid_size": len(grid), "budget": budget,
            "predict_budget": predict_budget, "seed": seed,
            "explored": len(result.points),
            "candidates": eng.candidates,
            "front_size": len(eng.front),
            "high_perf": point(result.high_perf),
            "power_eff": point(result.power_eff),
            "area_eff": point(result.area_eff),
            "profile": recorder.as_dict(),
            "model": served.fingerprint,
        })

    # .. train .......................................................... #
    async def _handle_train(self, request: Request, writer) -> Response:
        if not self.config.allow_train:
            raise HttpError(404, "training is disabled on this server")
        self._admit(request, writer)
        body = request.json()
        names = body.get("designs")
        if not isinstance(names, list) or len(names) < 2:
            raise HttpError(400, "'designs' must list at least two bundled "
                                 "design names")
        effort = str(body.get("effort", "low"))
        if effort not in ("low", "medium", "high"):
            raise HttpError(400, f"bad effort: {effort}")
        cf_epochs = _number(body, "circuitformer_epochs", 2, low=1)
        agg_epochs = _number(body, "aggregator_epochs", 30, low=1)
        max_paths = _number(body, "max_paths", 60, low=1)
        seed = _number(body, "seed", 0)
        alias = body.get("name")
        loop = asyncio.get_running_loop()

        # The request is a pure function of these parameters; its content
        # address indexes the trained weights in the shared store, so an
        # identical request — from any worker, before or after a restart
        # — replays the stored model instead of retraining.
        from ..store.keys import training_request_key

        training_fp = training_request_key({
            "designs": list(names), "effort": effort,
            "circuitformer_epochs": cf_epochs,
            "aggregator_epochs": agg_epochs,
            "max_paths": max_paths, "seed": seed,
        })
        models = self.registry.models
        if models.persistent:
            stored_fp = models.resolve_training(training_fp)
            if stored_fp is not None:
                start = time.perf_counter()
                sns = await loop.run_in_executor(
                    self._pool, models.load, stored_fp)
                if sns is not None:
                    served = self.add_model(
                        sns, str(alias) if alias else f"train-{stored_fp[:8]}")
                    return Response(200, {
                        "model": served.fingerprint,
                        "name": served.name,
                        "designs": len(names),
                        "cached": True,
                        "train_s": time.perf_counter() - start,
                    })

        def run():
            from ..core import (SNS, CircuitformerConfig, PathSampler,
                                TrainingConfig)
            from ..datagen import build_design_dataset, sample_path_dataset
            from ..designs import standard_designs
            from ..synth import Synthesizer

            by_name = {e.name: e for e in standard_designs()}
            unknown = [n for n in names if n not in by_name]
            if unknown:
                raise HttpError(400, f"unknown designs: {unknown}")
            synth = Synthesizer(effort=effort)
            records = build_design_dataset(
                [by_name[n] for n in names], synth)
            sampler = PathSampler(k=5, max_paths=max_paths, seed=seed)
            paths = sample_path_dataset(records, sampler, synth)
            if len(paths) < 4:
                raise HttpError(400, f"max_paths {max_paths} samples "
                                     f"{len(paths)} distinct paths from these "
                                     "designs; training needs at least 4")
            sns = SNS(sampler=sampler,
                      circuitformer_config=CircuitformerConfig(
                          embedding_size=32, dim_feedforward=64,
                          hidden_layers=1, max_input_size=64),
                      training_config=TrainingConfig(
                          circuitformer_epochs=cf_epochs,
                          aggregator_epochs=agg_epochs, seed=seed),
                      num_aggregators=1)
            sns.fit(records, synthesizer=synth, path_records=paths)
            return sns, len(records)

        start = time.perf_counter()
        async with self._train_lock:  # one training job at a time
            sns, num_designs = await asyncio.wait_for(
                loop.run_in_executor(self._pool, run),
                timeout=max(self.config.request_timeout_s, 600.0))
        from ..runtime import fingerprint_model

        served = self.add_model(
            sns, str(alias) if alias else f"train-{fingerprint_model(sns)[:8]}")
        if models.persistent:
            await loop.run_in_executor(
                self._pool, lambda: models.save(
                    sns, name=served.name, training_fp=training_fp))
        return Response(200, {
            "model": served.fingerprint,
            "name": served.name,
            "designs": num_designs,
            "cached": False,
            "train_s": time.perf_counter() - start,
        })


class ServerThread:
    """Run a :class:`PredictionServer` on a background event loop.

    The bench harness and the tests need a live server inside one
    process; this wraps the whole lifecycle::

        with ServerThread(server) as handle:
            client = ServeClient("127.0.0.1", handle.port)
            ...

    Startup blocks until the socket is bound; exit requests a clean
    drain-and-stop and joins the loop thread.
    """

    def __init__(self, server: PredictionServer,
                 drain_timeout: float = 10.0):
        self.server = server
        self.drain_timeout = drain_timeout
        self.port: int | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._error: BaseException | None = None

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            await self.server.start()
            self.port = self.server.port
        except BaseException as exc:
            self._error = exc
            self._ready.set()
            raise
        self._ready.set()
        await self._stop.wait()
        await self.server.stop(drain_timeout=self.drain_timeout)

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()),
            name="repro-serve-loop", daemon=True)
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._error is not None:
            raise RuntimeError("server failed to start") from self._error
        if self.port is None:
            raise RuntimeError("server did not bind within 30s")
        return self

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=self.drain_timeout + 10.0)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

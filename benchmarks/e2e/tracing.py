"""Span tracing for the end-to-end benchmark, installed from benchmark code.

The program under test has no span layer of its own, so a traced run
(``run.py --trace 1``) wraps the public entry point of each layer at the
name its callers look up (a module global or a class attribute) for the
length of the traced phase, then restores the originals.  Each span has a
name, a start, an end, the span that caused it and optional numeric
attributes; spans stay in memory and are written to a JSON file when the
run ends.  A span's self time is its duration minus the part of it that
its child spans cover.

Parents follow ``contextvars``: nested calls on one thread, and asyncio
tasks created inside a request, inherit the caller's span.  Work the
server hands to its thread pool runs without that context, so the serve
spans there find their request through the request body or activity map
they were given (``Tracer.request_of``).

``python3 benchmarks/e2e/tracing.py TRACE.json`` prints, for a traced
``verilog_cold`` run, the self time of each front-end stage per pass,
bucketed by design node count.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

_CURRENT: contextvars.ContextVar = contextvars.ContextVar("e2e_span",
                                                          default=None)
_clock = time.perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        # id() of a per-request object (JSON body, activity map) -> the
        # serve.request span that parsed it.
        self.request_of: dict[int, Span] = {}
        # id(serve.request span) -> the engine.predict_batch span that
        # computed its prediction on a pool thread.
        self.compute_of: dict[int, Span] = {}
        # id(store) -> (store, per-kind counters before its first call
        # in the traced phase).
        self.stores: dict[int, tuple[object, dict]] = {}
        self.elaborators: dict[int, object] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- benchmark-side spans ------------------------------------------ #
    @contextmanager
    def span(self, name: str, **attrs):
        span = Span(name, _CURRENT.get())
        span.attrs = attrs or None
        token = _CURRENT.set(span)
        span.start = _clock()
        try:
            yield span
        finally:
            span.end = _clock()
            _CURRENT.reset(token)
            self.spans.append(span)

    # -- patching ------------------------------------------------------- #
    def patch(self, owner, attr: str, name: str, *, attrs=None, enter=None,
              parent=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``attrs(span, args, kwargs, result)`` may return the span's
        attributes; ``enter(args)`` runs before the call; ``parent(args)``
        picks the parent span when the caller's context does not carry it.
        """
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        setattr(owner, attr, self._wrap(original, name, attrs, enter, parent))
        self._patches.append((owner, attr, original))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, attrs, enter, parent):
        spans = self.spans

        def open_span(args):
            if enter is not None:
                enter(args)
            span = Span(name, (parent(args) if parent is not None else None)
                        or _CURRENT.get())
            return span, _CURRENT.set(span)

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def wrapper(*args, **kwargs):
                span, token = open_span(args)
                span.start = _clock()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    span.end = _clock()
                    _CURRENT.reset(token)
                    spans.append(span)
                if attrs is not None:
                    span.attrs = attrs(span, args, kwargs, result)
                return result
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                span, token = open_span(args)
                span.start = _clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span.end = _clock()
                    _CURRENT.reset(token)
                    spans.append(span)
                if attrs is not None:
                    span.attrs = attrs(span, args, kwargs, result)
                return result
        return wrapper

    # -- the layer table ------------------------------------------------ #
    def install(self) -> None:
        """Wrap every layer entry point the per-layer metrics read."""
        def mod(name):
            return importlib.import_module(f"repro.{name}")

        def count(key, fn):
            return lambda span, args, kwargs, result: {key: fn(args, result)}

        def register_request(span, args, kwargs, result):
            if result is not None and span.parent is not None:
                self.request_of[id(result)] = span.parent

        def link_requests(span, args, kwargs, result):
            maps = kwargs.get("activity_maps",
                              args[2] if len(args) > 2 else None)
            for activity in maps if isinstance(maps, (list, tuple)) else ():
                request = self.request_of.get(id(activity))
                if request is not None:
                    self.compute_of[id(request)] = span

        def watch_store(args):
            if id(args[0]) not in self.stores:
                self.stores[id(args[0])] = (args[0], args[0].stats()["kinds"])

        def watch_elaborator(span, args, kwargs, result):
            self.elaborators[id(args[0])] = args[0]

        def encoded(span, args, kwargs, result):
            return {"rows": len(args[0]), "padded": int(result[1].sum()),
                    "slots": int(result[1].size)}

        # Verilog front end: parse_source looks tokenize up and
        # elaborate_source looks elaborate up as module globals.
        self.patch(mod("verilog.parser"), "tokenize", "verilog.lex",
                   attrs=count("bytes", lambda a, r: len(a[0])))
        self.patch(mod("verilog.parser").Parser, "parse", "verilog.parse")
        self.patch(mod("verilog.elaborator"), "elaborate", "verilog.elaborate")
        frontend = mod("runtime.frontend")
        self.patch(frontend, "compile_source", "frontend.compile_source")
        self.patch(frontend, "compile_module", "frontend.compile_module")
        self.patch(frontend.DeltaElaborator, "compile",
                   "frontend.compile_module", attrs=watch_elaborator)
        self.patch(frontend.FrontendCache, "sample", "frontend.paths")
        self.patch(mod("designs"), "get_design", "frontend.design_lookup")
        module_cls = mod("hdl.module").Module
        self.patch(module_cls, "elaborate", "hdl.elaborate")
        self.patch(module_cls, "elaborate_compiled", "hdl.elaborate")
        # Sampler, batch engine, Circuitformer, aggregation.
        self.patch(mod("core.sampler").PathSampler, "sample", "sampler.sample",
                   attrs=count("paths", lambda a, r: len(r)))
        engine = mod("runtime.engine")
        self.patch(engine.BatchPredictor, "predict_batch",
                   "engine.predict_batch", attrs=link_requests)
        fingerprint = mod("runtime.fingerprint")
        for owner in (engine, fingerprint):
            for name in ("fingerprint_model", "fingerprint_graph",
                         "fingerprint_sampler", "fingerprint_activity"):
                self.patch(owner, name, "engine.fingerprint")
        self.patch(mod("serve.registry"), "fingerprint_model",
                   "engine.fingerprint")
        circuitformer = mod("core.circuitformer")
        trainer = mod("runtime.trainer")
        for owner in (circuitformer, trainer):
            self.patch(owner, "encode_batch", "circuitformer.encode",
                       attrs=encoded)
        self.patch(trainer.EncodingCache, "encode", "circuitformer.encode")
        model = circuitformer.Circuitformer
        self.patch(model, "predict_unique", "circuitformer.forward",
                   attrs=count("unique", lambda a, r: len(a[1])))
        self.patch(model, "predict_paths", "circuitformer.forward")
        self.patch(model, "forward", "circuitformer.forward",
                   attrs=count("rows", lambda a, r: int(a[1].shape[0])))
        predictor = mod("core.predictor")
        self.patch(predictor.SNS, "_aggregate", "aggregator.ensemble",
                   attrs=count("sampled", lambda a, r: len(a[2])))
        aggregator = mod("core.aggregator")
        for owner in (predictor, aggregator):
            self.patch(owner, "reduce_paths", "aggregator.reduce")
            self.patch(owner, "featurize_design", "aggregator.featurize")
        self.patch(aggregator.AggregationMLP, "predict", "aggregator.mlp")
        self.patch(aggregator.AggregationMLP, "forward", "aggregator.mlp")
        # Artifact store.
        store = mod("store.store").ArtifactStore
        for attr in ("get", "get_many", "get_object"):
            self.patch(store, attr, "store.get", enter=watch_store)
        for attr in ("put", "put_many", "put_object"):
            self.patch(store, attr, "store.put", enter=watch_store)
        # Serving tier.
        server = mod("serve.server").PredictionServer
        http = mod("serve.http")
        self.patch(server, "_dispatch", "serve.request")
        self.patch(http.Request, "json", "serve.parse",
                   attrs=register_request)
        self.patch(server, "_parse_activity", "serve.parse",
                   attrs=register_request)
        self.patch(mod("serve.admission").RateLimiter, "check",
                   "serve.admission")
        self.patch(server, "_resolve_model", "serve.resolve")
        self.patch(server, "_compile_request", "serve.compile",
                   parent=lambda args: self.request_of.get(id(args[1])))
        self.patch(mod("serve.batcher").MicroBatchQueue, "submit",
                   "serve.batch")
        self.patch(http.Response, "encode", "serve.serialize")
        # Design-space exploration.
        dse = mod("dse.engine")
        self.patch(mod("boom.dse").BoomDSE, "explore", "dse.boom")
        self.patch(dse.ExplorationEngine, "explore", "dse.explore")
        self.patch(dse.ExplorationEngine, "_evaluate_chunk", "dse.evaluate",
                   attrs=count("evaluated", lambda a, r: len(a[1])))
        self.patch(dse.ExplorationEngine, "_surrogate_objectives",
                   "dse.screen")
        self.patch(dse._Surrogate, "fit", "dse.refit")
        pareto = mod("dse.pareto").ParetoFront
        self.patch(pareto, "add", "dse.pareto")
        self.patch(pareto, "hypervolume", "dse.pareto")
        grid = mod("dse.grid").ParameterGrid
        for attr in ("sample_indices", "neighbors"):
            self.patch(grid, attr, "dse.grid",
                       attrs=lambda span, a, k, r: {"indices": r})
        for attr in ("points_at", "decode_indices"):
            self.patch(grid, attr, "dse.grid")
        self.patch(mod("boom.perf_model").CoreMarkModel, "score", "dse.score")
        # Dataset generation, synthesis labels, training.
        self.patch(mod("datagen.dataset"), "build_design_dataset",
                   "datagen.build")
        self.patch(predictor, "sample_path_dataset", "datagen.paths")
        synth = mod("synth.synthesizer").Synthesizer
        self.patch(synth, "synthesize", "synth.label")
        self.patch(synth, "synthesize_path_batch", "synth.label")
        self.patch(predictor.SNS, "fit", "trainer.fit")
        self.patch(trainer.TrainingEngine, "train_circuitformer",
                   "trainer.circuitformer")
        self.patch(trainer.TrainingEngine, "prepare_design_features",
                   "trainer.features")
        self.patch(trainer.TrainingEngine, "train_aggregator",
                   "trainer.aggregator")
        self.patch(mod("nn.tensor").Tensor, "backward", "trainer.backward")
        self.patch(mod("nn.optim").Adam, "step", "trainer.optimizer")

    # -- derived metrics ------------------------------------------------ #
    def metrics(self, ops: int, roots: tuple[str, ...],
                names) -> dict[str, float]:
        """Span-derived per-layer metrics over ``ops`` workload ops.

        ``names`` are the declared per-layer metrics; each ``X.self_s``
        sums the self time of the spans named ``X`` or ``X.<anything>``.
        ``roots`` names the spans whose durations are the wall time the
        stage spans must cover; their own self time is the uncovered part.
        """
        spans = self.spans
        selfs = self_times(spans)
        children = children_index(spans)
        by_name: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        sums: dict[str, float] = defaultdict(float)
        for span in spans:
            by_name[span.name] += selfs[id(span)]
            calls[span.name] += 1
            for key, value in (span.attrs or {}).items():
                if isinstance(value, (int, float)):
                    sums[f"{span.name}:{key}"] += value

        def per_op(value: float) -> float:
            return value / ops if ops else 0.0

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out = {metric: per_op(sum(v for name, v in by_name.items()
                                  if in_layer(name, metric[:-len(".self_s")])))
               for metric in names if metric.endswith(".self_s")}
        out["verilog.lex.mb_per_s"] = ratio(
            sums["verilog.lex:bytes"] / 1e6, by_name["verilog.lex"])
        out["sampler.paths"] = per_op(sums["sampler.sample:paths"])
        out["circuitformer.rows"] = per_op(sums["circuitformer.forward:unique"]
                                           + sums["circuitformer.forward:rows"])
        out["circuitformer.pad_frac"] = ratio(
            sums["circuitformer.encode:padded"],
            sums["circuitformer.encode:slots"])
        out["store.get.calls"] = per_op(calls["store.get"])
        out["store.put.calls"] = per_op(calls["store.put"])
        out["trainer.steps"] = per_op(calls["trainer.optimizer"])
        out["trace.spans"] = per_op(len(spans))

        unique = sampled = 0
        for batch in (s for s in spans if s.name == "engine.predict_batch"):
            for node in descendants(batch, children):
                attrs = node.attrs or {}
                unique += attrs.get("unique", 0)
                sampled += attrs.get("sampled", 0)
        out["engine.dedup_frac"] = ratio(unique, sampled)

        candidates = evaluated = 0
        for sweep in (s for s in spans if s.name == "dse.explore"):
            seen: set[int] = set()
            for node in descendants(sweep, children):
                attrs = node.attrs or {}
                seen.update(attrs.get("indices", ()))
                evaluated += attrs.get("evaluated", 0)
            candidates += len(seen)
        out["dse.screened_out_frac"] = ratio(candidates - evaluated, candidates)
        out["dse.delta.graph_hits"] = per_op(sum(
            e.stats["graph_hits"] for e in self.elaborators.values()))

        tiers: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        for store, before in self.stores.values():
            for kind, counters in store.stats()["kinds"].items():
                for name, value in counters.items():
                    tiers[kind][name] += value - before.get(kind, {}).get(name, 0)

        def hit_frac(kinds, tier_names=("object_hits", "memory_hits",
                                        "persistent_hits")):
            hits = sum(tiers[k][t] for k in kinds for t in tier_names)
            lookups = sum(tiers[k][t] for k in kinds
                          for t in ("object_hits", "memory_hits",
                                    "persistent_hits", "misses"))
            return ratio(hits, lookups)

        out["frontend.graph_hit_frac"] = hit_frac(("graph",))
        out["frontend.paths_hit_frac"] = hit_frac(("paths",))
        out["engine.cache_hit_frac"] = hit_frac(("prediction",))
        out["store.object_hit_frac"] = hit_frac(tiers, ("object_hits",))
        out["store.persistent_hit_frac"] = hit_frac(tiers, ("persistent_hits",))

        waits, computes = [], []
        for batch in (s for s in spans if s.name == "serve.batch"):
            compute = self.compute_of.get(id(batch.parent))
            if compute is not None:
                waits.append(max(0.0, compute.start - batch.start))
                computes.append(compute.duration)
        out["serve.queue_wait_ms.p50"] = percentile(waits, 50) * 1e3
        out["serve.queue_wait_ms.p99"] = percentile(waits, 99) * 1e3
        out["serve.batch_compute_ms.p50"] = percentile(computes, 50) * 1e3
        out["serve.batch_compute_ms.p99"] = percentile(computes, 99) * 1e3

        walls = [s for s in spans if s.name in roots]
        uncovered = sum(selfs[id(s)] for s in spans
                        if s.name.startswith("bench.")
                        or s.name == "serve.request")
        out["trace.coverage_pct"] = 100.0 * (1.0 - ratio(
            uncovered, sum(s.duration for s in walls)))
        return out

    # -- export --------------------------------------------------------- #
    def write(self, path: Path, origin: float, meta: dict) -> None:
        index = {id(span): i for i, span in enumerate(self.spans)}
        rows = []
        for i, span in enumerate(self.spans):
            attrs = {k: v for k, v in (span.attrs or {}).items()
                     if isinstance(v, (int, float))}
            row = {"id": i, "name": span.name, "start": span.start - origin,
                   "end": span.end - origin,
                   "parent": index.get(id(span.parent))}
            if attrs:
                row["attrs"] = attrs
            rows.append(row)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**meta, "spans": rows}))


# ---------------------------------------------------------------------- #
def in_layer(name: str, prefix: str) -> bool:
    return name == prefix or name.startswith(prefix + ".")


def children_index(spans) -> dict[int, list]:
    children: dict[int, list] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append(span)
    return children


def _covered(start: float, end: float, intervals) -> float:
    covered, cursor = 0.0, start
    for lo, hi in sorted((max(lo, start), min(hi, end)) for lo, hi in intervals):
        lo = max(lo, cursor)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def self_times(spans) -> dict[int, float]:
    """``id(span) -> duration minus the union of its children's spans``."""
    children = children_index(spans)
    return {id(s): max(0.0, s.duration - _covered(
        s.start, s.end, ((c.start, c.end) for c in children.get(id(s), ()))))
        for s in spans}


def descendants(span, children):
    stack = list(children.get(id(span), ()))
    while stack:
        child = stack.pop()
        yield child
        stack.extend(children.get(id(child), ()))


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0-100); 0.0 when empty."""
    values = sorted(values)
    if not values:
        return 0.0
    pos = (len(values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


# ---------------------------------------------------------------------- #
# Stage-by-size table for a traced verilog_cold run
# ---------------------------------------------------------------------- #
STAGES = ("verilog.lex", "verilog.parse", "verilog.elaborate",
          "frontend.compile_source")
SIZE_BUCKETS = ((0, 100), (100, 1000), (1000, 10000), (10000, None))


def load_spans(doc: dict) -> list[Span]:
    """Rebuild the spans of a trace file written by :meth:`Tracer.write`."""
    rows = doc["spans"]
    spans = [Span(row["name"], None) for row in rows]
    for span, row in zip(spans, rows):
        span.start, span.end = row["start"], row["end"]
        span.attrs = row.get("attrs")
        if row["parent"] is not None:
            span.parent = spans[row["parent"]]
    return spans


def stage_table(doc: dict) -> str:
    spans = load_spans(doc)
    selfs = self_times(spans)
    children = children_index(spans)
    passes = max(1, sum(1 for s in spans if s.name == "bench.op"))
    designs = [s for s in spans if s.name == "bench.design"]
    lines = [f"{doc['workload']} seed {doc['seed']}: self time per pass (s), "
             f"mean over {passes} traced passes",
             "| nodes | designs | " + " | ".join(STAGES) + " | total |",
             "|---|---|" + "---|" * (len(STAGES) + 1)]
    for lo, hi in SIZE_BUCKETS:
        members = [d for d in designs if d.attrs["nodes"] >= lo
                   and (hi is None or d.attrs["nodes"] < hi)]
        totals = dict.fromkeys(STAGES, 0.0)
        for node in (n for d in members for n in descendants(d, children)):
            for stage in STAGES:
                if in_layer(node.name, stage):
                    totals[stage] += selfs[id(node)]
        label = f"{lo}-{hi - 1}" if hi is not None else f">={lo}"
        cells = " | ".join(f"{totals[s] / passes:.3f}" for s in STAGES)
        lines.append(f"| {label} | {len(members) // passes} | {cells} | "
                     f"{sum(totals.values()) / passes:.3f} |")
    batch = sum(s.duration for s in spans if s.name == "engine.predict_batch")
    lines.append(f"\nengine.predict_batch over all 41 designs: "
                 f"{batch / passes:.3f} s per pass")
    return "\n".join(lines)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python3 benchmarks/e2e/tracing.py TRACE.json")
    print(stage_table(json.loads(Path(sys.argv[1]).read_text())))

"""Command-line interface: ``python -m repro <command>``.

Commands
--------
synth FILE.v      Synthesize a Verilog design with the reference
                  synthesizer and print timing/area/power.
report FILE.v     Print the full EDA-style report (worst timing paths,
                  area and power breakdowns).
train OUT.npz     Train SNS on the bundled hardware design dataset and
                  save the model.
datagen [OUT.json]
                  Build the Hardware Design Dataset (synthesize all 41
                  bundled designs), optionally in parallel
                  (``--workers``) and against a persistent artifact
                  store (``--cache-dir``); ``--profile`` prints where
                  the wall-clock went.
predict MODEL FILE.v [FILE2.v ...]
                  Predict one or more Verilog designs with a trained
                  model through the batched runtime (``--cache-dir``
                  keeps predictions across invocations).
dse MODEL         Budgeted streaming DSE over the BOOM space
                  (``--space boom|extended --budget N --fidelity F
                  --chunk N --seed N --profile``): seeded lazy sampling,
                  surrogate screening, chunked SNS prediction, and an
                  incremental Pareto front.
paths FILE.v      Sample complete circuit paths from a design.
compile FILE.v    Compile a design through the array front end (CSR
                  GraphIR); ``--cache-dir`` keeps compiled graphs and
                  ``--profile`` prints per-stage timings.
serve MODEL       Run the async prediction server: cross-request
                  micro-batching into the warm BatchPredictor, per-
                  client rate limits, bounded-queue load shedding, and
                  JSON metrics on ``/metrics``; SIGINT drains in-flight
                  requests before exit.
cache stats PATH  Inspect a shared artifact store (SQLite file or its
                  directory): entry counts, bytes, and age per
                  artifact kind.
cache gc PATH     Age/size-bounded sweep of a store's persistent tier
                  (``--max-age-days D --max-bytes N[K|M|G] --dry-run``).
export NAME OUT.v Emit a bundled dataset design as Verilog
                  (``export --list`` shows the 41 names).

Every ``--cache-dir PATH`` (``predict``, ``compile``, ``datagen``,
``serve``) opens the same artifact store: a SQLite file
(``.sqlite``/``.sqlite3``/``.db`` or an existing database), or a
directory holding ``store.sqlite``, so the verbs warm each other and
``cache stats|gc`` sees everything they wrote.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import closing, contextmanager
from pathlib import Path

from . import obs

__all__ = ["main"]


class CLIError(Exception):
    """A bad input: printed as one ``repro: error:`` line, exit status 2."""


def _open_input(path: str, load):
    """``load(path)``, with a missing or unreadable file as a CLIError."""
    try:
        return load(path)
    except OSError as exc:
        raise CLIError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise CLIError(f"cannot read {path}: not UTF-8 text") from exc


def _open_model(path: str, load=None):
    """Load a saved model (``load_sns`` by default); a missing, unreadable
    or corrupt file is a CLIError."""
    from .core.persistence import ModelFileError, load_sns

    try:
        return _open_input(path, load or load_sns)
    except ModelFileError as exc:
        raise CLIError(str(exc)) from exc


def _read_source(path: str) -> str:
    return _open_input(path, lambda p: Path(p).read_text())


def _check_output(path: str) -> None:
    """Reject an output path whose directory does not exist, before any work."""
    parent = Path(path).parent
    if not parent.is_dir():
        raise CLIError(f"cannot write {path}: no directory {parent}")


def _check_cache_dir(path: str | None) -> None:
    """Reject a ``--cache-dir`` no artifact store can live at, before any
    work: a path under a regular file, or a regular file that is not a
    SQLite database."""
    if not path:
        return
    target = Path(path)
    blocker = next(p for p in target.parents if p.exists())
    if not blocker.is_dir():
        raise CLIError(f"cannot use cache {path}: {blocker} is not a directory")
    if target.is_file():
        with _open_input(path, lambda p: open(p, "rb")) as f:
            header = f.read(16)
        if header and header != b"SQLite format 3\x00":
            raise CLIError(f"cannot use cache {path}: not a directory "
                           "or a SQLite database")


@contextmanager
def _front_end_errors(path: str):
    """Report malformed Verilog in ``path`` as a CLIError naming the file."""
    from .verilog import ElaborationError, VerilogSyntaxError

    try:
        yield
    except (VerilogSyntaxError, ElaborationError) as exc:
        raise CLIError(f"{path}: {exc}") from exc


def _read_design(path: str):
    from .verilog import elaborate_source

    source = _read_source(path)
    with _front_end_errors(path):
        return elaborate_source(source)


def _cmd_synth(args) -> int:
    from .synth import Synthesizer

    graph = _read_design(args.design)
    result = Synthesizer(effort=args.effort).synthesize(graph)
    print(f"design:  {result.design}")
    print(f"cells:   {result.num_cells} ({result.gate_count:.0f} NAND2-eq gates)")
    print(f"timing:  {result.timing_ps:.1f} ps ({result.frequency_ghz:.3f} GHz)")
    print(f"area:    {result.area_um2:.1f} um2 ({result.area_mm2:.6f} mm2)")
    print(f"power:   {result.power_mw:.3f} mW")
    print(f"runtime: {result.runtime_s * 1e3:.1f} ms")
    return 0


def _cmd_train(args) -> int:
    from dataclasses import replace

    from .core.persistence import save_sns
    from .datagen import train_test_split_by_family
    from .experiments import FAST, FULL, build_dataset, fit_sns

    _check_output(args.output)
    settings = FULL if args.preset == "full" else FAST
    if args.buckets:
        settings = replace(settings,
                           training=replace(settings.training, bucketed=True))
    print(f"building the design dataset ({settings.name} preset)...")
    records = build_dataset(settings)
    train, test = train_test_split_by_family(records, args.train_fraction,
                                             seed=args.seed)
    print(f"training SNS on {len(train)} designs"
          + (" (length-bucketed batches)" if args.buckets else "") + "...")
    with obs.record() as recorder:
        sns = fit_sns(train, settings)
    if args.profile:
        print(recorder.format())
    save_sns(sns, args.output)
    print(f"saved model to {args.output} ({len(test)} designs held out)")
    return 0


def _cmd_datagen(args) -> int:
    import json

    from .datagen import build_design_dataset
    from .designs import standard_designs
    from .synth import Synthesizer

    if args.output:
        _check_output(args.output)
    _check_cache_dir(args.cache_dir)
    workers = None if args.workers == 0 else args.workers
    synth = Synthesizer(effort=args.effort)
    with obs.record() as recorder:
        records = build_design_dataset(
            standard_designs(), synth, max_nodes=args.max_nodes,
            num_workers=workers, cache_dir=args.cache_dir)
    for record in records:
        print(f"{record.name:24s} {record.timing_ps:9.1f} ps "
              f"{record.area_um2:12.1f} um2 {record.power_mw:10.3f} mW")
    wall = recorder.as_dict()["spans"]["datagen.build"]["seconds"]
    print(f"[{len(records)} designs in {wall:.2f}s]")
    if args.profile:
        print(recorder.format())
    if args.output:
        rows = [{"name": r.name, "family": r.family,
                 "num_nodes": r.graph.num_nodes, "timing_ps": r.timing_ps,
                 "area_um2": r.area_um2, "power_mw": r.power_mw}
                for r in records]
        Path(args.output).write_text(json.dumps(rows, indent=2) + "\n")
        print(f"wrote {args.output}")
    return 0


def _print_prediction(pred) -> None:
    print(f"design:  {pred.design}")
    print(f"timing:  {pred.timing_ps:.1f} ps ({pred.frequency_ghz:.3f} GHz)")
    print(f"area:    {pred.area_um2:.1f} um2 ({pred.area_mm2:.6f} mm2)")
    print(f"power:   {pred.power_mw:.3f} mW")
    print(f"paths:   {pred.num_paths} sampled; runtime {pred.runtime_s * 1e3:.1f} ms")
    if pred.critical_path is not None:
        print("critical path: " + " -> ".join(pred.critical_path.tokens))


def _cmd_predict(args) -> int:
    from .runtime import BatchPredictor
    from .store import ArtifactStore, open_backend

    _check_cache_dir(args.cache_dir)
    graphs = [_read_design(path) for path in args.designs]
    sns = _open_model(args.model)
    store = ArtifactStore(
        backend=open_backend(args.cache_dir) if args.cache_dir else None)
    with closing(store):
        engine = BatchPredictor(sns, store=store)
        preds = engine.predict_batch(graphs)
    for i, pred in enumerate(preds):
        if i:
            print()
        _print_prediction(pred)
    if len(preds) > 1 or args.cache_dir:
        c = store.counters(("prediction",))
        print(f"\n[{len(preds)} designs; cache: {c['memory_hits']} memory / "
              f"{c['persistent_hits']} disk hits, {c['misses']} misses]")
    return 0


def _cmd_dse(args) -> int:
    import json

    from .boom import BoomDSE, boom_grid, extended_grid

    sns = _open_model(args.model)
    grid = extended_grid() if args.space == "extended" else boom_grid()
    predict_budget = max(1, int(round(args.budget * args.fidelity)))
    dse = BoomDSE(predictor=sns)
    with obs.record() as recorder:
        result = dse.explore(
            grid=grid, budget=args.budget, predict_budget=predict_budget,
            synth_budget=args.synth_finalists, chunk=args.chunk,
            seed=args.seed, verbose=args.verbose)
    eng = result.engine_result

    print(f"space:    {args.space} ({len(grid)} configurations)")
    print(f"budget:   {args.budget} candidates, fidelity {args.fidelity:.2f} "
          f"({predict_budget} SNS evaluations)")
    print(f"explored: {len(result.points)} configurations in "
          f"{result.runtime_s:.2f}s "
          f"({eng.candidates / max(result.runtime_s, 1e-9):.0f} "
          f"configs/sec)")
    print(f"front:    {len(eng.front)} non-dominated designs "
          f"(timing/area/power/score)")
    for label, point in (("HighPerf", result.high_perf),
                         ("PowerEff", result.power_eff),
                         ("AreaEff", result.area_eff)):
        c = point.config
        print(f"  {label:9s} {c.name}  score={point.score:.3f} "
              f"timing={point.timing_ps:.0f}ps area={point.area_um2:.0f}um2 "
              f"power={point.power_mw:.2f}mW")
    if args.profile:
        print("profile:")
        print(recorder.format())
    if args.output:
        rows = [{"params": p.params, "timing_ps": p.timing_ps,
                 "area_um2": p.area_um2, "power_mw": p.power_mw,
                 "score": p.score} for p in eng.points]
        payload = {"space": args.space, "grid_size": len(grid),
                   "budget": args.budget, "fidelity": args.fidelity,
                   "chunk": args.chunk, "seed": args.seed,
                   "candidates": eng.candidates,
                   "profile": recorder.as_dict(), "points": rows}
        Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.output}")
    return 0


def _cmd_serve(args) -> int:
    import asyncio
    import signal

    from .serve import PredictionServer, ServeConfig

    _check_cache_dir(args.cache_dir)
    config = ServeConfig(
        host=args.host, port=args.port, max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms, max_queue=args.max_queue,
        workers=args.workers, rate_limit=args.rate_limit,
        request_timeout_s=args.request_timeout, cache_dir=args.cache_dir,
        allow_train=not args.no_train)
    server = PredictionServer(config)
    _open_model(args.model, lambda path: server.load_model(path, name="default"))

    async def main() -> None:
        await server.start()
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, stop.set)
        print(f"serving on http://{config.host}:{server.port} "
              f"(max_batch={config.max_batch}, "
              f"max_wait={config.max_wait_ms}ms, "
              f"workers={config.workers}"
              + (f", rate_limit={config.rate_limit}/s" if config.rate_limit
                 else "") + ")",
              flush=True)  # announce readiness even through a pipe
        await stop.wait()
        print("\ndraining in-flight requests...", flush=True)
        await server.stop(drain_timeout=args.drain_timeout)

    asyncio.run(main())
    print("server stopped")
    return 0


def _cmd_report(args) -> int:
    from .synth import analyze

    graph = _read_design(args.design)
    print(analyze(graph, num_paths=args.paths).format())
    return 0


def _cmd_export(args) -> int:
    from .designs import get_design, standard_designs
    from .verilog import emit_verilog

    if args.list:
        for entry in standard_designs():
            print(f"{entry.name:20s} {entry.category}")
        return 0
    if not args.name or not args.output:
        raise CLIError("export requires NAME and OUT.v (or --list)")
    try:
        entry = get_design(args.name)
    except KeyError:
        raise CLIError(f"unknown design {args.name!r} "
                       "(`repro export --list` shows the names)") from None
    _check_output(args.output)
    text = emit_verilog(entry.module.elaborate())
    Path(args.output).write_text(text + "\n")
    print(f"wrote {args.output} ({text.count(chr(10)) + 1} lines)")
    return 0


def _cmd_paths(args) -> int:
    from .core import PathSampler

    graph = _read_design(args.design)
    sampler = PathSampler(k=args.k, max_paths=args.max_paths)
    paths = sampler.sample(graph)
    print(f"{len(paths)} complete circuit paths (k={args.k}):")
    for p in paths:
        print("  " + " -> ".join(p.tokens))
    return 0


def _cmd_compile(args) -> int:
    from .core import PathSampler
    from .runtime import FrontendCache, compile_source
    from .store import ArtifactStore, open_backend

    _check_cache_dir(args.cache_dir)
    source = _read_source(args.design)
    store = ArtifactStore(
        backend=open_backend(args.cache_dir) if args.cache_dir else None)
    cache = FrontendCache(store)
    with closing(store), _front_end_errors(args.design), \
            obs.record() as recorder:
        cg = compile_source(source, top=args.top, cache=cache)
        if args.sample:
            cache.sample(cg, PathSampler(k=args.k))
    counts = cg.token_counts()
    print(f"design:  {cg.name}")
    print(f"nodes:   {cg.num_nodes} ({len(counts)} distinct tokens)")
    print(f"edges:   {cg.num_edges}")
    print(f"sources: {len(cg.source_ids())} sequential path sources")
    if args.profile:
        print("profile:")
        print(recorder.format())
        if args.cache_dir:
            c = store.counters((cache.GRAPH_KIND, cache.PATHS_KIND))
            print(f"cache:   {c['object_hits']} object hits, "
                  f"{c['memory_hits']} memory hits, "
                  f"{c['persistent_hits']} disk hits, "
                  f"{c['misses']} misses")
    return 0


def _parse_size(text: str) -> int:
    """``"500"``/``"500K"``/``"32M"``/``"2G"`` -> bytes."""
    upper = text.strip().upper()
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(upper[-1:], 1)
    try:
        size = int(float(upper[:-1] if scale != 1 else upper) * scale)
    except (ValueError, OverflowError):  # not a number, NaN or infinite
        size = -1
    if size < 0:
        raise CLIError(f"bad --max-bytes {text!r}: use N, NK, NM or NG "
                       "with a finite N >= 0")
    return size


def _open_store(path: str):
    """The store backend at ``path``; a missing store is an error, not
    created."""
    from .store import open_backend, store_file

    if not store_file(path).exists():
        raise CLIError(f"no artifact store at {path}")
    return open_backend(path)


def _cmd_cache_stats(args) -> int:
    import json as _json
    import time as _time
    from collections import defaultdict

    backend = _open_store(args.path)
    now = _time.time()
    per_kind = defaultdict(lambda: {"entries": 0, "bytes": 0,
                                    "oldest_s": 0.0, "newest_s": None})
    for entry in backend.entries():
        row = per_kind[entry.kind]
        row["entries"] += 1
        row["bytes"] += entry.size
        age = max(0.0, now - entry.created_at)
        row["oldest_s"] = max(row["oldest_s"], age)
        row["newest_s"] = (age if row["newest_s"] is None
                           else min(row["newest_s"], age))
    total_entries = sum(r["entries"] for r in per_kind.values())
    total_bytes = sum(r["bytes"] for r in per_kind.values())
    if args.json:
        print(_json.dumps({"backend": backend.name, "path": args.path,
                           "entries": total_entries, "bytes": total_bytes,
                           "kinds": dict(sorted(per_kind.items()))}, indent=2))
        return 0
    print(f"store:   {args.path} ({backend.name} backend)")
    print(f"entries: {total_entries} ({total_bytes / 1e6:.2f} MB)")
    for kind, row in sorted(per_kind.items()):
        print(f"  {kind:<12} {row['entries']:>7} entries "
              f"{row['bytes'] / 1e6:>9.2f} MB  "
              f"oldest {row['oldest_s'] / 3600.0:.1f}h")
    if not per_kind:
        print("  (empty)")
    return 0


def _cmd_cache_gc(args) -> int:
    from .store import gc_backend

    days = args.max_age_days
    if days is not None and not 0 <= days < math.inf:
        raise CLIError(f"bad --max-age-days {days}: need a finite number "
                       ">= 0")
    max_bytes = (_parse_size(args.max_bytes)
                 if args.max_bytes is not None else None)
    backend = _open_store(args.path)
    report = gc_backend(
        backend, max_age_s=days * 86400.0 if days is not None else None,
        max_bytes=max_bytes, dry_run=args.dry_run)
    verb = "would delete" if args.dry_run else "deleted"
    print(f"store:   {args.path} ({report['backend']} backend)")
    print(f"scanned: {report['scanned']} entries "
          f"({report['bytes_before'] / 1e6:.2f} MB)")
    print(f"{verb}: {report['deleted']} entries "
          f"({report['bytes_freed'] / 1e6:.2f} MB); "
          f"{report['bytes_after'] / 1e6:.2f} MB remain")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="synthesize a Verilog design")
    p_synth.add_argument("design")
    p_synth.add_argument("--effort", default="medium",
                         choices=("low", "medium", "high"))
    p_synth.set_defaults(fn=_cmd_synth)

    p_train = sub.add_parser("train", help="train SNS and save the model")
    p_train.add_argument("output")
    p_train.add_argument("--preset", default="fast", choices=("fast", "full"))
    p_train.add_argument("--train-fraction", type=float, default=0.5)
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--buckets", action="store_true",
                         help="train with length-bucketed minibatches")
    p_train.add_argument("--profile", action="store_true",
                         help="print the training span tree and counters")
    p_train.set_defaults(fn=_cmd_train)

    p_datagen = sub.add_parser("datagen",
                               help="build the hardware design dataset")
    p_datagen.add_argument("output", nargs="?",
                           help="optional JSON file for the labeled rows")
    p_datagen.add_argument("--effort", default="medium",
                           choices=("low", "medium", "high"))
    p_datagen.add_argument("--workers", type=int, default=1,
                           help="process-pool size (0 = CPU count)")
    p_datagen.add_argument("--cache-dir", default=None,
                           help="artifact store for synthesis labels "
                                "(a directory or a .sqlite file)")
    p_datagen.add_argument("--max-nodes", type=int, default=None,
                           help="skip designs larger than this many nodes")
    p_datagen.add_argument("--profile", action="store_true",
                           help="print per-design timing and cache statistics")
    p_datagen.set_defaults(fn=_cmd_datagen)

    p_pred = sub.add_parser("predict", help="predict with a trained model")
    p_pred.add_argument("model")
    p_pred.add_argument("designs", nargs="+", metavar="design",
                        help="one or more Verilog files (batched together)")
    p_pred.add_argument("--cache-dir", default=None,
                        help="artifact store for predictions "
                             "(a directory or a .sqlite file)")
    p_pred.set_defaults(fn=_cmd_predict)

    p_paths = sub.add_parser("paths", help="sample complete circuit paths")
    p_paths.add_argument("design")
    p_paths.add_argument("-k", type=int, default=5)
    p_paths.add_argument("--max-paths", type=int, default=100)
    p_paths.set_defaults(fn=_cmd_paths)

    p_compile = sub.add_parser("compile",
                               help="compile a design through the array front end")
    p_compile.add_argument("design")
    p_compile.add_argument("--top", default=None,
                           help="top module (default: inferred)")
    p_compile.add_argument("--cache-dir", default=None,
                           help="artifact store for compiled graphs "
                                "(a directory or a .sqlite file)")
    p_compile.add_argument("--profile", action="store_true",
                           help="print per-stage front-end timings")
    p_compile.add_argument("--sample", action="store_true",
                           help="also sample complete circuit paths")
    p_compile.add_argument("-k", type=int, default=5,
                           help="path-sampling divisor (with --sample)")
    p_compile.set_defaults(fn=_cmd_compile)

    p_dse = sub.add_parser("dse",
                           help="budgeted streaming design-space exploration")
    p_dse.add_argument("model", help="trained SNS model (.npz)")
    p_dse.add_argument("--space", default="boom",
                       choices=("boom", "extended"),
                       help="BOOM grid: Table 10 (2592) or extended (~1.12M)")
    p_dse.add_argument("--budget", type=int, default=4096,
                       help="configurations drawn from the space")
    p_dse.add_argument("--fidelity", type=float, default=0.25,
                       help="fraction of candidates promoted past the "
                            "surrogate screen to SNS prediction")
    p_dse.add_argument("--synth-finalists", type=int, default=0,
                       help="Pareto-front designs re-checked with the "
                            "reference synthesizer")
    p_dse.add_argument("--chunk", type=int, default=256,
                       help="streaming chunk size (prediction batch size)")
    p_dse.add_argument("--seed", type=int, default=0)
    p_dse.add_argument("--profile", action="store_true",
                       help="print per-rung timing and throughput")
    p_dse.add_argument("--verbose", action="store_true",
                       help="print per-block progress")
    p_dse.add_argument("--output", default=None,
                       help="optional JSON file for the evaluated points")
    p_dse.set_defaults(fn=_cmd_dse)

    p_serve = sub.add_parser("serve", help="run the async prediction server")
    p_serve.add_argument("model", help="trained SNS model (.npz)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8100)
    p_serve.add_argument("--max-batch", type=int, default=32,
                         help="micro-batch size flush trigger")
    p_serve.add_argument("--max-wait-ms", type=float, default=2.0,
                         help="micro-batch deadline flush trigger")
    p_serve.add_argument("--max-queue", type=int, default=256,
                         help="queued requests before 503 load shedding")
    p_serve.add_argument("--workers", type=int, default=4,
                         help="prediction worker threads")
    p_serve.add_argument("--rate-limit", type=float, default=None,
                         help="per-client requests/sec (429 beyond; "
                              "default unlimited)")
    p_serve.add_argument("--request-timeout", type=float, default=30.0,
                         help="per-request deadline in seconds (504 beyond)")
    p_serve.add_argument("--cache-dir", default=None,
                         help="artifact store shared by every worker "
                              "(a directory or a .sqlite file)")
    p_serve.add_argument("--no-train", action="store_true",
                         help="disable the POST /train endpoint")
    p_serve.add_argument("--drain-timeout", type=float, default=10.0,
                         help="seconds to drain in-flight work on SIGINT")
    p_serve.set_defaults(fn=_cmd_serve)

    p_report = sub.add_parser("report", help="full timing/area/power report")
    p_report.add_argument("design")
    p_report.add_argument("--paths", type=int, default=3,
                          help="worst timing paths to show")
    p_report.set_defaults(fn=_cmd_report)

    p_export = sub.add_parser("export", help="emit a dataset design as Verilog")
    p_export.add_argument("name", nargs="?")
    p_export.add_argument("output", nargs="?")
    p_export.add_argument("--list", action="store_true",
                          help="list the 41 dataset designs")
    p_export.set_defaults(fn=_cmd_export)

    p_cache = sub.add_parser("cache",
                             help="inspect or sweep a shared artifact store")
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    p_cstats = cache_sub.add_parser(
        "stats", help="per-kind entry counts, bytes, and ages")
    p_cstats.add_argument("path",
                          help="store root directory or SQLite file")
    p_cstats.add_argument("--json", action="store_true",
                          help="machine-readable output")
    p_cstats.set_defaults(fn=_cmd_cache_stats)
    p_cgc = cache_sub.add_parser(
        "gc", help="age/size-bounded sweep of the persistent tier")
    p_cgc.add_argument("path", help="store root directory or SQLite file")
    p_cgc.add_argument("--max-age-days", type=float, default=None,
                       help="delete entries older than this many days")
    p_cgc.add_argument("--max-bytes", default=None, metavar="N[K|M|G]",
                       help="evict oldest entries until the store fits")
    p_cgc.add_argument("--dry-run", action="store_true",
                       help="report what would be deleted without deleting")
    p_cgc.set_defaults(fn=_cmd_cache_gc)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CLIError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

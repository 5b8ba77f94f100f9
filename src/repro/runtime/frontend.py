"""The front end: source -> :class:`CompiledGraph` (+ paths), cached.

- :func:`compile_source` / :func:`compile_module` elaborate Verilog text
  or a :class:`repro.hdl.Module` into a :class:`CompiledGraph`.
- :class:`FrontendCache` content-addresses the whole front end in the
  artifact store: a fingerprint of (source text x top x defines) — or
  (module class source x parameters) — short-circuits to a stored
  CompiledGraph, and a second kind keyed on (graph content x sampler
  config) replays previously sampled paths.  The sampler is
  deterministic, so replayed paths equal a fresh sample exactly.
- :class:`DeltaElaborator` is :func:`compile_module`'s module-keyed
  graph lookup with hit counts; nothing in ``repro`` calls it.
- Under an open :func:`repro.obs.record`, the graph lookup, path
  sampling and (inside the Verilog front end) lex, parse and elaborate
  record spans, which ``repro compile --profile`` prints.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import threading

from .. import obs
from ..graphir import CompiledGraph
from ..store import ArtifactStore
from .fingerprint import fingerprint_sampler

__all__ = [
    "FrontendCache",
    "DeltaElaborator",
    "fingerprint_frontend_source",
    "fingerprint_frontend_module",
    "compile_source",
    "compile_module",
    "compile_design",
]


# ---------------------------------------------------------------------- #
# Front-end fingerprints: what the compile cache keys on.
# ---------------------------------------------------------------------- #
def fingerprint_frontend_source(source: str, top: str | None = None,
                                defines: dict[str, str] | None = None) -> str:
    """SHA-256 over (source text, top module, preprocessor defines).

    Callers that use ``include_paths`` must pass the *preprocessed*
    text (as :func:`compile_source` does) so that edits to included
    files change the fingerprint.
    """
    h = hashlib.sha256(b"frontend-src:v1")
    h.update(source.encode())
    h.update(b"\x00")
    h.update((top or "").encode())
    h.update(b"\x00")
    h.update(json.dumps(sorted((defines or {}).items())).encode())
    return h.hexdigest()


_MODULE_SOURCE_FP: dict[type, str] = {}
# ``inspect.getsource`` parses the class's module with ``ast``.  On
# Python 3.11 the AST constructor keeps its recursion depth in state
# shared by all threads, so a second thread that enters it mid-parse (a
# GC finalizer can hand over the GIL there) fails with "SystemError: AST
# constructor recursion depth mismatch".  Misses happen once per class,
# so they simply take turns.
_SOURCE_FP_LOCK = threading.Lock()


def _class_source_fp(cls: type) -> str:
    """SHA-256 of a class's source text, memoized per class.

    Classes whose source is unavailable (defined in a REPL) fall back to
    the qualified name, trading cross-process safety for availability.
    """
    cls_fp = _MODULE_SOURCE_FP.get(cls)
    if cls_fp is None:
        with _SOURCE_FP_LOCK:
            cls_fp = _MODULE_SOURCE_FP.get(cls)
            if cls_fp is None:
                try:
                    text = inspect.getsource(cls)
                except (OSError, TypeError):
                    text = f"{cls.__module__}.{cls.__qualname__}"
                cls_fp = hashlib.sha256(text.encode()).hexdigest()
                _MODULE_SOURCE_FP[cls] = cls_fp
    return cls_fp


def fingerprint_frontend_module(module) -> str:
    """SHA-256 over a :class:`repro.hdl.Module`'s class source + parameters.

    The class *source code* (not just its name) is hashed — memoized per
    class — so editing ``build()`` invalidates cached graphs.
    """
    h = hashlib.sha256(b"frontend-mod:v1")
    h.update(_class_source_fp(type(module)).encode())
    h.update(json.dumps(sorted(module.params.items()), default=str).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------- #
class FrontendCache:
    """Compiled graphs and sampled paths in an
    :class:`repro.store.ArtifactStore` (a fresh in-memory one by default).

    This class only hides the two payload formats: graphs live in the
    store's ``graph`` kind (``CompiledGraph.to_payload``), paths in its
    ``paths`` kind as node-id lists whose tokens are rebuilt from the
    graph.  Both travel through the store's object tier, so
    serialization is lazy: with no persistent backend attached,
    ``put_graph``/``put_paths`` never build a payload.

    The path tier is keyed on (graph *content* fingerprint x sampler
    config), so two differently-named designs that elaborate to the same
    hardware share one sampled-path entry.
    """

    GRAPH_KIND = "graph"
    PATHS_KIND = "paths"

    def __init__(self, store: ArtifactStore | None = None):
        self.store = store if store is not None else ArtifactStore()

    # -- compiled graphs ----------------------------------------------- #
    def get_graph(self, key: str) -> CompiledGraph | None:
        return self.store.get_object(self.GRAPH_KIND, key,
                                     decode=CompiledGraph.from_payload)

    def put_graph(self, key: str, cg: CompiledGraph) -> None:
        self.store.put_object(self.GRAPH_KIND, key, cg, encode=cg.to_payload)

    # -- sampled paths -------------------------------------------------- #
    @staticmethod
    def path_key(cg: CompiledGraph, sampler) -> str:
        from ..store.keys import paths_key

        return paths_key(cg.fingerprint(), fingerprint_sampler(sampler))

    def get_paths(self, cg: CompiledGraph, sampler):
        """Replay cached paths for ``cg`` under ``sampler``, or ``None``."""
        def decode(doc):
            from ..core.sampler import SampledPath

            tokens = cg.token_list
            return tuple(SampledPath(node_ids=tuple(ids),
                                     tokens=tuple(tokens[n] for n in ids))
                         for ids in doc["paths"])

        paths = self.store.get_object(self.PATHS_KIND,
                                      self.path_key(cg, sampler),
                                      decode=decode)
        return None if paths is None else list(paths)

    def put_paths(self, cg: CompiledGraph, sampler, paths) -> None:
        stored = tuple(paths)
        self.store.put_object(
            self.PATHS_KIND, self.path_key(cg, sampler), stored,
            encode=lambda: {"format": "repro-frontend-paths", "version": 1,
                            "paths": [list(p.node_ids) for p in stored]})

    def sample(self, cg: CompiledGraph, sampler):
        """Cached sampling: replay if keyed paths exist, else sample+store."""
        with obs.span("frontend.paths"):
            paths = self.get_paths(cg, sampler)
            if paths is None:
                paths = sampler.sample(cg)
                self.put_paths(cg, sampler, paths)
            return paths


# ---------------------------------------------------------------------- #
# Compile drivers
# ---------------------------------------------------------------------- #
def _preprocess(source: str, include_paths, defines) -> str:
    if "`" in source or defines:
        from ..verilog.preprocessor import preprocess

        return preprocess(source, include_paths=include_paths, defines=defines)
    return source


def compile_source(source: str, top: str | None = None,
                   include_paths: list[str] | None = None,
                   defines: dict[str, str] | None = None,
                   cache: FrontendCache | None = None) -> CompiledGraph:
    """Compile Verilog text to a :class:`CompiledGraph` (cached).

    On a cache hit the parser and elaborator never run; on a miss the
    source elaborates (memoized instance stamping on) and the result is
    stored under the (preprocessed source x top x defines) fingerprint.
    """
    from ..verilog.elaborator import elaborate_source

    source = _preprocess(source, include_paths, defines)
    if cache is not None:
        key = fingerprint_frontend_source(source, top, defines)
        with obs.span("frontend.graph_lookup"):
            cg = cache.get_graph(key)
        if cg is not None:
            obs.count("frontend.graph_hits")
            return cg
    cg = elaborate_source(source, top)
    if cache is not None:
        cache.put_graph(key, cg)
    return cg


def compile_module(module, cache: FrontendCache | None = None) -> CompiledGraph:
    """Compile a :class:`repro.hdl.Module` to a :class:`CompiledGraph`.

    Cached under the module's class-source x parameter fingerprint, so a
    configuration compiled again through the same cache skips
    elaboration entirely.
    """
    if cache is not None:
        key = fingerprint_frontend_module(module)
        cg = cache.get_graph(key)
        if cg is not None:
            return cg
    cg = module.elaborate()
    if cache is not None:
        cache.put_graph(key, cg)
    return cg


class DeltaElaborator:
    """A Module compiler: one :class:`FrontendCache` lookup with hit counts.

    :meth:`compile` looks the graph up under
    :func:`fingerprint_frontend_module`, the key :func:`compile_module`
    uses (so the two share entries), elaborates only on a miss, and
    counts ``compiles`` and ``graph_hits``.

    Nothing in ``repro`` calls it (a DSE sweep evaluates each grid point
    once, so the engine elaborates directly).  It stays only as a patch
    target: the end-to-end benchmark's tracer patches
    ``DeltaElaborator.compile`` for its ``dse.delta.graph_hits`` metric,
    and ``tests/test_e2e_tracer_targets.py`` fails on a missing target;
    it goes with that metric.
    """

    def __init__(self, cache: FrontendCache | None = None):
        self.cache = cache or FrontendCache()
        self.stats = {"compiles": 0, "graph_hits": 0}

    def compile(self, module) -> CompiledGraph:
        key = fingerprint_frontend_module(module)
        cg = self.cache.get_graph(key)
        if cg is not None:
            self.stats["graph_hits"] += 1
            return cg
        self.stats["compiles"] += 1
        cg = module.elaborate()
        self.cache.put_graph(key, cg)
        return cg


def compile_design(design, cache: FrontendCache | None = None) -> CompiledGraph:
    """Normalize a design to a :class:`CompiledGraph`.

    Accepts a :class:`CompiledGraph` (returned as-is) or a
    :class:`repro.hdl.Module` (elaborated via :func:`compile_module`,
    using ``cache`` when given).
    """
    if isinstance(design, CompiledGraph):
        return design
    if not hasattr(design, "elaborate"):
        raise TypeError(f"cannot compile {type(design).__name__} to a CompiledGraph")
    return compile_module(design, cache)

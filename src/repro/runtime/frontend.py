"""The front end: source -> :class:`CompiledGraph` (+ paths), cached.

- :func:`compile_source` / :func:`compile_module` elaborate Verilog text
  or a :class:`repro.hdl.Module` into a :class:`CompiledGraph`.
- :class:`FrontendCache` content-addresses the whole front end in the
  artifact store: a fingerprint of (source text x top x defines) — or
  (module class source x parameters) — short-circuits to a stored
  CompiledGraph, and a second kind keyed on (graph content x sampler
  config) replays previously sampled paths.  The sampler is
  deterministic, so replayed paths equal a fresh sample exactly.
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


def fingerprint_frontend_module(module, params: dict | None = None) -> str:
    """SHA-256 over a :class:`repro.hdl.Module`'s class source + parameters.

    The class *source code* (not just its name) is hashed — memoized per
    class — so editing ``build()`` invalidates cached graphs.  Pass
    ``params`` to fingerprint a projection of the module's parameters
    (the delta-elaboration structural key) instead of all of them.
    """
    h = hashlib.sha256(b"frontend-mod:v1")
    h.update(_class_source_fp(type(module)).encode())
    if params is None:
        params = module.params
    h.update(json.dumps(sorted(params.items()), default=str).encode())
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
    DSE sweep revisiting a configuration skips elaboration entirely.
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
    """Delta-elaboration front end for parameter sweeps.

    Neighboring configurations of one parameterizable design share most
    of their structure; this driver compiles each configuration as a
    diff against what previous configurations already built, instead of
    re-elaborating from scratch:

    - **Module sweeps** (:meth:`compile`): the compiled-graph cache key
      projects the parameter binding onto the class's *structural*
      parameters (``STRUCTURAL_PARAMS``, when declared — parameters that
      affect the elaborated hardware, as opposed to score-only or
      floorplan-only knobs).  Sweeping a non-structural axis compiles
      the design exactly once.  The first time a projection collapses
      two distinct bindings of a class, the claim is *verified*: both
      configurations elaborate and their graph fingerprints must match,
      so an unsound declaration fails loudly instead of serving a wrong
      graph.

    - **Verilog sweeps** (:meth:`compile_source`): the source parses
      once (AST cached per source fingerprint) and every elaboration —
      any top, any repetition — shares one PR-4
      :class:`~repro.verilog.elaborator.ElaborationMemo`, so a config
      re-elaborates only the instances whose (module, parameter binding,
      port shape) changed; everything unchanged stamps from recorded
      templates.  Output is node-for-node identical to a fresh
      elaboration (the memo's contract).

    All compiled graphs land in the shared :class:`FrontendCache`, so
    the sampled-path tier and the downstream prediction cache compose
    with both paths.
    """

    def __init__(self, cache: FrontendCache | None = None,
                 verify_projections: bool = True):
        self.cache = cache or FrontendCache()
        self.verify_projections = verify_projections
        from ..verilog.elaborator import ElaborationMemo

        self.memo = ElaborationMemo()
        self._asts: dict[str, object] = {}
        # Per (class fp, structural key): the full-params fingerprint of
        # the configuration that actually elaborated — a projection
        # collapse is detected (and verified once) when a later lookup
        # arrives with a different full fingerprint.
        self._projection_owner: dict[str, str] = {}
        self._verified_classes: set[type] = set()
        self.stats = {"compiles": 0, "graph_hits": 0, "projection_hits": 0,
                      "ast_hits": 0, "verified_projections": 0}

    # -- Module path ---------------------------------------------------- #
    @staticmethod
    def structural_params(module) -> dict:
        """The projection of ``module.params`` the graph depends on."""
        names = getattr(type(module), "STRUCTURAL_PARAMS", None)
        if names is None:
            return dict(module.params)
        unknown = set(names) - set(module.params)
        if unknown:
            raise ValueError(
                f"{type(module).__name__}.STRUCTURAL_PARAMS names unknown "
                f"parameters: {sorted(unknown)}")
        return {k: module.params[k] for k in names}

    def compile(self, module) -> CompiledGraph:
        """Compile a Module, reusing a structural neighbor when possible."""
        projected = self.structural_params(module)
        key = fingerprint_frontend_module(module, projected)
        full_fp = (fingerprint_frontend_module(module)
                   if len(projected) != len(module.params) else key)
        cg = self.cache.get_graph(key)
        if cg is not None:
            self.stats["graph_hits"] += 1
            owner = self._projection_owner.get(key)
            if owner is not None and owner != full_fp:
                self.stats["projection_hits"] += 1
                if self.verify_projections and \
                        type(module) not in self._verified_classes:
                    self._verified_classes.add(type(module))
                    self.stats["verified_projections"] += 1
                    fresh = module.elaborate()
                    if fresh.fingerprint() != cg.fingerprint():
                        raise ValueError(
                            f"{type(module).__name__}.STRUCTURAL_PARAMS is "
                            "unsound: two configurations with equal "
                            "structural projections elaborate to different "
                            "graphs")
            return cg
        self.stats["compiles"] += 1
        cg = module.elaborate()
        self.cache.put_graph(key, cg)
        self._projection_owner[key] = full_fp
        return cg

    # -- Verilog path --------------------------------------------------- #
    def compile_source(self, source: str, top: str | None = None,
                       include_paths: list[str] | None = None,
                       defines: dict[str, str] | None = None) -> CompiledGraph:
        """Compile Verilog text, stamping templates shared across configs.

        The graph tier short-circuits exact repeats; on a miss the
        (preprocessed) source parses at most once and elaborates with
        the shared :class:`ElaborationMemo`, so sibling configurations
        re-elaborate only what changed.
        """
        from ..verilog.elaborator import elaborate
        from ..verilog.parser import parse_source

        source = _preprocess(source, include_paths, defines)
        key = fingerprint_frontend_source(source, top, defines)
        cg = self.cache.get_graph(key)
        if cg is not None:
            self.stats["graph_hits"] += 1
            return cg
        src_fp = hashlib.sha256(source.encode()).hexdigest()
        file = self._asts.get(src_fp)
        if file is None:
            file = parse_source(source)
            self._asts[src_fp] = file
        else:
            self.stats["ast_hits"] += 1
        self.stats["compiles"] += 1
        cg = elaborate(file, top, memo=self.memo)
        self.cache.put_graph(key, cg)
        return cg

    @property
    def template_hits(self) -> int:
        """Instance stampings served from the shared elaboration memo."""
        return self.memo.hits


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

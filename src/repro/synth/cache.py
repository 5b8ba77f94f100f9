"""The content address of one design-level synthesis label.

A synthesized label is a pure function of four inputs: the elaborated
graph structure, the technology library's cost basis, the effort level,
and the optional register-activity map.  :func:`synthesis_cache_key`
hashes exactly those four (via the unified :mod:`repro.store.keys`
schema), so a dataset rebuild after an unrelated code change — or from
a sibling process in the ``build_design_dataset`` worker pool — replays
labels from the ``synth`` kind of a shared
:class:`repro.store.ArtifactStore` instead of re-synthesizing.

``repro.runtime`` is imported lazily inside the function: the import
chain runtime -> core -> synth would otherwise turn a module-level
import into a cycle.
"""

from __future__ import annotations

from ..store.keys import synth_key

__all__ = ["synthesis_cache_key"]


def synthesis_cache_key(graph, library, effort: str,
                        activity: dict[int, float] | None = None) -> str:
    """Content-addressed key for one design-level synthesis run."""
    from ..runtime.fingerprint import (fingerprint_activity, fingerprint_graph,
                                       fingerprint_library)

    return synth_key(fingerprint_graph(graph), fingerprint_library(library),
                     effort, fingerprint_activity(activity))

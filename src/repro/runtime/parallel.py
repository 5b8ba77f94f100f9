"""Process-pool fan-out for the Hardware Design Dataset (Table 4).

Building the dataset spends almost all its time in one elaborate +
synthesize per registry entry, with no cross-entry dependency except
final merge order.  ``parallel_build_design_dataset`` maps entries over
a process pool and merges the records back in entry order, so the
result is bit-identical to the serial builder.  With a ``cache_dir``
each entry's label goes through the ``synth`` kind of an
:class:`repro.store.ArtifactStore` on ``open_backend(cache_dir)`` (a
directory or a SQLite file): workers share labels through the
persistent tier, so concurrent duplicate synthesis is at worst wasted
work, never corruption.
"""

from __future__ import annotations

import dataclasses
import os
import time

from .. import obs
from ..datagen.dataset import DesignRecord
from ..store import ArtifactStore, open_backend
from ..synth import SynthesisResult, Synthesizer, synthesis_cache_key

__all__ = ["parallel_build_design_dataset"]

# One store per cache path per process: worker processes are reused
# across map items, so the memory tier amortizes repeated backend reads
# within a worker while the persistent tier shares across workers.
_SYNTH_CACHES: dict[str, ArtifactStore] = {}


def _design_store(cache_dir) -> ArtifactStore | None:
    if cache_dir is None:
        return None
    key = str(cache_dir)
    store = _SYNTH_CACHES.get(key)
    if store is None:
        store = _SYNTH_CACHES[key] = ArtifactStore(
            backend=open_backend(cache_dir))
    return store


def _synthesize_one_entry(args):
    """Worker: elaborate + synthesize (or cache-replay) one registry entry.

    Returns ``(record_or_None, seconds, hit)`` where ``record`` is None
    for entries skipped by ``max_nodes`` and ``hit`` is None when no
    cache is configured (or the entry was skipped), else True/False.
    """
    entry, synthesizer, max_nodes, cache_dir = args
    start = time.perf_counter()
    graph = entry.module.elaborate()
    if max_nodes is not None and graph.num_nodes > max_nodes:
        return None, time.perf_counter() - start, None
    store = _design_store(cache_dir)
    payload = hit = None
    if store is not None:
        key = synthesis_cache_key(graph, synthesizer.library,
                                  synthesizer.effort)
        payload = store.get("synth", key)
        hit = payload is not None
    if payload is not None:
        # The graph fingerprint ignores names, so structurally identical
        # designs share one entry: re-stamp it with this graph's name.
        result = SynthesisResult(**{**payload, "design": graph.name})
    else:
        result = synthesizer.synthesize(graph)
        if store is not None:
            store.put("synth", key, dataclasses.asdict(result))
    record = DesignRecord(
        name=entry.name,
        family=entry.family,
        graph=graph,
        timing_ps=result.timing_ps,
        area_um2=result.area_um2,
        power_mw=result.power_mw,
    )
    return record, time.perf_counter() - start, hit


def parallel_build_design_dataset(entries,
                                  synthesizer: Synthesizer | None = None,
                                  max_nodes: int | None = None,
                                  num_workers: int | None = None,
                                  cache_dir=None):
    """Fan :func:`repro.datagen.dataset.build_design_dataset` over a pool.

    Workers are mapped in entry order and merged in entry order, so the
    record list is bit-identical to the serial builder.
    ``num_workers=None`` uses the CPU count; pool failures fall back to
    in-process execution with identical output.  Each kept entry's
    worker seconds are credited to the open :mod:`repro.obs` span as
    ``datagen.design.<name>``, next to worker and synthesis-cache
    counters.
    """
    synthesizer = synthesizer or Synthesizer(effort="medium")
    if num_workers is None:
        num_workers = os.cpu_count() or 1
    num_workers = max(1, min(num_workers, len(entries))) if entries else 1

    jobs = [(entry, synthesizer, max_nodes, cache_dir) for entry in entries]
    if num_workers > 1:
        try:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=num_workers) as pool:
                results = list(pool.map(_synthesize_one_entry, jobs))
        except Exception:
            results = [_synthesize_one_entry(job) for job in jobs]
    else:
        results = [_synthesize_one_entry(job) for job in jobs]

    for entry, (record, seconds, _) in zip(entries, results):
        if record is not None:
            obs.add(f"datagen.design.{entry.name}", seconds)
    obs.count("datagen.workers", num_workers)
    if cache_dir is not None:
        hits = [hit for _, _, hit in results if hit is not None]
        obs.count("datagen.synth_cache.hits", sum(hits))
        obs.count("datagen.synth_cache.misses", len(hits) - sum(hits))
    return [record for record, _, _ in results if record is not None]

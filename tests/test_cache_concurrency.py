"""Thread-safety of the artifact store's persistent tier under concurrent
serve workers.

The serving tier points many worker threads (and, for datagen, many
processes) at one ``--cache-dir``.  These tests hammer one
:class:`repro.store.ArtifactStore` on the SQLite file a directory
``--cache-dir`` holds — its ``prediction`` kind, the ``graph``/``paths``
kinds through :class:`FrontendCache`, and the ``synth`` kind in the
dataset builder's payload format — and pin the two properties that
make that safe:

- **atomic publish**: every read returns either a miss or one writer's
  complete payload, never torn JSON, even with many threads writing the
  same key;
- **corruption tolerance**: a partially-written or garbage row reads as
  a miss and is healed by the next put.
"""

import dataclasses
import threading

from repro.designs import standard_designs
from repro.runtime import FrontendCache
from repro.runtime.frontend import fingerprint_frontend_module
from repro.runtime.parallel import _synthesize_one_entry
from repro.store import ArtifactStore, open_backend
from repro.synth import SynthesisResult, Synthesizer, synthesis_cache_key


def dir_store(root, **kwargs):
    return ArtifactStore(backend=open_backend(root), **kwargs)


def _hammer(num_threads, fn):
    """Run ``fn(thread_index)`` on many threads; re-raise any failure."""
    errors = []
    barrier = threading.Barrier(num_threads)

    def run(i):
        barrier.wait()
        try:
            fn(i)
        except BaseException as exc:  # noqa: BLE001 — surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,))
               for i in range(num_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


class TestPredictionKindConcurrency:
    def test_same_key_many_writers(self, tmp_path):
        """Concurrent writers of one key publish atomically."""
        store = dir_store(tmp_path)
        payload = {"timing_ps": 1.5, "blob": "x" * 4096}

        def work(i):
            for round_ in range(40):
                store.put("prediction", "sharedkey", payload)
                got = store.get("prediction", "sharedkey")
                assert got == payload

        _hammer(8, work)
        # Exactly one published row, holding the payload.
        [entry] = store.backend.entries()
        assert (entry.kind, entry.key) == ("prediction", "sharedkey")
        assert dir_store(tmp_path).get("prediction", "sharedkey") == payload

    def test_distinct_keys_cross_readers(self, tmp_path):
        """Each thread writes its keys while reading everyone else's."""
        store = dir_store(tmp_path, max_entries=8)

        def payload_for(key):
            return {"key": key, "pad": key * 50}

        def work(i):
            for round_ in range(30):
                mine = f"key-{i}-{round_}"
                store.put("prediction", mine, payload_for(mine))
                for j in range(8):
                    other = f"key-{j}-{round_}"
                    got = store.get("prediction", other)
                    assert got is None or got == payload_for(other)

        _hammer(8, work)
        stats = store.counters(("prediction",))
        assert stats["memory_hits"] + stats["persistent_hits"] > 0

    def test_two_processes_one_dir(self, tmp_path):
        """A second store instance on the same dir sees published entries."""
        writer = dir_store(tmp_path)
        reader = dir_store(tmp_path)

        def work(i):
            for round_ in range(25):
                key = f"xk{i}-{round_}"
                writer.put("prediction", key, {"v": key})
                assert reader.get("prediction", key) == {"v": key}

        _hammer(6, work)

    def test_partial_entry_reads_as_miss_and_heals(self, tmp_path):
        """Torn/garbage rows tolerate: miss, then heal on put."""
        store = dir_store(tmp_path)
        store.put("prediction", "goodkey", {"v": 1})

        fresh = dir_store(tmp_path)                    # no memory tier copy
        fresh.backend._conn().execute(                 # torn mid-write
            "UPDATE artifacts SET value = ? WHERE key = ?",
            (b'{"v": 1', "goodkey"))
        assert fresh.get("prediction", "goodkey") is None
        assert fresh.counters(("prediction",))["misses"] == 1
        fresh.put("prediction", "goodkey", {"v": 2})
        assert dir_store(tmp_path).get("prediction", "goodkey") == {"v": 2}

    def test_partial_entry_heals_on_batched_read(self, tmp_path):
        """The same torn row, read and rewritten only through
        ``get_many``/``put_many`` (the route ``BatchPredictor`` takes)."""
        dir_store(tmp_path).put_many("prediction", {"goodkey": {"v": 1}})

        fresh = dir_store(tmp_path)
        fresh.backend._conn().execute(
            "UPDATE artifacts SET value = ? WHERE key = ?",
            (b'{"v": 1', "goodkey"))
        assert fresh.get_many("prediction", ["goodkey"]) == {}
        assert fresh.counters(("prediction",))["misses"] == 1
        fresh.put_many("prediction", {"goodkey": {"v": 2}})
        assert dir_store(tmp_path).get_many("prediction", ["goodkey"]) == \
            {"goodkey": {"v": 2}}


class TestFrontendCacheConcurrency:
    def test_graph_tier_hammer(self, tmp_path):
        """Many threads compile/read the same designs via one disk dir."""
        entries = [e for e in standard_designs()
                   if e.name in ("gpio16", "gpio32", "piecewise8")]
        compiled = {e.name: e.module.elaborate() for e in entries}
        keys = {name: fingerprint_frontend_module(entries[i].module)
                for i, name in enumerate(compiled)}
        cache = FrontendCache(dir_store(tmp_path))

        def work(i):
            for round_ in range(15):
                for name, cg in compiled.items():
                    if (i + round_) % 2:
                        cache.put_graph(keys[name], cg)
                    got = cache.get_graph(keys[name])
                    if got is not None:
                        assert got.fingerprint() == cg.fingerprint()

        _hammer(8, work)
        for name, cg in compiled.items():
            assert cache.get_graph(keys[name]).fingerprint() == cg.fingerprint()

    def test_path_tier_hammer(self, tmp_path):
        from repro.core import PathSampler

        entry = next(e for e in standard_designs() if e.name == "gpio16")
        cg = entry.module.elaborate()
        sampler = PathSampler(k=5, max_paths=20, seed=0)
        expected = sampler.sample(cg)
        cache = FrontendCache(dir_store(tmp_path))

        def work(i):
            for _ in range(10):
                assert cache.sample(cg, sampler) == expected

        _hammer(8, work)


class TestSynthKindConcurrency:
    def test_label_tier_hammer(self, tmp_path):
        entry = next(e for e in standard_designs() if e.name == "gpio16")
        graph = entry.module.elaborate()
        synth = Synthesizer(effort="low")
        result = synth.synthesize(graph)
        key = synthesis_cache_key(graph, synth.library, "low")
        store = dir_store(tmp_path)

        def work(i):
            for _ in range(20):
                store.put("synth", key, dataclasses.asdict(result))
                got = store.get("synth", key)
                if got is not None:
                    got = SynthesisResult(**got)
                    assert got.timing_ps == result.timing_ps
                    assert got.area_um2 == result.area_um2
                    assert got.power_mw == result.power_mw

        _hammer(8, work)
        # The dataset builder's worker replays the hammered entry.
        record, _, hit = _synthesize_one_entry(
            (entry, synth, None, tmp_path))
        assert hit is True
        assert record.timing_ps == result.timing_ps

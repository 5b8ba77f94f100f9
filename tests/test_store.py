"""Unit tests for the unified content-addressed artifact store.

Covers the pieces ``repro.store`` promises independently of its
callers: the SQLite backend's contract, where ``open_backend`` puts a
``--cache-dir``, write-once semantics, corruption tolerance with
put-side healing, the three-tier lookup path with per-kind/per-tier
stats, lazy payload encoding, gc sweeps, and the trained-model
registry round trip.
"""

import json

import pytest

from repro.store import (ArtifactStore, ModelStore, SQLiteBackend,
                         gc_backend, keys, open_backend)

KEY_A = "a" * 64
KEY_B = "b" * 64
KEY_C = "c" * 64


# ---------------------------------------------------------------------- #
class TestBackendParity:
    """The persistent backend's (kind, key) -> dict contract."""

    def test_put_get_roundtrip(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "store.sqlite")
        payload = {"x": 1, "nested": {"y": [1, 2, 3]}}
        assert backend.get("synth", KEY_A) is None
        backend.put("synth", KEY_A, payload)
        assert backend.get("synth", KEY_A) == payload
        assert backend.contains("synth", KEY_A)
        assert not backend.contains("synth", KEY_B)

    def test_kinds_are_disjoint_namespaces(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "store.sqlite")
        backend.put("graph", KEY_A, {"kind": "graph"})
        backend.put("paths", KEY_A, {"kind": "paths"})
        assert backend.get("graph", KEY_A) == {"kind": "graph"}
        assert backend.get("paths", KEY_A) == {"kind": "paths"}
        assert backend.get("synth", KEY_A) is None

    def test_get_many_put_many(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "store.sqlite")
        items = {f"{i:064x}": {"i": i} for i in range(950)}
        backend.put_many("prediction", items)
        asked = list(items) + [KEY_A, KEY_B]
        found = backend.get_many("prediction", asked)
        assert found == items  # misses silently absent

    def test_entries_and_delete(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "store.sqlite")
        backend.put("synth", KEY_A, {"v": 1})
        backend.put("prediction", KEY_B, {"v": 2})
        rows = {(e.kind, e.key): e for e in backend.entries()}
        assert set(rows) == {("synth", KEY_A), ("prediction", KEY_B)}
        assert all(e.size > 0 and e.created_at > 0 for e in rows.values())
        backend.delete("synth", KEY_A)
        assert backend.get("synth", KEY_A) is None
        assert backend.get("prediction", KEY_B) == {"v": 2}

    def test_clear(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "store.sqlite")
        backend.put("synth", KEY_A, {"v": 1})
        backend.put("graph", KEY_B, {"v": 2})
        backend.clear()
        assert list(backend.entries()) == []
        assert backend.get("synth", KEY_A) is None


class TestWriteOnce:
    def test_sqlite_first_writer_wins(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "s.sqlite")
        backend.put("synth", KEY_A, {"v": "first"})
        backend.put("synth", KEY_A, {"v": "second"})
        assert backend.get("synth", KEY_A) == {"v": "first"}

    def test_sqlite_replace_overrides(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "s.sqlite")
        backend.put("model-alias", KEY_A, {"model_fp": "one"})
        backend.put("model-alias", KEY_A, {"model_fp": "two"}, replace=True)
        assert backend.get("model-alias", KEY_A) == {"model_fp": "two"}


class TestCorruptionTolerance:
    def test_sqlite_non_dict_row_reads_as_miss(self, tmp_path):
        # Valid JSON that is not an object is no payload: a miss, alone
        # and in a batch.
        backend = SQLiteBackend(tmp_path / "s.sqlite")
        backend.put("synth", KEY_B, {"v": 2})
        backend._conn().execute(
            "INSERT INTO artifacts VALUES (?, ?, ?, ?, ?)",
            ("synth", KEY_A, b"[1, 2, 3]", 9, 0.0))
        assert backend.get_many("synth", [KEY_A, KEY_B]) == {KEY_B: {"v": 2}}
        assert backend.get("synth", KEY_A) is None

    def test_sqlite_corrupt_row_deleted_then_healed(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "s.sqlite")
        conn = backend._conn()
        conn.execute(
            "INSERT INTO artifacts (kind, key, value, size, created_at) "
            "VALUES (?, ?, ?, ?, ?)",
            ("synth", KEY_A, b"\x00\xffnot json", 10, 0.0))
        assert backend.get("synth", KEY_A) is None
        # The corrupt row was deleted, so write-once INSERT OR IGNORE
        # accepts the healing put.
        backend.put("synth", KEY_A, {"v": "healed"})
        assert backend.get("synth", KEY_A) == {"v": "healed"}

    def test_sqlite_corrupt_row_deleted_by_batched_read(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "s.sqlite")
        backend.put("synth", KEY_B, {"v": 2})
        backend._conn().execute(
            "INSERT INTO artifacts (kind, key, value, size, created_at) "
            "VALUES (?, ?, ?, ?, ?)",
            ("synth", KEY_A, b"\x00\xffnot json", 10, 0.0))
        assert backend.get_many("synth", [KEY_A, KEY_B]) == {KEY_B: {"v": 2}}
        assert not backend.contains("synth", KEY_A)
        assert backend.contains("synth", KEY_B)

    def test_sqlite_garbage_file_reads_as_miss(self, tmp_path):
        path = tmp_path / "broken.sqlite"
        path.write_bytes(b"definitely not a database" * 100)
        backend = SQLiteBackend(path)
        assert backend.get("synth", KEY_A) is None
        assert backend.get_many("synth", [KEY_A, KEY_B]) == {}
        assert list(backend.entries()) == []


class TestOpenBackend:
    def test_suffix_dispatch(self, tmp_path):
        for name in ("x.sqlite", "x.sqlite3", "x.db"):
            assert open_backend(tmp_path / name).path == tmp_path / name
            assert (tmp_path / name).is_file()
        # Any other path, new or existing, is a directory holding the file.
        for root in (tmp_path / "plain", tmp_path):
            assert open_backend(root).path == root / "store.sqlite"
            assert (root / "store.sqlite").is_file()

    def test_existing_file_is_sqlite(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "noext")
        backend.put("synth", KEY_A, {"v": 1})
        backend.close()
        reopened = open_backend(tmp_path / "noext")
        assert isinstance(reopened, SQLiteBackend)
        assert reopened.get("synth", KEY_A) == {"v": 1}


# ---------------------------------------------------------------------- #
class TestArtifactStoreTiers:
    def test_memory_tier_hit(self, tmp_path):
        store = ArtifactStore()
        store.put("synth", KEY_A, {"v": 1})
        assert store.get("synth", KEY_A) == {"v": 1}
        counters = store.counters()
        assert counters["memory_hits"] == 1
        assert counters["misses"] == 0

    def test_persistent_promotion(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "s.sqlite")
        warm = ArtifactStore(backend=backend)
        warm.put("synth", KEY_A, {"v": 1})
        cold = ArtifactStore(backend=backend)
        assert cold.get("synth", KEY_A) == {"v": 1}
        assert cold.counters()["persistent_hits"] == 1
        # Promoted into the memory tier: second read never hits disk.
        assert cold.get("synth", KEY_A) == {"v": 1}
        assert cold.counters()["memory_hits"] == 1

    def test_lru_eviction(self):
        store = ArtifactStore(max_entries=2)
        store.put("synth", KEY_A, {"v": 1})
        store.put("synth", KEY_B, {"v": 2})
        store.get("synth", KEY_A)                  # A is now most recent
        store.put("synth", KEY_C, {"v": 3})        # evicts B
        assert store.get("synth", KEY_B) is None
        assert store.get("synth", KEY_A) == {"v": 1}
        assert store.memory_len("synth") == 2

    def test_per_kind_stats_isolated(self):
        store = ArtifactStore()
        store.put("graph", KEY_A, {"v": 1})
        store.get("graph", KEY_A)
        store.get("prediction", KEY_B)             # miss, other kind
        assert store.counters(("graph",))["memory_hits"] == 1
        assert store.counters(("graph",))["misses"] == 0
        assert store.counters(("prediction",))["misses"] == 1

    def test_stats_aggregation(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "s.sqlite")
        ArtifactStore(backend=backend).put("synth", KEY_A, {"v": 1})
        store = ArtifactStore(backend=backend)
        store.get("synth", KEY_A)                  # persistent hit
        store.get("synth", KEY_A)                  # memory hit
        store.get("synth", KEY_B)                  # miss
        stats = store.stats()
        assert stats["backend"] == "sqlite"
        assert stats["tiers"]["memory"]["hits"] == 1
        assert stats["tiers"]["persistent"]["hits"] == 1
        assert stats["misses"] == 1
        assert stats["hit_rate"] == pytest.approx(2 / 3)
        assert stats["tiers"]["memory"]["hit_rate"] == pytest.approx(1 / 3)
        assert stats["kinds"]["synth"]["persistent_hits"] == 1

    def test_get_many_mixed_tiers(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "s.sqlite")
        ArtifactStore(backend=backend).put_many(
            "prediction", {KEY_A: {"v": 1}, KEY_B: {"v": 2}})
        store = ArtifactStore(backend=backend)
        store.put("prediction", KEY_C, {"v": 3})
        found = store.get_many("prediction", [KEY_A, KEY_B, KEY_C, "d" * 64])
        assert found == {KEY_A: {"v": 1}, KEY_B: {"v": 2}, KEY_C: {"v": 3}}
        counters = store.counters()
        assert counters["memory_hits"] == 1
        assert counters["persistent_hits"] == 2
        assert counters["misses"] == 1

    def test_get_many_counts_like_a_get_loop(self, tmp_path):
        """Repeated keys (a batch holding one design twice) count per
        occurrence, exactly as one ``get`` per key would."""
        backend = SQLiteBackend(tmp_path / "s.sqlite")
        ArtifactStore(backend=backend).put("prediction", KEY_A, {"v": 1})
        asked = [KEY_A, KEY_B, KEY_A, KEY_C, KEY_B, KEY_A]
        looped = ArtifactStore(backend=backend)
        looped.put("prediction", KEY_C, {"v": 3})
        for key in asked:
            looped.get("prediction", key)
        batched = ArtifactStore(backend=backend)
        batched.put("prediction", KEY_C, {"v": 3})
        found = batched.get_many("prediction", asked)
        assert found == {KEY_A: {"v": 1}, KEY_C: {"v": 3}}
        assert batched.counters() == looped.counters()
        assert batched.counters()["persistent_hits"] == 1
        assert batched.counters()["misses"] == 2


class TestObjectTier:
    def test_object_hit_skips_decode(self):
        store = ArtifactStore()
        sentinel = object()
        store.put_object("graph", KEY_A, sentinel)
        decoded = store.get_object(
            "graph", KEY_A,
            decode=lambda payload: pytest.fail("decode on object hit"))
        assert decoded is sentinel
        assert store.counters()["object_hits"] == 1

    def test_lazy_encode_skipped_without_backend(self):
        store = ArtifactStore()
        calls = []
        store.put_object("graph", KEY_A, object(),
                         encode=lambda: calls.append(1) or {"v": 1})
        assert calls == []  # the PR-10 fix: no wasted serialization

    def test_encode_runs_once_with_backend(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "s.sqlite")
        store = ArtifactStore(backend=backend)
        calls = []
        store.put_object("graph", KEY_A, object(),
                         encode=lambda: calls.append(1) or {"v": 7})
        assert calls == [1]
        assert backend.get("graph", KEY_A) == {"v": 7}

    def test_persistent_decode_and_promote(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "s.sqlite")
        ArtifactStore(backend=backend).put("graph", KEY_A, {"v": 9})
        store = ArtifactStore(backend=backend)
        obj = store.get_object("graph", KEY_A,
                               decode=lambda payload: ("decoded", payload))
        assert obj == ("decoded", {"v": 9})
        again = store.get_object(
            "graph", KEY_A,
            decode=lambda payload: pytest.fail("decode on warm hit"))
        assert again is obj


# ---------------------------------------------------------------------- #
class TestGC:
    def test_age_bound(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "s.sqlite")
        backend.put("synth", KEY_A, {"v": 1})
        report = gc_backend(backend, max_age_s=3600.0)
        assert report["deleted"] == 0
        report = gc_backend(backend, max_age_s=0.0,
                            now=__import__("time").time() + 10)
        assert report["deleted"] == 1
        assert backend.get("synth", KEY_A) is None

    def test_size_bound_evicts_oldest_first(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "s.sqlite")
        conn = backend._conn()
        for i, key in enumerate((KEY_A, KEY_B, KEY_C)):
            blob = json.dumps({"pad": "x" * 100}).encode()
            conn.execute(
                "INSERT INTO artifacts VALUES (?, ?, ?, ?, ?)",
                ("synth", key, blob, len(blob), float(i)))
        sizes = [e.size for e in backend.entries()]
        report = gc_backend(backend, max_bytes=sizes[0] * 2)
        assert report["deleted"] == 1
        assert backend.get("synth", KEY_A) is None   # oldest went first
        assert backend.get("synth", KEY_C) is not None

    def test_dry_run_deletes_nothing(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "s.sqlite")
        backend.put("synth", KEY_A, {"v": 1})
        report = gc_backend(backend, max_bytes=0, dry_run=True)
        assert report["deleted"] == 1 and report["dry_run"]
        assert backend.get("synth", KEY_A) == {"v": 1}


# ---------------------------------------------------------------------- #
class TestKeySchema:
    def test_layouts_match_legacy_bytes(self):
        # Frozen expectations: these are the exact digests the PR 1-9
        # key functions produced; changing them would orphan every
        # on-disk cache entry in the field.
        import hashlib

        h = hashlib.sha256(b"frontend-paths:v1")
        h.update(b"gfp")
        h.update(b"sfp")
        assert keys.paths_key("gfp", "sfp") == h.hexdigest()

        h = hashlib.sha256(b"synth:v1")
        for part in ("gfp", "lfp", "high", "afp"):
            h.update(part.encode())
            h.update(b"|")
        assert keys.synth_key("gfp", "lfp", "high", "afp") == h.hexdigest()

        h = hashlib.sha256()
        for part in ("gfp", "mfp", "sfp", "none"):
            h.update(part.encode())
            h.update(b"|")
        assert keys.prediction_key("gfp", "mfp", "sfp") == h.hexdigest()

    def test_training_request_key_is_order_insensitive(self):
        a = keys.training_request_key({"designs": ["x"], "seed": 0})
        b = keys.training_request_key({"seed": 0, "designs": ["x"]})
        assert a == b
        assert a != keys.training_request_key({"designs": ["x"], "seed": 1})


# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def fitted_sns():
    from repro.core import SNS, CircuitformerConfig, PathSampler, TrainingConfig
    from repro.datagen import build_design_dataset
    from repro.designs import standard_designs
    from repro.synth import Synthesizer

    synth = Synthesizer(effort="low")
    entries = [e for e in standard_designs() if e.name in ("gpio16",
                                                           "piecewise8")]
    records = build_design_dataset(entries, synth)
    sns = SNS(sampler=PathSampler(k=5, max_paths=30, seed=0),
              circuitformer_config=CircuitformerConfig(
                  embedding_size=16, dim_feedforward=32, max_input_size=64),
              training_config=TrainingConfig(circuitformer_epochs=1,
                                             aggregator_epochs=10),
              num_aggregators=1)
    sns.fit(records, synthesizer=synth)
    return sns


class TestModelStore:
    def test_roundtrip_across_restart(self, fitted_sns, tmp_path):
        from repro.runtime import fingerprint_model

        backend = SQLiteBackend(tmp_path / "models.sqlite")
        models = ModelStore(ArtifactStore(backend=backend))
        training_fp = keys.training_request_key({"designs": ["gpio16"],
                                                 "seed": 0})
        model_fp = models.save(fitted_sns, name="tiny",
                               training_fp=training_fp)
        assert model_fp == fingerprint_model(fitted_sns)

        # A fresh store over the same backend — a restarted server.
        reborn = ModelStore(ArtifactStore(backend=backend))
        assert reborn.resolve_alias("tiny") == model_fp
        assert reborn.resolve_training(training_fp) == model_fp
        assert reborn.find("tiny") == model_fp
        assert reborn.find(model_fp[:12]) == model_fp
        assert reborn.fingerprints() == [model_fp]

        loaded = reborn.load(model_fp)
        assert fingerprint_model(loaded) == model_fp

    def test_alias_is_mutable(self, fitted_sns, tmp_path):
        models = ModelStore(ArtifactStore(
            backend=SQLiteBackend(tmp_path / "s.sqlite")))
        fp = models.save(fitted_sns, name="prod")
        # Re-pointing the alias is a replace put, not write-once.
        models.store.put("model-alias", keys.alias_key("prod"),
                         {"name": "prod", "model_fp": "f" * 64},
                         replace=True)
        assert models.resolve_alias("prod") == "f" * 64
        assert models.find(fp) == fp

    def test_find_misses_and_ambiguity(self, tmp_path):
        models = ModelStore(ArtifactStore())
        assert models.find("nothing") is None
        assert models.find("short") is None
        models.store.put("model", "abcd" * 16, {"format": "x"})
        models.store.put("model", "abcd" * 15 + "ffff", {"format": "x"})
        with pytest.raises(KeyError):
            models.find("abcdabcd")

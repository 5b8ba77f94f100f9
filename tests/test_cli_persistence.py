"""Tests for SNS model persistence and the command-line interface."""

import json
import re

import numpy as np
import pytest

from repro import obs
from repro.cli import main
from repro.core import (
    SNS,
    CircuitformerConfig,
    PathSampler,
    TrainingConfig,
    load_sns,
    save_sns,
)
from repro.datagen import build_design_dataset
from repro.designs import standard_designs
from repro.store import open_backend
from repro.synth import Synthesizer

TINY_CF = CircuitformerConfig(embedding_size=16, dim_feedforward=32, max_input_size=64)

MAC_V = """
module mac(input clk, input [7:0] a, input [7:0] b, output [15:0] y);
  reg [15:0] acc;
  always @(posedge clk) acc <= acc + a * b;
  assign y = acc;
endmodule
"""


@pytest.fixture(scope="module")
def tiny_sns():
    synth = Synthesizer(effort="low")
    entries = [e for e in standard_designs()
               if e.name in ("gpio16", "piecewise8", "mergesort8", "sodor32",
                             "icenet64", "conv3x3")]
    records = build_design_dataset(entries, synth)
    sns = SNS(sampler=PathSampler(k=5, max_paths=40, seed=0),
              circuitformer_config=TINY_CF,
              training_config=TrainingConfig(circuitformer_epochs=4,
                                             aggregator_epochs=60))
    sns.fit(records, synthesizer=synth)
    return sns, records


class TestPersistence:
    def test_save_load_roundtrip(self, tiny_sns, tmp_path):
        sns, records = tiny_sns
        path = tmp_path / "model.npz"
        save_sns(sns, path)
        loaded = load_sns(path)
        for record in records[:3]:
            a = sns.predict(record.graph)
            b = loaded.predict(record.graph)
            assert a.timing_ps == pytest.approx(b.timing_ps)
            assert a.area_um2 == pytest.approx(b.area_um2)
            assert a.power_mw == pytest.approx(b.power_mw)

    def test_loaded_sampler_config(self, tiny_sns, tmp_path):
        sns, _ = tiny_sns
        path = tmp_path / "model.npz"
        save_sns(sns, path)
        loaded = load_sns(path)
        assert loaded.sampler.k == sns.sampler.k
        assert loaded.sampler.max_paths == sns.sampler.max_paths

    def test_refuses_unfitted(self, tmp_path):
        sns = SNS(circuitformer_config=TINY_CF)
        with pytest.raises(ValueError):
            save_sns(sns, tmp_path / "nope.npz")


class TestCLI:
    def test_synth_command(self, tmp_path, capsys):
        design = tmp_path / "mac.v"
        design.write_text(MAC_V)
        assert main(["synth", str(design), "--effort", "low"]) == 0
        out = capsys.readouterr().out
        assert "timing:" in out and "area:" in out and "power:" in out

    def test_paths_command(self, tmp_path, capsys):
        design = tmp_path / "mac.v"
        design.write_text(MAC_V)
        assert main(["paths", str(design), "-k", "1"]) == 0
        out = capsys.readouterr().out
        assert "mul16" in out

    def test_predict_command(self, tiny_sns, tmp_path, capsys):
        sns, _ = tiny_sns
        model = tmp_path / "model.npz"
        save_sns(sns, model)
        design = tmp_path / "mac.v"
        design.write_text(MAC_V)
        assert main(["predict", str(model), str(design)]) == 0
        out = capsys.readouterr().out
        assert "critical path:" in out

    def test_predict_many_files_with_cache_dir(self, tiny_sns, tmp_path, capsys):
        sns, _ = tiny_sns
        model = tmp_path / "model.npz"
        save_sns(sns, model)
        designs = []
        for i in range(2):
            design = tmp_path / f"mac{i}.v"
            design.write_text(MAC_V)
            designs.append(str(design))
        cache_dir = tmp_path / "cache"
        assert main(["predict", str(model), *designs,
                     "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert out.count("timing:") == 2
        assert "misses" in out
        # Second invocation builds a fresh process-level cache but hits disk.
        assert main(["predict", str(model), *designs,
                     "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "1 disk hits" in out  # identical files share one entry

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


@pytest.fixture(scope="module")
def model_path(tiny_sns, tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "model.npz"
    save_sns(tiny_sns[0], path)
    return str(path)


def store_kinds(path, capsys) -> dict[str, int]:
    """Entries per kind, as ``repro cache stats PATH --json`` lists them."""
    capsys.readouterr()
    assert main(["cache", "stats", str(path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    return {kind: row["entries"] for kind, row in doc["kinds"].items()}


class TestOneStore:
    """Every ``--cache-dir`` opens the same store, so the verbs, the
    dataset builder and the serve registry see each other's entries."""

    @pytest.fixture()
    def design(self, tmp_path):
        path = tmp_path / "mac.v"
        path.write_text(MAC_V)
        return str(path)

    def test_predict_twice_into_a_sqlite_store(self, model_path, design,
                                               tmp_path, capsys):
        store = tmp_path / "shared.sqlite"
        open_backend(store).close()      # as a serve worker creates it
        for expected in ("0 disk hits", "1 disk hits"):
            assert main(["predict", model_path, design,
                         "--cache-dir", str(store)]) == 0
            assert expected in capsys.readouterr().out
        assert store.is_file()

    def test_cache_stats_and_gc_see_predict_and_compile(
            self, model_path, design, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(["predict", model_path, design,
                     "--cache-dir", str(store)]) == 0
        assert store_kinds(store, capsys) == {"prediction": 1}
        assert main(["compile", design, "--cache-dir", str(store)]) == 0
        assert store_kinds(store, capsys) == {"prediction": 1, "graph": 1}
        assert main(["cache", "gc", str(store), "--max-bytes", "0"]) == 0
        assert "deleted: 2 entries" in capsys.readouterr().out
        assert store_kinds(store, capsys) == {}

    def test_dataset_labels_share_the_predict_store(
            self, model_path, design, tmp_path, capsys, monkeypatch):
        from repro.runtime import parallel

        store = str(tmp_path / "shared.sqlite")
        assert main(["predict", model_path, design, "--cache-dir", store]) == 0
        entries = [e for e in standard_designs()
                   if e.name in ("gpio16", "piecewise8")]
        synth = Synthesizer(effort="low")
        cold = build_design_dataset(entries, synth, cache_dir=store)
        assert store_kinds(store, capsys) == {"prediction": 1, "synth": 2}
        # Read the file back, not this process's in-memory copy.
        monkeypatch.setattr(parallel, "_SYNTH_CACHES", {})
        with obs.record() as recorder:
            warm = build_design_dataset(entries, synth, cache_dir=store)
        assert (recorder.counters["datagen.synth_cache.hits"],
                recorder.counters["datagen.synth_cache.misses"]) == (2, 0)
        assert [r.labels.tolist() for r in warm] == \
            [r.labels.tolist() for r in cold]

    def test_serve_registry_sees_predict_entries(self, model_path, design,
                                                 tmp_path):
        from repro.serve import ModelRegistry
        from repro.verilog import elaborate_source

        store = tmp_path / "store"
        assert main(["predict", model_path, design,
                     "--cache-dir", str(store)]) == 0
        registry = ModelRegistry(cache_dir=str(store))
        assert len(registry.store.keys("prediction")) == 1
        served = registry.load(model_path)
        served.predictor.predict_batch([elaborate_source(MAC_V)])
        counters = registry.store.counters(("prediction",))
        assert (counters["persistent_hits"], counters["misses"]) == (1, 0)

    # A directory --cache-dir is the SQLite file DIR/store.sqlite: every
    # reader of the directory sees what was written to the file, and a
    # directory in the older <kind>/<xx>/<key>.json layout is neither
    # read nor modified.
    def test_predict_writes_only_store_sqlite(self, model_path, design,
                                              tmp_path, capsys):
        store = tmp_path / "store"
        assert main(["predict", model_path, design,
                     "--cache-dir", str(store)]) == 0
        assert [p.name for p in store.iterdir()] == ["store.sqlite"]
        assert store_kinds(store / "store.sqlite", capsys) == \
            {"prediction": 1}

    def test_directory_readers_hit_the_file(self, model_path, design,
                                            tmp_path, capsys, monkeypatch):
        from repro.runtime import parallel
        from repro.serve import ModelRegistry
        from repro.verilog import elaborate_source

        store = tmp_path / "store"
        store_file = str(store / "store.sqlite")
        assert main(["predict", model_path, design,
                     "--cache-dir", store_file]) == 0
        entries = [e for e in standard_designs()
                   if e.name in ("gpio16", "piecewise8")]
        synth = Synthesizer(effort="low")
        cold = build_design_dataset(entries, synth, cache_dir=store_file)
        assert store_kinds(store, capsys) == {"prediction": 1, "synth": 2}

        monkeypatch.setattr(parallel, "_SYNTH_CACHES", {})
        with obs.record() as recorder:
            warm = build_design_dataset(entries, synth, cache_dir=store)
        assert (recorder.counters["datagen.synth_cache.hits"],
                recorder.counters["datagen.synth_cache.misses"]) == (2, 0)
        assert [r.labels.tolist() for r in warm] == \
            [r.labels.tolist() for r in cold]

        registry = ModelRegistry(cache_dir=str(store))
        served = registry.load(model_path)
        served.predictor.predict_batch([elaborate_source(MAC_V)])
        counters = registry.store.counters(("prediction",))
        assert (counters["persistent_hits"], counters["misses"]) == (1, 0)

    def test_old_layout_is_neither_read_nor_modified(
            self, model_path, design, tmp_path, capsys):
        # The old layout holds this design's prediction under its real
        # key, with a poisoned timing that a read would print.
        reference = tmp_path / "reference.sqlite"
        assert main(["predict", model_path, design,
                     "--cache-dir", str(reference)]) == 0
        expected = capsys.readouterr().out.splitlines()[1]
        [entry] = open_backend(reference).entries()
        payload = open_backend(reference).get(entry.kind, entry.key)
        old = tmp_path / "old"
        legacy = old / "prediction" / entry.key[:2] / f"{entry.key}.json"
        legacy.parent.mkdir(parents=True)
        legacy.write_text(json.dumps({**payload, "timing_ps": 1.0}))
        before = legacy.stat()

        assert main(["predict", model_path, design,
                     "--cache-dir", str(old)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1] == expected
        assert "0 disk hits, 1 misses" in out
        assert json.loads(legacy.read_text())["timing_ps"] == 1.0
        assert (legacy.stat().st_mtime_ns, legacy.stat().st_size) == \
            (before.st_mtime_ns, before.st_size)
        assert sorted(p.name for p in old.iterdir()) == \
            ["prediction", "store.sqlite"]


class TestCLIReportExport:
    def test_report_command(self, tmp_path, capsys):
        design = tmp_path / "mac.v"
        design.write_text(MAC_V)
        assert main(["report", str(design)]) == 0
        out = capsys.readouterr().out
        assert "-- timing" in out and "-- area --" in out and "-- power --" in out

    def test_export_list(self, capsys):
        assert main(["export", "--list"]) == 0
        out = capsys.readouterr().out
        assert "lut128x8" in out and "stencil16" in out
        assert len(out.strip().splitlines()) == 41

    def test_export_roundtrips_through_frontend(self, tmp_path, capsys):
        out_file = tmp_path / "gpio.v"
        assert main(["export", "gpio16", str(out_file)]) == 0
        from repro.designs import get_design
        from repro.verilog import elaborate_source
        rebuilt = elaborate_source(out_file.read_text())
        original = get_design("gpio16").module.elaborate()
        strip_io = lambda c: {t: n for t, n in c.items() if not t.startswith("io")}
        assert strip_io(rebuilt.token_counts()) == strip_io(original.token_counts())

    def test_export_missing_args(self, capsys):
        assert main(["export"]) == 2

    def test_export_unknown_design(self, capsys):
        assert main(["export", "warp-core", "/tmp/x.v"]) == 2
        assert "export --list" in capsys.readouterr().err


class TestProfile:
    """``--profile`` on ``train``, ``datagen``, ``compile`` and ``dse``
    prints one format: the span tree and counters of a
    :class:`repro.obs.Recorder`."""

    @staticmethod
    def counter(out: str, name: str) -> int:
        match = re.search(rf"^{re.escape(name)} +(\d+)$", out, re.M)
        assert match, f"no counter {name} in:\n{out}"
        return int(match.group(1))

    def test_compile_miss_then_warm_hit(self, tmp_path, capsys):
        design = tmp_path / "mac.v"
        design.write_text(MAC_V)
        args = ["compile", str(design), "--cache-dir", str(tmp_path / "c"),
                "--sample", "--profile"]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert main(args) == 0
        warm = capsys.readouterr().out
        for name in ("verilog.lex", "verilog.parse", "verilog.elaborate"):
            assert re.search(rf"^{name} +1 ", cold, re.M), cold
            assert name not in warm
        for out in (cold, warm):
            assert re.search(r"^frontend\.graph_lookup +1 ", out, re.M)
            assert re.search(r"^frontend\.paths +1 ", out, re.M)
        assert "frontend.graph_hits" not in cold
        assert self.counter(warm, "frontend.graph_hits") == 1

    def test_datagen(self, tmp_path, capsys):
        args = ["datagen", "--effort", "low", "--max-nodes", "300",
                "--cache-dir", str(tmp_path / "c"), "--profile"]
        assert main(args) == 0
        cold = capsys.readouterr().out
        designs = int(re.search(r"^\[(\d+) designs in [\d.]+s\]$", cold,
                                re.M).group(1))
        assert designs > 2
        assert re.search(r"^datagen\.build +1 ", cold, re.M)
        assert re.search(r"^  datagen\.design\.gpio16 +1 ", cold, re.M)
        assert self.counter(cold, "datagen.workers") == 1
        assert self.counter(cold, "datagen.synth_cache.misses") == designs
        assert self.counter(cold, "datagen.synth_cache.hits") == 0
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert self.counter(warm, "datagen.synth_cache.hits") == designs
        assert self.counter(warm, "datagen.synth_cache.misses") == 0

    def test_train(self, tmp_path, capsys, monkeypatch):
        import repro.experiments as experiments

        monkeypatch.setattr(experiments, "FAST", experiments.ExperimentSettings(
            name="tiny", synth_effort="low", sampler_max_paths=20,
            sampler_k=5, circuitformer=TINY_CF,
            training=TrainingConfig(circuitformer_epochs=2,
                                    aggregator_epochs=4),
            augmentation=None, max_design_nodes=400))
        assert main(["train", str(tmp_path / "m.npz"), "--profile"]) == 0
        out = capsys.readouterr().out
        assert re.search(r"^trainer\.circuitformer +1 ", out, re.M)
        assert re.search(r"^trainer\.aggregator +3 ", out, re.M)
        for phase in ("prepare", "forward", "backward", "optimizer",
                      "validation"):
            assert re.search(rf"^  trainer\.{phase} ", out, re.M), out
        assert self.counter(out, "trainer.circuitformer.epochs") == 2
        assert self.counter(out, "trainer.aggregator.epochs") == 3 * 4
        for name in ("trainer.circuitformer.steps", "trainer.aggregator.steps",
                     "trainer.pool.hits"):
            self.counter(out, name)
        assert re.search(r"^trainer\.bucket_rows\.\d+ +\d+$", out, re.M)

    def test_dse(self, model_path, tmp_path, capsys):
        output = tmp_path / "dse.json"
        assert main(["dse", model_path, "--budget", "400", "--fidelity",
                     "0.25", "--chunk", "16", "--synth-finalists", "1",
                     "--profile", "--output", str(output)]) == 0
        out = capsys.readouterr().out
        assert re.search(r"^explored: 100 configurations in [\d.]+s "
                         r"\(\d+ configs/sec\)$", out, re.M)
        assert re.search(r"^dse\.explore +1 ", out, re.M)
        for name in ("evaluate", "screen", "refit", "synth"):
            assert re.search(rf"^  dse\.{name} ", out, re.M), out
        refits = self.counter(out, "dse.refits")
        doc = json.loads(output.read_text())
        assert doc["candidates"] >= 400
        assert doc["profile"]["counters"] == {"dse.refits": refits}
        explore = doc["profile"]["spans"]["dse.explore"]
        assert set(explore["children"]) >= {"dse.evaluate", "dse.screen",
                                            "dse.refit", "dse.synth"}

"""Every CLI verb reports a bad input or output path in one line, exit 2.

``synth``, ``report``, ``paths``, ``compile`` and ``predict`` print one
``repro: error: ...`` line naming the file (and the line, where the
front end knows it) instead of a traceback, for a missing or unreadable
file and for Verilog that fails to preprocess, parse or elaborate.
``serve`` and ``dse`` do the same for their model file, and ``predict``,
``dse`` and ``serve`` for a model file ``save_sns`` did not write
(before any prediction, sweep or bind), ``export`` for
an unknown design name, ``train``/``datagen``/``export`` for an output
directory that does not exist (before any work), ``cache stats|gc``
for a store path that does not exist (without creating it), and
``predict``/``compile``/``datagen``/``serve`` for a ``--cache-dir`` no
store can live at (before any work or bind).
"""

import os
import subprocess
import sys

import pytest

from repro.cli import main

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

BAD_SOURCES = {
    "syntax": ("module m;\n@@@\nendmodule\n", "at line 2"),
    "preprocessor": ("`ifdef A\nmodule m; endmodule\n", "unterminated `ifdef"),
    "elaboration": ("module u(output [7:0] y);\n  assign y = ghost + 1;\n"
                    "endmodule\n", "undefined"),
}
KINDS = ["missing", "unreadable", *BAD_SOURCES]
VERBS = ["synth", "report", "paths", "compile", "predict"]


def bad_input(tmp_path, kind):
    """``(path, text the error line must contain)`` for one failure kind."""
    path = tmp_path / f"{kind}.v"
    if kind == "missing":
        return path, "No such file or directory"
    if kind == "unreadable":
        path.mkdir()
        return path, "Is a directory"
    text, expected = BAD_SOURCES[kind]
    path.write_text(text)
    return path, expected


def argv(verb, design, tmp_path):
    if verb == "predict":  # designs are read before the model is loaded
        return [verb, str(tmp_path / "model.npz"), str(design)]
    return [verb, str(design)]


def assert_one_error_line(stderr, path, expected):
    lines = stderr.splitlines()
    assert len(lines) == 1, stderr
    assert lines[0].startswith("repro: error: ") and str(path) in lines[0]
    assert expected in lines[0]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("verb", VERBS)
def test_bad_input(verb, kind, tmp_path, capsys):
    path, expected = bad_input(tmp_path, kind)
    assert main(argv(verb, path, tmp_path)) == 2
    assert_one_error_line(capsys.readouterr().err, path, expected)


def test_predict_missing_model(tmp_path, capsys):
    design = tmp_path / "mac.v"
    design.write_text("module mac(input clk, input [7:0] a, output [7:0] y);\n"
                      "  reg [7:0] r;\n  always @(posedge clk) r <= r + a;\n"
                      "  assign y = r;\nendmodule\n")
    model = tmp_path / "model.npz"
    assert main(["predict", str(model), str(design)]) == 2
    assert_one_error_line(capsys.readouterr().err, model,
                          "No such file or directory")


@pytest.mark.parametrize("kind, verb", list(zip(KINDS, VERBS)))
def test_subprocess_exit_status(kind, verb, tmp_path):
    path, expected = bad_input(tmp_path, kind)
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *argv(verb, path, tmp_path)],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert_one_error_line(proc.stderr, path, expected)


@pytest.mark.parametrize("kind", ["missing", "unreadable"])
@pytest.mark.parametrize("verb", ["serve", "dse"])
def test_bad_model(verb, kind, tmp_path, capsys):
    path, expected = bad_input(tmp_path, kind)
    assert main([verb, str(path)]) == 2
    assert_one_error_line(capsys.readouterr().err, path, expected)


def test_export_unknown_name(tmp_path, capsys):
    out = tmp_path / "out.v"
    assert main(["export", "no_such_design", str(out)]) == 2
    assert_one_error_line(capsys.readouterr().err, "no_such_design",
                          "export --list")
    assert not out.exists()


@pytest.mark.parametrize("args", [["train"], ["datagen"], ["export", "gpio16"]])
def test_output_directory_missing(args, tmp_path, capsys, monkeypatch):
    import repro.datagen
    import repro.experiments

    def no_work(*_args, **_kwargs):
        raise AssertionError("work started before the output path was checked")

    monkeypatch.setattr(repro.experiments, "build_dataset", no_work)
    monkeypatch.setattr(repro.datagen, "build_design_dataset", no_work)
    out = tmp_path / "missing" / "out"
    assert main([*args, str(out)]) == 2
    assert_one_error_line(capsys.readouterr().err, out, "no directory")


@pytest.mark.parametrize("name", ["typo.sqlite", "typo-dir"])
@pytest.mark.parametrize("command", ["stats", "gc"])
def test_cache_missing_store(command, name, tmp_path, capsys):
    path = tmp_path / name
    assert main(["cache", command, str(path)]) == 2
    assert_one_error_line(capsys.readouterr().err, path, "no artifact store")
    assert not path.exists()


@pytest.mark.parametrize("verb", ["serve", "cache"])
def test_subprocess_other_verbs(verb, tmp_path):
    path = tmp_path / "missing.npz"
    args = ["cache", "stats", str(path)] if verb == "cache" else [verb, str(path)]
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert str(path) in proc.stderr


CACHE_VERBS = {
    "predict": ["predict", "model.npz", "mac.v"],
    "compile": ["compile", "mac.v"],
    "datagen": ["datagen"],
    "serve": ["serve", "model.npz"],
}


@pytest.mark.parametrize("case", ["not-sqlite", "under-file"])
@pytest.mark.parametrize("verb", list(CACHE_VERBS))
def test_unusable_cache_dir(verb, case, tmp_path, capsys, monkeypatch):
    import repro.cli
    import repro.datagen
    import repro.serve

    def no_work(*_args, **_kwargs):
        raise AssertionError("work started before --cache-dir was checked")

    monkeypatch.setattr(repro.cli, "_read_source", no_work)
    monkeypatch.setattr(repro.datagen, "build_design_dataset", no_work)
    monkeypatch.setattr(repro.serve, "PredictionServer", no_work)
    notes = tmp_path / "notes.txt"
    notes.write_text("not a database\n")
    path, expected = ((notes, "not a directory or a SQLite database")
                      if case == "not-sqlite"
                      else (notes / "cache", f"{notes} is not a directory"))
    args = [str(tmp_path / a) if a.endswith((".npz", ".v")) else a
            for a in CACHE_VERBS[verb]]
    assert main([*args, "--cache-dir", str(path)]) == 2
    assert_one_error_line(capsys.readouterr().err, path, expected)


def test_compile_bad_literal(tmp_path, capsys):
    design = tmp_path / "lit.v"
    design.write_text("module m(input [7:0] a, output [7:0] y);\n"
                      "  assign y = a + 8'b102;\nendmodule\n")
    assert main(["compile", str(design)]) == 2
    assert_one_error_line(capsys.readouterr().err, design,
                          "invalid base-2 literal \"8'b102\" at line 2")


def write_bad_model(path, kind) -> str:
    """Write one kind of file ``load_sns`` must refuse; returns the reason
    the error line must give."""
    import json

    import numpy as np

    def header(doc):
        return np.frombuffer(json.dumps(doc).encode(), np.uint8)

    if kind == "text":
        path.write_text("not a model\n")
        return "not an .npz archive"
    if kind == "truncated":
        np.savez(path, __header__=header({"format_version": 1}),
                 weights=np.zeros(256))
        path.write_bytes(path.read_bytes()[:200])
        return "not an .npz archive"
    if kind == "no-header":
        np.savez(path, weights=np.zeros(4))
        return "no __header__ entry"
    if kind == "npy":
        with open(path, "wb") as f:
            np.save(f, np.zeros(4))
        return "not an .npz archive"
    np.savez(path, __header__=header({"format_version": 99}))
    return "unsupported format_version 99"


MODEL_ARGS = {
    "predict": ["predict", "{model}", "{design}"],
    "dse": ["dse", "{model}"],
    "serve": ["serve", "{model}", "--port", "0"],
}


@pytest.mark.parametrize("verb, kind", [
    *(("predict", kind)
      for kind in ("text", "truncated", "no-header", "version", "npy")),
    ("dse", "text"), ("serve", "text")])
def test_corrupt_model(verb, kind, tmp_path, capsys, monkeypatch):
    import repro.boom
    import repro.runtime
    import repro.serve

    def no_work(*_args, **_kwargs):
        raise AssertionError("work started before the model was checked")

    monkeypatch.setattr(repro.runtime, "BatchPredictor", no_work)
    monkeypatch.setattr(repro.boom, "BoomDSE", no_work)
    monkeypatch.setattr(repro.serve.PredictionServer, "start", no_work)
    design = tmp_path / "mac.v"
    design.write_text("module mac(input clk, input [7:0] a, output [7:0] y);\n"
                      "  reg [7:0] r;\n  always @(posedge clk) r <= r + a;\n"
                      "  assign y = r;\nendmodule\n")
    model = tmp_path / "model.npz"
    reason = write_bad_model(model, kind)
    assert main([a.format(model=model, design=design)
                 for a in MODEL_ARGS[verb]]) == 2
    assert_one_error_line(capsys.readouterr().err, model, reason)

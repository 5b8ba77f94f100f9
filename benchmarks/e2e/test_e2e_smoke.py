"""Smoke test of the end-to-end benchmark and its comparison rules.

Runs every workload briefly, untraced and traced, and checks the result
line against ``BENCHMARK.json``; checks that the benchmark refuses to run
without the program; and checks ``compare.py``'s verdicts on synthetic
results.  Takes about three and a half minutes::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *SPEC["command"][1:], *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["attempted"] > 0 and doc["failed"] == 0 and doc["correct"]
    return doc


def declared(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    doc = result_line(run_bench("--workload", workload, "--seed", "3",
                                "--seconds", "1", "--trace", "0"))
    units = {k: v["unit"] for k, v in doc["metrics"].items()}
    assert units == declared("end_to_end")
    assert all(v["value"] > 0 for v in doc["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric_and_covers_wall_time(workload):
    # Six seconds give serve_mixed about 120 traced requests.  With 3 s
    # its coverage (event-loop hand-offs between spans are uncovered)
    # read 95.2-97.5% over five runs and fell below 95% in a sixth; with
    # 6 s it read 96.1-98.1% over four.
    doc = result_line(run_bench("--workload", workload, "--seed", "3",
                                "--seconds", "6", "--trace", "1"))
    units = {k: v["unit"] for k, v in doc["metrics"].items()}
    assert units == declared("per_layer")
    assert doc["metrics"]["trace.coverage_pct"]["value"] >= 95.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", WORKLOADS[0], "--seed", "0",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ---------------------------------------------------------------------- #
def results(workload: str, values: list[float], failed: int = 0) -> list[dict]:
    return [{"schema": "repro-e2e/1", "workload": workload, "seed": seed,
             "trace": 0, "attempted": 10, "failed": failed,
             "env": {"timestamp": "t", "nproc": 2, "blas": "b"},
             "metrics": {"latency_p50_ms": {"value": v, "unit": "ms"}}}
            for seed, v in enumerate(values)]


SPEC_ONE = {"end_to_end": [{"name": "latency_p50_ms", "unit": "ms",
                            "better": "lower", "bound": 0.1}]}
PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


def verdicts(b_values: list[float], b_failed: int = 0) -> dict[str, str]:
    rows = compare.compare(results("w", PARENT), results("w", b_values, b_failed),
                           SPEC_ONE)
    return {metric: verdict for _, metric, verdict, _ in rows}


def test_compare_reports_regression_beyond_bound():
    assert verdicts([v * 1.2 for v in PARENT])["latency_p50_ms"] == "regressed"


def test_compare_reports_a_resolved_slowdown_inside_the_bound_as_regression():
    assert verdicts([v * 1.05 for v in PARENT])["latency_p50_ms"] == "regressed"


def test_compare_reports_improvement_that_wins_nine_of_ten_pairs():
    assert verdicts([v * 0.9 for v in PARENT])["latency_p50_ms"] == "improved"


def test_compare_reports_same_code_as_unchanged():
    shuffled = PARENT[5:] + PARENT[:5]
    assert verdicts(shuffled)["latency_p50_ms"] == "unchanged"


def test_compare_reports_wide_spread_as_unresolved():
    noisy = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 100.0, 150.0]
    assert verdicts(noisy)["latency_p50_ms"] == "unresolved"


def test_compare_counts_a_larger_failed_share_as_regression():
    rows = verdicts(PARENT, b_failed=1)
    assert rows["failed_share"] == "regressed"
    assert rows["latency_p50_ms"] == "unchanged"


def test_compare_reports_a_workload_missing_from_b_as_regression():
    parent = results("w", PARENT) + results("v", PARENT)
    rows = compare.compare(parent, results("w", PARENT), SPEC_ONE)
    assert ("v", "runs", "regressed") in [row[:3] for row in rows]
    assert {r[2] for r in rows if r[0] == "w"} == {"unchanged"}


def test_compare_reports_a_metric_missing_from_b_as_regression():
    change = results("w", PARENT)
    del change[0]["metrics"]["latency_p50_ms"]
    rows = compare.compare(results("w", PARENT), change, SPEC_ONE)
    assert {m: v for _, m, v, _ in rows}["latency_p50_ms"] == "regressed"


def test_compare_exits_nonzero_on_regression(tmp_path, capsys):
    (tmp_path / "a.json").write_text(json.dumps(results("w", PARENT)))
    (tmp_path / "b.json").write_text(json.dumps(
        results("w", [v * 1.5 for v in PARENT])))
    assert compare.main([str(tmp_path / "a.json"), str(tmp_path / "a.json")]) == 0
    assert compare.main([str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 1
    assert "regressed" in capsys.readouterr().out
    (tmp_path / "short.json").write_text(json.dumps(results("w", PARENT[:9])))
    assert compare.main([str(tmp_path / "a.json"),
                         str(tmp_path / "short.json")]) == 1

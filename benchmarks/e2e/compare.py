#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark results.

Usage::

    python3 benchmarks/e2e/compare.py A B

``A`` (the parent) and ``B`` (the change) are each a result JSON written
by ``run.py --out`` (one result or a list of them) or a directory of such
files.  Untraced results are compared per (workload, end-to-end metric),
with each metric's direction and bound read from ``BENCHMARK.json``:

- ``unresolved``: the run-to-run spread (IQR over median) of either side
  is wider than the bound, unless every B run is better than every A run
  (``improved``) or worse than every A run by more than the bound
  (``regressed``);
- ``regressed``: B's median is worse than A's by more than the bound, or
  B loses at least 9 of every 10 pairs and the medians differ by more
  than A's IQR;
- ``improved``: B wins at least 9 of every 10 pairs (runs paired in seed
  order, ties count for neither) and the medians differ by more than
  A's IQR;
- ``unchanged``: otherwise.

Each workload also gets a ``failed_share`` row (failed over attempted
ops): B failing a larger share than A is a regression.  So is a
workload or metric for which B has fewer runs than A (a ``runs`` row,
or the metric's row), as when a run crashed and wrote no result; a
workload only B has is not compared.  The exit status
is 1 when any row regressed.  A warning is printed when the two sides ran
with different ``nproc`` or BLAS, or measured peak memory over different
windows.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load(path: str) -> list[dict]:
    """Untraced results under ``path`` (a file or a directory of files)."""
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    docs = []
    for f in files:
        doc = json.loads(f.read_text())
        for result in doc if isinstance(doc, list) else [doc]:
            if result.get("schema") == "repro-e2e/1" and not result["trace"]:
                docs.append(result)
    return docs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], bound: float,
            lower_is_better: bool) -> tuple[str, dict]:
    """Classify one (workload, metric); runs are paired by position."""
    sign = -1.0 if lower_is_better else 1.0   # sign * value: higher is better
    qa, qb = quartiles(a), quartiles(b)
    ma, mb = statistics.median(a), statistics.median(b)
    iqr_a = qa[2] - qa[0]
    spread = max(iqr_a / abs(ma) if ma else 0.0,
                 (qb[2] - qb[0]) / abs(mb) if mb else 0.0)
    worse = sign * (ma - mb) / abs(ma) if ma else 0.0   # >0: B is worse
    pairs = list(zip(a, b))
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    losses = sum(sign * (y - x) < 0 for x, y in pairs)
    info = {"median_a": ma, "median_b": mb, "iqr_a": iqr_a,
            "spread": spread, "change": (mb - ma) / ma if ma else 0.0,
            "wins": wins, "pairs": len(pairs)}
    all_better = min(sign * y for y in b) > max(sign * x for x in a)
    all_worse = max(sign * y for y in b) < min(sign * x for x in a)
    if spread > bound:
        if all_better:
            return "improved", info
        if all_worse and worse > bound:
            return "regressed", info
        return "unresolved", info
    if worse > bound:
        return "regressed", info
    # The bounds are as wide as run-to-run noise forces them to be; a
    # slowdown inside the bound that the paired runs resolve (the gain
    # rule mirrored) is still reported as one.
    resolved = bool(pairs) and abs(mb - ma) > iqr_a
    if resolved and losses >= 0.9 * len(pairs) and worse > 0:
        return "regressed", info
    if resolved and wins >= 0.9 * len(pairs) and worse < 0:
        return "improved", info
    return "unchanged", info


def by_workload(docs: list[dict]) -> dict[str, list[dict]]:
    groups: dict[str, list[dict]] = defaultdict(list)
    for doc in docs:
        groups[doc["workload"]].append(doc)
    for runs in groups.values():
        runs.sort(key=lambda d: (d["seed"], d["env"]["timestamp"]))
    return groups


def compare(a_docs: list[dict], b_docs: list[dict], spec: dict) -> list[tuple]:
    """Rows of (workload, metric, verdict, info).

    A workload or metric with fewer runs in B than in A is ``regressed``:
    a run that crashes writes no result, so what is missing from B is
    the worst outcome, not one to skip.
    """
    rows = []
    a_runs, b_runs = by_workload(a_docs), by_workload(b_docs)
    for workload in sorted(a_runs):
        a, b = a_runs[workload], b_runs.get(workload, [])
        if len(b) < len(a):
            rows.append((workload, "runs", "regressed",
                         {"median_a": len(a), "median_b": len(b)}))
            if not b:
                continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va = [d["metrics"][name]["value"] for d in a if name in d["metrics"]]
            vb = [d["metrics"][name]["value"] for d in b if name in d["metrics"]]
            if not va:
                continue
            if len(vb) < len(va):
                rows.append((workload, name, "regressed",
                             {"median_a": statistics.median(va),
                              "median_b": statistics.median(vb) if vb
                              else float("nan")}))
                continue
            result, info = verdict(va, vb, metric["bound"],
                                   metric["better"] == "lower")
            rows.append((workload, name, result, info))
        share_a = sum(d["failed"] for d in a) / max(1, sum(d["attempted"] for d in a))
        share_b = sum(d["failed"] for d in b) / max(1, sum(d["attempted"] for d in b))
        rows.append((workload, "failed_share",
                     "regressed" if share_b > share_a else "unchanged",
                     {"median_a": share_a, "median_b": share_b}))
    return rows


def env_warnings(a_docs: list[dict], b_docs: list[dict]) -> list[str]:
    warnings = []
    for key in ("nproc", "blas", "peak_rss_window"):
        seen_a = {str(d["env"].get(key)) for d in a_docs}
        seen_b = {str(d["env"].get(key)) for d in b_docs}
        if seen_a != seen_b:
            warnings.append(f"warning: {key} differs: A {sorted(seen_a)} "
                            f"vs B {sorted(seen_b)}")
    return warnings


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    a_docs, b_docs = load(argv[0]), load(argv[1])
    if not a_docs or not b_docs:
        print("compare: no untraced results on one side", file=sys.stderr)
        return 2
    for line in env_warnings(a_docs, b_docs):
        print(line)
    rows = compare(a_docs, b_docs, spec)
    print(f"{'workload':14s} {'metric':18s} {'A median':>12s} "
          f"{'B median':>12s} {'change':>8s} {'spread':>7s} {'wins':>6s}  verdict")
    for workload, name, result, info in rows:
        if "change" not in info:
            print(f"{workload:14s} {name:18s} {info['median_a']:12.4g} "
                  f"{info['median_b']:12.4g} {'':8s} {'':7s} {'':6s}  {result}")
            continue
        print(f"{workload:14s} {name:18s} {info['median_a']:12.4g} "
              f"{info['median_b']:12.4g} {100 * info['change']:+7.2f}% "
              f"{100 * info['spread']:6.2f}% {info['wins']:>3d}/{info['pairs']:<2d}"
              f"  {result}")
    return 1 if any(r[2] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Golden front-end fingerprints for the 41 registry designs.

``data/verilog_golden.json`` records, per design, the fingerprint of the
graph that ``compile_source`` builds from the design's emitted Verilog.
The ``verilog_cold`` benchmark oracle compares predictions only on graphs
its own pass built, so it cannot see a front end that builds a different
graph; this test can.  Regenerate the file only for an intended change to
the graphs the front end builds.
"""

import json
from pathlib import Path

import pytest

from repro.runtime import compile_source

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "verilog_golden.json").read_text())


def test_golden_covers_the_registry(registry_verilog):
    assert sorted(GOLDEN) == sorted(registry_verilog)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fingerprint_matches_golden(name, registry_verilog):
    assert compile_source(registry_verilog[name]).fingerprint() == GOLDEN[name]

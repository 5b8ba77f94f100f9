"""Golden GraphIR JSON digests for the 41 registry designs' DSL graphs.

``data/dsl_golden.json`` records, per design, the SHA-256 of
``to_json(module.elaborate())``.  Unlike the Verilog-path fingerprints in
``data/verilog_golden.json``, the JSON text covers node labels, which
DianNao's activity maps are built from, and the design name.  Regenerate
the file only for an intended change to the graphs the DSL builds.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.designs import standard_designs
from repro.graphir import to_json

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "dsl_golden.json").read_text())
MODULES = {e.name: e.module for e in standard_designs()}


def test_golden_covers_the_registry():
    assert sorted(GOLDEN) == sorted(MODULES)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_json_digest_matches_golden(name):
    text = to_json(MODULES[name].elaborate())
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[name]

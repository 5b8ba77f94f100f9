"""Tripwire for the end-to-end benchmark's tracer.

``benchmarks/e2e/tracing.py`` gets its per-layer numbers by replacing
names in ``repro`` (module globals and class attributes) for the length
of a traced run.  A rename of any of them breaks ``--trace 1`` runs, and
only the minutes-long benchmark smoke test would notice; this test
installs the tracer's whole patch table in a second and checks that
unpatching puts every original back.
"""

import importlib.util
from pathlib import Path

TRACING = (Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"
           / "tracing.py")


def current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)


def test_every_patch_target_exists_and_is_restored():
    spec = importlib.util.spec_from_file_location("e2e_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    tracer = tracing.Tracer()
    try:
        tracer.install()   # a renamed target raises here
        patches = list(tracer._patches)
        assert patches
        for owner, attr, original in patches:
            assert current(owner, attr) is not original, (owner, attr)
    finally:
        tracer.unpatch()
    for owner, attr, original in patches:
        assert current(owner, attr) is original, (owner, attr)

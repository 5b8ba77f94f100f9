"""Fixtures shared across the test suite."""

import pytest


@pytest.fixture(scope="session")
def registry_verilog() -> dict[str, str]:
    """The 41 registry designs emitted as Verilog text, by design name."""
    from repro.designs import standard_designs
    from repro.verilog import emit_verilog

    return {e.name: emit_verilog(e.module.elaborate()) for e in standard_designs()}

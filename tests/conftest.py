"""Fixtures shared across the test suite."""

import pytest


@pytest.fixture(scope="session")
def registry_verilog() -> dict[str, str]:
    """The 41 registry designs emitted as Verilog text, by design name."""
    from repro.designs import standard_designs
    from repro.verilog import emit_verilog

    return {e.name: emit_verilog(e.module.elaborate()) for e in standard_designs()}


@pytest.fixture(scope="session")
def tiny_dse_sns():
    """A tiny fitted SNS for the case-study drivers' tests.

    Its accuracy is irrelevant: the tests compare the drivers with
    serial ``SNS.predict`` on the same model.
    """
    from repro.core import SNS, CircuitformerConfig, PathSampler, TrainingConfig
    from repro.datagen import build_design_dataset
    from repro.designs import standard_designs
    from repro.synth import Synthesizer

    synth = Synthesizer(effort="low")
    entries = [e for e in standard_designs() if e.name in ("gpio16", "conv3x3")]
    sns = SNS(sampler=PathSampler(k=5, max_paths=30, seed=0),
              circuitformer_config=CircuitformerConfig(
                  embedding_size=16, dim_feedforward=32, max_input_size=64),
              training_config=TrainingConfig(circuitformer_epochs=2,
                                             aggregator_epochs=20))
    return sns.fit(build_design_dataset(entries, synth), synthesizer=synth)

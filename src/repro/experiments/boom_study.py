"""The BOOM case-study harness (Section 5.6: Figure 8, Tables 10/11).

Trains SNS on the hardware design dataset, sweeps BOOM configurations,
verifies a random sample against the reference synthesizer (the paper's
20-design spot check), and reports the Pareto picks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..boom import BoomConfig, BoomCore, BoomDSE, DSEResult, full_design_space
from ..core import SNS, maep
from ..synth import Synthesizer

__all__ = ["BoomStudyReport", "run_boom_study", "strided_subspace"]


@dataclass(frozen=True)
class BoomStudyReport:
    result: DSEResult
    verify_maep: dict[str, float]       # spot-check vs synthesizer
    configs_evaluated: int

    @property
    def pareto_single_memory_port(self) -> bool:
        """Paper observation: Pareto designs use one memory port.

        Asserted as a strong majority rather than unanimity: prediction
        noise of a few percent can push an occasional dual-port point
        onto the strict frontier even though its single-port sibling
        dominates it in ground truth.
        """
        front = set(self.result.pareto_power) | set(self.result.pareto_area)
        ports = [p.config.memory_ports for p in front]
        return np.mean([p == 1 for p in ports]) >= 0.6


def strided_subspace(stride: int) -> list[BoomConfig]:
    """Every ``stride``-th configuration of the full 2592-point space."""
    space = full_design_space()
    return space[::stride]


def run_boom_study(sns: SNS, configs: list[BoomConfig] | None = None,
                   verify_samples: int = 8, synth_effort: str = "medium",
                   seed: int = 0, verbose: bool = False) -> BoomStudyReport:
    """Run the DSE plus the synthesized spot check."""
    configs = configs if configs is not None else full_design_space()
    dse = BoomDSE(predictor=sns)
    result = dse.run(configs, verbose=verbose)

    # Spot check: synthesize a random sample and compare (paper: 20 of 2592).
    rng = np.random.default_rng(seed)
    sample_idx = rng.choice(len(result.points),
                            size=min(verify_samples, len(result.points)),
                            replace=False)
    synthesizer = Synthesizer(effort=synth_effort)
    pred_rows, actual_rows = [], []
    for i in sample_idx:
        point = result.points[i]
        truth = synthesizer.synthesize(BoomCore(point.config).elaborate())
        pred_rows.append([point.timing_ps, point.area_um2, point.power_mw])
        actual_rows.append([truth.timing_ps, truth.area_um2, truth.power_mw])
    pred = np.array(pred_rows)
    actual = np.array(actual_rows)
    verify = {t: maep(pred[:, i], actual[:, i])
              for i, t in enumerate(("timing", "area", "power"))}
    return BoomStudyReport(result=result, verify_maep=verify,
                           configs_evaluated=len(configs))

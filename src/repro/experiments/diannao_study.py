"""The DianNao case-study harness (Section 5.7: Tables 12/13, Figs 10/11)."""

from __future__ import annotations

from dataclasses import dataclass

from ..core import SNS
from ..diannao import (
    DianNao,
    DianNaoConfig,
    DianNaoDSE,
    DianNaoDSEResult,
    DianNaoPerfModel,
)
from ..synth import Synthesizer, scale_result

__all__ = ["Table12Report", "table12_prediction", "run_tn_sweep",
           "run_datatype_sweep", "DIANNAO_65NM"]

# The original DianNao paper's 65nm synthesis results (Table 12, row 1).
DIANNAO_65NM = {"power_mw": 132.0, "area_um2": 846563.0, "timing_ps": 1020.0}


@dataclass(frozen=True)
class Table12Report:
    """Table 12: original 65nm result, 15nm-scaled result, SNS prediction.

    ``reference_15nm`` is our reference synthesizer's result for the same
    configuration — the ground truth SNS was actually trained against.
    """

    original_65nm: dict[str, float]
    scaled_15nm: dict[str, float]
    prediction_15nm: dict[str, float]
    reference_15nm: dict[str, float]

    def error_pct(self, metric: str) -> float:
        """Prediction error vs the paper's scaled row."""
        scaled = self.scaled_15nm[metric]
        return abs(self.prediction_15nm[metric] - scaled) / scaled * 100.0

    def error_vs_reference_pct(self, metric: str) -> float:
        """Prediction error vs our own synthesizer's ground truth."""
        ref = self.reference_15nm[metric]
        return abs(self.prediction_15nm[metric] - ref) / ref * 100.0


def table12_prediction(sns: SNS) -> Table12Report:
    """Predict the published DianNao configuration and compare to the
    technology-scaled original (Table 12).
    """
    scaled = scale_result(DIANNAO_65NM["timing_ps"], DIANNAO_65NM["area_um2"],
                          DIANNAO_65NM["power_mw"], from_nm=65, to_nm=15)
    config = DianNaoConfig(tn=16, datatype="int16", pipeline_stages=3)
    graph = DianNao(config).elaborate()
    model = DianNaoPerfModel()
    activity = model.activity_coefficients(graph, model.simulate(config))
    pred = sns.predict(graph, activity=activity)
    reference = Synthesizer(effort="medium").synthesize(
        graph, activity=activity)
    return Table12Report(
        original_65nm=dict(DIANNAO_65NM),
        scaled_15nm={"timing_ps": scaled.timing_ps, "area_um2": scaled.area_um2,
                     "power_mw": scaled.power_mw},
        prediction_15nm={"timing_ps": pred.timing_ps, "area_um2": pred.area_um2,
                         "power_mw": pred.power_mw},
        reference_15nm={"timing_ps": reference.timing_ps,
                        "area_um2": reference.area_um2,
                        "power_mw": reference.power_mw},
    )


def run_tn_sweep(engine, datatype: str = "int16",
                 verbose: bool = False) -> DianNaoDSEResult:
    """Figure 10: sweep Tn with the other parameters at the published point.

    ``engine`` is either a trained SNS or a Synthesizer.
    """
    dse = _make_dse(engine)
    configs = [DianNaoConfig(tn=tn, datatype=datatype) for tn in (4, 8, 16, 32)]
    return dse.run(configs, verbose=verbose)


def run_datatype_sweep(engine, tn: int = 16,
                       verbose: bool = False) -> DianNaoDSEResult:
    """Figure 11: sweep the datapath datatype at fixed Tn."""
    dse = _make_dse(engine)
    configs = [DianNaoConfig(tn=tn, datatype=dt)
               for dt in ("int8", "int16", "fp16", "bf16", "tf32", "fp32")]
    return dse.run(configs, verbose=verbose)


def _make_dse(engine) -> DianNaoDSE:
    if isinstance(engine, SNS):
        return DianNaoDSE(predictor=engine)
    if isinstance(engine, Synthesizer):
        return DianNaoDSE(synthesizer=engine)
    raise TypeError(f"engine must be SNS or Synthesizer, got {type(engine).__name__}")

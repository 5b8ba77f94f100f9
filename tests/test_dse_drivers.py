"""The SNS-backed case-study drivers against serial ``SNS.predict``.

``BoomDSE.run`` (Figure 8) and ``DianNaoDSE.run`` (Figures 10-11) predict
a whole sweep in one batch through ``BatchPredictor``; every
configuration must read exactly what a serial ``SNS.predict`` on its
elaborated design reads (DianNao with the configuration's power-gating
activity map).
"""

from repro.boom import BoomConfig, BoomCore, BoomDSE
from repro.diannao import DianNao, DianNaoConfig, DianNaoDSE

BOOM_CONFIGS = [
    BoomConfig(core_width=1, issue_slots=8, rob_size=32, int_regs=52,
               branch_predictor="boom2"),
    BoomConfig(core_width=2, issue_slots=16, rob_size=64, int_regs=80),
    BoomConfig(core_width=2, issue_slots=16, rob_size=64, int_regs=80,
               memory_ports=2),
    BoomConfig(core_width=4, issue_slots=32, rob_size=96, int_regs=100,
               fetch_width=8),
]
DIANNAO_CONFIGS = [
    DianNaoConfig(tn=4, datatype="int8"),
    DianNaoConfig(tn=4, datatype="int16", pipeline_stages=8),
    DianNaoConfig(tn=4, datatype="bf16", reduction_width=4),
    DianNaoConfig(tn=8, datatype="fp16", activation_entries=2),
]


def test_boom_run_matches_serial_predict(tiny_dse_sns):
    sns = tiny_dse_sns
    result = BoomDSE(predictor=sns).run(BOOM_CONFIGS)
    assert [p.config for p in result.points] == BOOM_CONFIGS
    for point in result.points:
        pred = sns.predict(BoomCore(point.config).elaborate())
        # _make_point clamps timing at 1 ps before scoring.
        assert (point.timing_ps, point.area_um2, point.power_mw) == (
            max(pred.timing_ps, 1.0), pred.area_um2, pred.power_mw)


def test_diannao_run_matches_serial_predict(tiny_dse_sns):
    sns = tiny_dse_sns
    dse = DianNaoDSE(predictor=sns)
    result = dse.run(DIANNAO_CONFIGS)
    assert [p.config for p in result.points] == DIANNAO_CONFIGS
    gated_power_moved = False
    for point in result.points:
        graph = DianNao(point.config).elaborate()
        report = dse.perf_model.simulate(point.config)
        activity = dse.perf_model.activity_coefficients(graph, report,
                                                        gated=True)
        pred = sns.predict(graph, activity=activity)
        assert (point.timing_ps, point.area_um2, point.power_mw) == (
            max(pred.timing_ps, 1.0), pred.area_um2, pred.power_mw)
        gated_power_moved |= sns.predict(graph).power_mw != point.power_mw
    # The activity map reaches the prediction: ungated power differs.
    assert gated_power_moved

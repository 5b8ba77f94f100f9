"""``repro.boom`` — the BOOM case study (Section 5.6).

A parameterizable out-of-order RISC-V core generator over the Table 10
parameter space (2592 configurations), a CoreMark-like analytic
performance model (the Chipyard cycle-accurate simulator substitute),
and the Pareto design-space exploration that produces Figure 8 and
Table 11.
"""

from .config import (BRANCH_PREDICTORS, EXTENDED_SPACE, TABLE10, BoomConfig,
                     boom_grid, extended_grid, full_design_space)
from .generator import BoomCore
from .perf_model import COREMARK, CoreMarkModel, WorkloadProfile
from .dse import BoomDSE, DSEPoint, DSEResult

__all__ = [
    "BRANCH_PREDICTORS", "TABLE10", "EXTENDED_SPACE", "BoomConfig",
    "full_design_space", "boom_grid", "extended_grid",
    "BoomCore",
    "COREMARK", "CoreMarkModel", "WorkloadProfile",
    "BoomDSE", "DSEPoint", "DSEResult",
]

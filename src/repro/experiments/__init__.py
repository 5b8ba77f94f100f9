"""``repro.experiments`` — the evaluation harnesses behind every table
and figure in the paper.

Each harness is importable and parameterized by an
:class:`~repro.experiments.settings.ExperimentSettings` preset (``FAST``
for CI, ``FULL`` for the committed EXPERIMENTS.md numbers); the
``benchmarks/`` directory wraps them one-per-table/figure.
"""

from .settings import ExperimentSettings, FAST, FULL
from .accuracy import (
    PredictionRow,
    AccuracyReport,
    build_dataset,
    fit_sns,
    evaluate_split,
    scarce_data_run,
    dsage_timing_comparison,
)
from .runtime import (
    RuntimeRow,
    RuntimeReport,
    runtime_comparison,
    PLATFORMS,
    ThroughputReport,
    throughput_comparison,
)
from .boom_study import BoomStudyReport, run_boom_study, strided_subspace
from .diannao_study import (
    Table12Report,
    table12_prediction,
    run_tn_sweep,
    run_datatype_sweep,
    DIANNAO_65NM,
)
from .reporting import format_table, format_series, ascii_scatter

__all__ = [
    "ExperimentSettings", "FAST", "FULL",
    "PredictionRow", "AccuracyReport", "build_dataset", "fit_sns",
    "evaluate_split", "scarce_data_run",
    "dsage_timing_comparison",
    "RuntimeRow", "RuntimeReport", "runtime_comparison", "PLATFORMS",
    "ThroughputReport", "throughput_comparison",
    "BoomStudyReport", "run_boom_study", "strided_subspace",
    "Table12Report", "table12_prediction", "run_tn_sweep", "run_datatype_sweep",
    "DIANNAO_65NM",
    "format_table", "format_series", "ascii_scatter",
]

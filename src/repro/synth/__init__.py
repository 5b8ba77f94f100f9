"""``repro.synth`` — the reference synthesizer (Synopsys DC substitute).

Provides the ground-truth labels SNS trains against: technology mapping
onto a FreePDK15-style cell library, netlist optimization (CSE, MAC
fusion, buffering), timing-driven gate sizing, static timing analysis,
area/power extraction, and Stillmaker-Baas technology-node scaling.
"""

from .library import CellCost, TechLibrary, FREEPDK15
from .netlist import MappedCell, MappedNetlist
from .passes import common_subexpression_elimination, mac_fusion, buffer_insertion
from .timing import TimingReport, CompiledNetlist, static_timing_analysis
from .power import total_area, total_power, DEFAULT_COMB_ACTIVITY, DEFAULT_SEQ_ACTIVITY
from .paths import PathResult, synthesize_path_batch
from .synthesizer import SynthesisResult, Synthesizer, EFFORT_PASSES
from .cache import synthesis_cache_key
from .scaling import NODE_FACTORS, scale_value, scale_result, ScaledResult
from .report import TimingPath, AreaLine, PowerLine, SynthesisReport, analyze
from .retiming import retime_backward

__all__ = [
    "CellCost", "TechLibrary", "FREEPDK15",
    "MappedCell", "MappedNetlist",
    "common_subexpression_elimination", "mac_fusion", "buffer_insertion",
    "TimingReport", "CompiledNetlist", "static_timing_analysis",
    "total_area", "total_power", "DEFAULT_COMB_ACTIVITY", "DEFAULT_SEQ_ACTIVITY",
    "PathResult", "synthesize_path_batch",
    "SynthesisResult", "Synthesizer", "EFFORT_PASSES",
    "synthesis_cache_key",
    "NODE_FACTORS", "scale_value", "scale_result", "ScaledResult",
    "TimingPath", "AreaLine", "PowerLine", "SynthesisReport", "analyze",
    "retime_backward",
]

"""A cycle-accurate performance model for DianNao (Section 5.7).

Walks a convolutional network layer by layer, counting NFU cycles the
way the hardware schedules work: each cycle processes ``Tn`` input
neurons against ``Tn`` output neurons, so a layer with ``Nin`` inputs
and ``Nout`` outputs takes ``ceil(Nin/Tn) * ceil(Nout/Tn)`` cycles per
output pixel.  Padding waste when channel counts do not divide ``Tn``
shows up as utilization loss — the effect that makes very large ``Tn``
less area- and power-efficient (Figure 10).

The model also produces per-register **activity coefficients** for
power gating (Section 3.4.4): each NFU stage's registers toggle in
proportion to its utilization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..graphir import CompiledGraph
from .config import DianNaoConfig

__all__ = ["LayerSpec", "ALEXNET_CIFAR10", "PerfReport", "DianNaoPerfModel"]


@dataclass(frozen=True)
class LayerSpec:
    """One network layer: spatial output size x (input -> output channels)."""

    name: str
    kind: str          # 'conv' | 'fc'
    out_pixels: int    # H*W of the output feature map (1 for fc)
    in_channels: int   # Nin per output pixel (kernel taps x channels for conv)
    out_channels: int


# AlexNet scaled to CIFAR-10 (the case study's workload): conv kernels
# contribute k*k*Cin input neurons per output pixel.
ALEXNET_CIFAR10: tuple[LayerSpec, ...] = (
    LayerSpec("conv1", "conv", 32 * 32, 3 * 3 * 3, 96),
    LayerSpec("conv2", "conv", 16 * 16, 3 * 3 * 96, 256),
    LayerSpec("conv3", "conv", 8 * 8, 3 * 3 * 256, 384),
    LayerSpec("conv4", "conv", 8 * 8, 3 * 3 * 384, 384),
    LayerSpec("conv5", "conv", 8 * 8, 3 * 3 * 384, 256),
    LayerSpec("fc1", "fc", 1, 256 * 4 * 4, 1024),
    LayerSpec("fc2", "fc", 1, 1024, 512),
    LayerSpec("fc3", "fc", 1, 512, 10),
)


@dataclass(frozen=True)
class PerfReport:
    """Cycle counts and stage utilizations for one inference."""

    cycles: int
    useful_macs: int
    issued_macs: int
    nfu1_utilization: float
    nfu2_utilization: float
    nfu3_utilization: float

    @property
    def utilization(self) -> float:
        return self.useful_macs / self.issued_macs if self.issued_macs else 0.0

    def inferences_per_second(self, frequency_ghz: float) -> float:
        if self.cycles == 0:
            return 0.0
        return frequency_ghz * 1e9 / self.cycles


class DianNaoPerfModel:
    """Layer-walking cycle model + activity coefficient generation.

    ``mem_bytes_per_cycle`` models the off-chip weight-fetch interface.
    Convolution layers keep their kernels resident in the SB buffer and
    are compute-bound; fully-connected layers stream a fresh weight per
    MAC and become bandwidth-bound once ``Tn^2 x bytes`` per cycle
    exceeds the interface — the effect that caps very large ``Tn``
    (Figure 10: efficiency peaks at Tn=16).
    """

    def __init__(self, network: tuple[LayerSpec, ...] = ALEXNET_CIFAR10,
                 mem_bytes_per_cycle: float = 96.0):
        self.network = network
        self.mem_bytes_per_cycle = mem_bytes_per_cycle

    # ------------------------------------------------------------------ #
    def simulate(self, config: DianNaoConfig) -> PerfReport:
        """One inference of the configured network."""
        tn = config.tn
        bytes_per_word = max(config.dtype.total_bits / 8.0, 1.0)
        cycles = 0
        useful = 0
        busy_cycles = 0
        act_cycles = 0
        for layer in self.network:
            in_tiles = math.ceil(layer.in_channels / tn)
            out_tiles = math.ceil(layer.out_channels / tn)
            compute_cycles = layer.out_pixels * in_tiles * out_tiles
            if layer.kind == "fc":
                weight_bytes = layer.in_channels * layer.out_channels * bytes_per_word
                layer_cycles = max(compute_cycles,
                                   math.ceil(weight_bytes / self.mem_bytes_per_cycle))
            else:
                layer_cycles = compute_cycles
            cycles += layer_cycles
            useful += layer.out_pixels * layer.in_channels * layer.out_channels
            busy_cycles += compute_cycles
            # NFU-3 is busy only on the final reduction tile of each output.
            act_cycles += layer.out_pixels * out_tiles
        cycles += config.pipeline_stages * len(self.network)  # pipeline fills
        issued = cycles * tn * tn
        util = useful / issued if issued else 0.0
        return PerfReport(
            cycles=cycles,
            useful_macs=useful,
            issued_macs=issued,
            nfu1_utilization=util,
            nfu2_utilization=util,
            nfu3_utilization=min(act_cycles / cycles, 1.0) if cycles else 0.0,
        )

    # ------------------------------------------------------------------ #
    def activity_coefficients(self, graph: CompiledGraph, report: PerfReport,
                              gated: bool = True) -> dict[int, float]:
        """Per-register activity coefficients keyed by GraphIR node id.

        Registers are matched by the ``nfu<k>`` label prefixes the
        generator emits.  Without clock gating every datapath register
        toggles at the streaming data rate (~0.5); with gating each NFU
        stage's registers toggle only in proportion to its utilization —
        the comparison Section 3.4.4 enables.
        """
        u1 = report.nfu1_utilization if gated else 1.0
        u2 = report.nfu2_utilization if gated else 1.0
        u3 = report.nfu3_utilization if gated else 1.0
        stage_activity = {
            "nfu1": 0.5 * u1,
            "nfu2": 0.5 * u2,
            "nfu3": 0.5 * u3,
            "nbin": 0.25,
            "sb": 0.25,
            "nbout": 0.5 * u3,
        }
        out: dict[int, float] = {}
        for node_id in graph.ids_of_type("dff"):
            label = graph.labels[node_id]
            for prefix, coeff in stage_activity.items():
                if label.startswith(prefix):
                    out[node_id] = coeff
                    break
        return out

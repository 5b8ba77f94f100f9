"""Ablation — Circuitformer vs the order-blind linear path model.

Section 3.3's motivating argument: a linear regression over vertex
counts cannot distinguish [mul, add] (MAC-fusable) from [add, mul].
This bench trains both models on the same path dataset — deliberately
including order-sensitive pairs — and compares held-out accuracy plus
the order-discrimination gap.
"""

import numpy as np
import pytest

from repro.baselines import PathCountLinearModel
from repro.core import Circuitformer, CircuitformerConfig, TrainingConfig, rrse
from repro.core.training import train_circuitformer
from repro.datagen import PathRecord
from repro.experiments import format_table
from repro.synth import Synthesizer

from conftest import run_once

SMALL_CF = CircuitformerConfig(embedding_size=32, dim_feedforward=64,
                               max_input_size=64)


def _order_pairs(rng, synth, count):
    """Label paths that differ only in mul/add order."""
    records = []
    for _ in range(count):
        width = int(rng.choice([8, 16, 32]))
        prefix = ["io" + str(width)]
        n_extra = int(rng.integers(0, 3))
        extras = [str(rng.choice(["xor", "mux", "and"])) + str(width)
                  for _ in range(n_extra)]
        w2 = str(min(2 * width, 64))
        pair = [tuple(prefix + extras + middle + ["dff" + w2])
                for middle in (["mul" + w2, "add" + w2], ["add" + w2, "mul" + w2])]
        for tokens, label in zip(pair, synth.synthesize_path_batch(pair)):
            records.append(PathRecord(tokens, label.timing_ps,
                                      label.area_um2, label.power_mw))
    return records


def test_ablation_circuitformer_vs_linear(benchmark):
    synth = Synthesizer(effort="medium")
    rng = np.random.default_rng(0)

    def run():
        records = _order_pairs(rng, synth, 60)
        seen = {r.tokens for r in records}
        records = [r for i, r in enumerate(records)
                   if r.tokens not in {x.tokens for x in records[:i]}]
        rng.shuffle(records)
        split = int(0.7 * len(records))
        train, test = records[:split], records[split:]

        cf = Circuitformer(SMALL_CF, seed=0)
        train_circuitformer(cf, train, TrainingConfig(circuitformer_epochs=40))
        cf_pred = cf.predict_paths([r.tokens for r in test])

        lin = PathCountLinearModel(alpha=1e-2)
        lin.fit([r.tokens for r in train],
                np.stack([r.labels for r in train]))
        lin_pred = lin.predict([r.tokens for r in test])

        actual = np.stack([r.labels for r in test])
        return cf_pred, lin_pred, actual, cf, lin

    cf_pred, lin_pred, actual, cf, lin = run_once(benchmark, run)

    rows = []
    scores = {}
    for i, target in enumerate(("timing", "area", "power")):
        cf_r = rrse(cf_pred[:, i], actual[:, i])
        lin_r = rrse(lin_pred[:, i], actual[:, i])
        scores[target] = (cf_r, lin_r)
        rows.append([target, f"{cf_r:.3f}", f"{lin_r:.3f}"])
    print("\n" + format_table(
        ["target", "Circuitformer RRSE", "linear RRSE"],
        rows, title="Ablation: path model on order-sensitive paths"))

    # 1. The Circuitformer beats the order-blind model on timing, where
    #    MAC fusion moves the label most (area shifts only a few percent,
    #    so a count model remains competitive there).
    assert scores["timing"][0] < scores["timing"][1]
    # 2. The structural claim of Section 3.3: the Circuitformer tells
    #    [mul, add] from [add, mul]; the linear model cannot.
    pair_a = [("io8", "mul16", "add16", "dff16")]
    pair_b = [("io8", "add16", "mul16", "dff16")]
    cf_gap = abs(float(cf.predict_paths(pair_a)[0, 0]
                       - cf.predict_paths(pair_b)[0, 0]))
    lin_gap = abs(float(lin.predict(pair_a)[0, 0] - lin.predict(pair_b)[0, 0]))
    print(f"order-pair timing gap: Circuitformer {cf_gap:.1f} ps, "
          f"linear {lin_gap:.1f} ps")
    assert lin_gap == pytest.approx(0.0, abs=1e-9)
    assert cf_gap > 0.0

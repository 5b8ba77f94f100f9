"""``predict_unique``'s CLS-only tail against the full-sequence oracle.

``Circuitformer.predict_unique`` runs every encoder layer but the last
in full, and the last layer's attention in full, then finishes that
layer (``out_proj``, both LayerNorms, the feed-forward) and the head on
the CLS rows only, in fixed 128-row groups.  The result equals the
full-sequence pass (``tests/oracles/circuitformer.py``) only while each
row of those fixed-size products equals the same row of the full
``batch * seq``-row products, which is a property of the BLAS.  These
tests pin it bit for bit on every padded-length bucket, so on a BLAS
where it stops holding they fail instead of letting predictions drift.
"""

import numpy as np
import pytest

from repro.core import Circuitformer, CircuitformerConfig
from repro.core.circuitformer import BUCKET_BOUNDARIES, bucket_for_length
from tests.oracles.circuitformer import full_sequence_predict

CONFIGS = {
    "table2": CircuitformerConfig(),
    # benchmarks/test_dse_throughput.py's model: the tail is its only layer.
    "one_layer": CircuitformerConfig(embedding_size=64, dim_feedforward=128,
                                     hidden_layers=1, max_input_size=64),
}


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def model(request):
    model = Circuitformer(CONFIGS[request.param], seed=0)
    # A non-trivial scaler, so inverse scaling is exercised too.
    model.scaler.mean = np.array([3.0, 5.0, -1.0])
    model.scaler.std = np.array([0.5, 2.0, 1.5])
    return model


def buckets_of(model) -> list[int]:
    max_len = model.config.max_input_size - 1
    return sorted({bucket_for_length(b, max_len) for b in BUCKET_BOUNDARIES})


def random_pool(model, rng, buckets) -> list[tuple[str, ...]]:
    """One distinct random token sequence per entry of ``buckets``, each
    long enough to pad to that bucket and no further."""
    tokens = model.vocab.tokens
    edges = buckets_of(model)
    pool: dict[tuple[str, ...], None] = {}
    for bucket in buckets:
        i = edges.index(bucket)
        low = edges[i - 1] + 1 if i else 1
        while True:
            length = int(rng.integers(low, bucket + 1))
            seq = tuple(tokens[t] for t in rng.integers(len(tokens), size=length))
            if seq not in pool:
                pool[seq] = None
                break
    return list(pool)


def assert_bit_identical(model, seqs):
    got = model.predict_unique(seqs)
    want = full_sequence_predict(model, seqs)
    assert got.shape == want.shape == (len(seqs), 3)
    mismatched = np.flatnonzero((got != want).any(axis=1))
    assert not len(mismatched), (
        f"{len(mismatched)} of {len(seqs)} rows differ from the "
        f"full-sequence pass; first: {seqs[mismatched[0]]!r} "
        f"{got[mismatched[0]].tolist()} != {want[mismatched[0]].tolist()}")


@pytest.mark.parametrize("pool", [1, 2, 33])
def test_one_bucket_pools(model, pool):
    """1 and 2 sequences (the duplicated single row, the two-row floor)
    and 33 (one full chunk plus a duplicated single) on every bucket."""
    rng = np.random.default_rng(pool)
    for bucket in buckets_of(model):
        assert_bit_identical(model, random_pool(model, rng, [bucket] * pool))


def test_pool_across_buckets(model):
    """200 sequences over every bucket: the tail's two row groups mix
    CLS rows of different padded lengths.  Past one sequence per bucket
    the rest cycle through the four shortest buckets, which keeps the
    full-sequence oracle cheap."""
    rng = np.random.default_rng(200)
    buckets = buckets_of(model)
    picks = buckets + [int(b) for b in np.resize(buckets[:4], 200 - len(buckets))]
    assert_bit_identical(model, random_pool(model, rng, picks))

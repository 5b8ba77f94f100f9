"""Tests for layers, attention, RNNs, optimizers, and serialization."""

import tracemalloc

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor


class TestLinear:
    def test_shapes(self):
        layer = nn.Linear(4, 7)
        out = layer(Tensor(np.ones((3, 4))))
        assert out.shape == (3, 7)

    def test_3d_input(self):
        layer = nn.Linear(4, 7)
        out = layer(Tensor(np.ones((2, 5, 4))))
        assert out.shape == (2, 5, 7)

    def test_no_bias(self):
        layer = nn.Linear(3, 3, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_learns_identity(self):
        rng = np.random.default_rng(0)
        layer = nn.Linear(2, 2, rng=rng)
        opt = nn.Adam(layer.parameters(), lr=0.05)
        for _ in range(300):
            x = rng.normal(size=(16, 2))
            loss = nn.mse_loss(layer(Tensor(x)), x)
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert loss.item() < 1e-3


class TestEmbedding:
    def test_lookup_shape(self):
        emb = nn.Embedding(10, 6)
        out = emb(np.array([[1, 2], [3, 4]]))
        assert out.shape == (2, 2, 6)

    def test_out_of_range_raises(self):
        emb = nn.Embedding(10, 4)
        with pytest.raises(IndexError):
            emb(np.array([10]))

    def test_gradient_reaches_rows(self):
        emb = nn.Embedding(5, 3)
        out = emb(np.array([2, 2]))
        out.sum().backward()
        grad = emb.weight.grad
        np.testing.assert_allclose(grad[2], [2.0, 2.0, 2.0])
        np.testing.assert_allclose(grad[0], 0.0)


class TestLayerNorm:
    def test_output_is_normalized(self):
        ln = nn.LayerNorm(8)
        x = Tensor(np.random.default_rng(0).normal(2.0, 3.0, size=(4, 8)))
        out = ln(x).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-7)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-2)

    def test_gradient_flows(self):
        ln = nn.LayerNorm(4)
        x = Tensor(np.random.default_rng(1).normal(size=(2, 4)), requires_grad=True)
        (ln(x) * ln(x)).sum().backward()
        assert x.grad is not None and np.isfinite(x.grad).all()


class TestDropout:
    def test_eval_is_identity(self):
        d = nn.Dropout(0.5)
        d.eval()
        x = Tensor(np.ones((4, 4)))
        np.testing.assert_array_equal(d(x).data, x.data)

    def test_train_scales(self):
        d = nn.Dropout(0.5, rng=np.random.default_rng(0))
        x = Tensor(np.ones((1000,)))
        out = d(x).data
        # kept elements are scaled by 1/keep
        assert set(np.unique(out)).issubset({0.0, 2.0})
        assert abs(out.mean() - 1.0) < 0.1

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            nn.Dropout(1.0)


class TestAttention:
    def test_output_shape(self):
        attn = nn.MultiHeadSelfAttention(d_model=16, num_heads=2)
        x = Tensor(np.random.default_rng(0).normal(size=(3, 5, 16)))
        assert attn(x).shape == (3, 5, 16)

    def test_head_divisibility(self):
        with pytest.raises(ValueError):
            nn.MultiHeadSelfAttention(d_model=10, num_heads=3)

    def test_padding_mask_blocks_keys(self):
        """Changing a masked position's content must not change outputs."""
        rng = np.random.default_rng(0)
        attn = nn.MultiHeadSelfAttention(d_model=8, num_heads=2, rng=rng)
        attn.eval()
        x = rng.normal(size=(1, 4, 8))
        mask = np.array([[False, False, False, True]])
        out1 = attn(Tensor(x), key_padding_mask=mask).data
        x2 = x.copy()
        x2[0, 3] += 100.0
        out2 = attn(Tensor(x2), key_padding_mask=mask).data
        # positions 0..2 attend only to unmasked keys, so they are unchanged
        np.testing.assert_allclose(out1[0, :3], out2[0, :3], atol=1e-9)

    @pytest.mark.parametrize("masked", [False, True])
    def test_no_grad_context_matches_grad_mode(self, masked):
        """Inference masks and normalizes the scores in place; the bits
        must equal the graph-building path's."""
        rng = np.random.default_rng(0)
        attn = nn.MultiHeadSelfAttention(d_model=16, num_heads=2, rng=rng)
        attn.eval()
        x = Tensor(rng.normal(size=(3, 7, 16)))
        mask = rng.random((3, 7)) < 0.4 if masked else None
        graph = attn.context(x, mask)
        assert graph.requires_grad
        with nn.no_grad():
            inference = attn.context(x, mask)
        assert np.array_equal(graph.data, inference.data)

    def test_no_grad_context_keeps_one_score_buffer(self):
        """The (batch, heads, seq, seq) scores dominate; masking and the
        softmax must not allocate a second buffer of that size."""
        rng = np.random.default_rng(0)
        attn = nn.MultiHeadSelfAttention(d_model=8, num_heads=2, rng=rng)
        attn.eval()
        batch, seq = 4, 512
        x = Tensor(rng.normal(size=(batch, seq, 8)))
        mask = np.zeros((batch, seq), dtype=bool)
        mask[:, 300:] = True
        score_bytes = batch * 2 * seq * seq * 8
        with nn.no_grad():
            tracemalloc.start()
            try:
                attn.context(x, mask)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 1.5 * score_bytes

    def test_encoder_stack(self):
        enc = nn.TransformerEncoder(num_layers=2, d_model=16, num_heads=2)
        x = Tensor(np.random.default_rng(0).normal(size=(2, 6, 16)))
        out = enc(x)
        assert out.shape == (2, 6, 16)
        out.sum().backward()
        for p in enc.parameters():
            assert p.grad is not None

    def test_encoder_learns_to_copy_first_token(self):
        """Tiny end-to-end training sanity check for the transformer stack."""
        rng = np.random.default_rng(0)
        enc = nn.TransformerEncoderLayer(d_model=8, num_heads=2, rng=rng)
        head = nn.Linear(8, 1, rng=rng)
        params = enc.parameters() + head.parameters()
        opt = nn.Adam(params, lr=0.01)
        for _ in range(150):
            x = rng.normal(size=(8, 4, 8))
            target = x[:, 0, 0]
            out = head(enc(Tensor(x))[:, 0, :])
            loss = nn.mse_loss(out.reshape(8), target)
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert loss.item() < 0.3


class TestGRU:
    def test_shapes(self):
        gru = nn.GRU(input_size=5, hidden_size=7)
        out, h = gru(Tensor(np.random.default_rng(0).normal(size=(2, 4, 5))))
        assert out.shape == (2, 4, 7)
        assert h.shape == (2, 7)

    def test_gradient_flows_through_time(self):
        gru = nn.GRU(3, 4)
        x = Tensor(np.random.default_rng(1).normal(size=(2, 6, 3)), requires_grad=True)
        out, _ = gru(x)
        out.sum().backward()
        assert x.grad is not None
        assert np.abs(x.grad[:, 0, :]).sum() > 0  # first step influences output

    def test_learns_running_sign(self):
        rng = np.random.default_rng(0)
        gru = nn.GRU(1, 8, rng=rng)
        head = nn.Linear(8, 1, rng=rng)
        opt = nn.Adam(gru.parameters() + head.parameters(), lr=0.02)
        for _ in range(200):
            x = rng.normal(size=(16, 5, 1))
            target = (x.sum(axis=(1, 2)) > 0).astype(float)
            _, h = gru(Tensor(x))
            pred = head(h).sigmoid().reshape(16)
            loss = nn.binary_cross_entropy(pred, target)
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert loss.item() < 0.45


class TestOptim:
    def _quadratic_min(self, opt_factory, steps=200):
        w = nn.Parameter(np.array([5.0, -3.0]))
        opt = opt_factory([w])
        for _ in range(steps):
            loss = ((w - Tensor(np.array([1.0, 2.0]))) ** 2).sum()
            opt.zero_grad()
            loss.backward()
            opt.step()
        return w.data

    def test_sgd_converges(self):
        w = self._quadratic_min(lambda p: nn.SGD(p, lr=0.1))
        np.testing.assert_allclose(w, [1.0, 2.0], atol=1e-3)

    def test_sgd_momentum_converges(self):
        w = self._quadratic_min(lambda p: nn.SGD(p, lr=0.05, momentum=0.9))
        np.testing.assert_allclose(w, [1.0, 2.0], atol=1e-3)

    def test_adam_converges(self):
        w = self._quadratic_min(lambda p: nn.Adam(p, lr=0.1))
        np.testing.assert_allclose(w, [1.0, 2.0], atol=1e-2)

    def test_weight_decay_shrinks(self):
        w = nn.Parameter(np.array([10.0]))
        opt = nn.SGD([w], lr=0.1, weight_decay=0.5)
        for _ in range(100):
            loss = (w * 0.0).sum()  # zero data gradient
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert abs(w.data[0]) < 1.0

    def test_empty_params_raises(self):
        with pytest.raises(ValueError):
            nn.SGD([], lr=0.1)

    def test_clip_grad_norm(self):
        w = nn.Parameter(np.array([3.0, 4.0]))
        (w * w).sum().backward()  # grad = [6, 8], norm 10
        norm = nn.clip_grad_norm([w], max_norm=1.0)
        assert norm == pytest.approx(10.0)
        np.testing.assert_allclose(np.linalg.norm(w.grad), 1.0)


class TestLosses:
    def test_mse_zero_when_equal(self):
        x = Tensor(np.ones(5))
        assert nn.mse_loss(x, np.ones(5)).item() == 0.0

    def test_cross_entropy_matches_manual(self):
        logits = Tensor(np.array([[2.0, 0.0, 0.0]]))
        loss = nn.cross_entropy(logits, np.array([0]))
        manual = -np.log(np.exp(2) / (np.exp(2) + 2))
        assert loss.item() == pytest.approx(manual, rel=1e-6)

    def test_bce_symmetric(self):
        p = Tensor(np.array([0.7]))
        l1 = nn.binary_cross_entropy(p, np.array([1.0])).item()
        l0 = nn.binary_cross_entropy(Tensor(np.array([0.3])), np.array([0.0])).item()
        assert l1 == pytest.approx(l0, rel=1e-9)


class TestModuleContainer:
    def test_named_parameters_nested(self):
        model = nn.Sequential(nn.Linear(2, 3), nn.ReLU(), nn.Linear(3, 1))
        names = [n for n, _ in model.named_parameters()]
        assert "steps.0.weight" in names
        assert "steps.2.bias" in names

    def test_num_parameters(self):
        model = nn.Linear(10, 5)
        assert model.num_parameters() == 10 * 5 + 5

    def test_state_dict_roundtrip(self):
        m1 = nn.Sequential(nn.Linear(3, 4), nn.Tanh(), nn.Linear(4, 2))
        m2 = nn.Sequential(nn.Linear(3, 4), nn.Tanh(), nn.Linear(4, 2))
        for p in m2.parameters():
            p.data += 1.0  # make them differ
        m2.load_state_dict(m1.state_dict())
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3)))
        np.testing.assert_allclose(m1(x).data, m2(x).data)

    def test_load_rejects_mismatched_keys(self):
        m = nn.Linear(2, 2)
        with pytest.raises(KeyError):
            m.load_state_dict({"bogus": np.zeros(2)})

    def test_train_eval_propagates(self):
        model = nn.Sequential(nn.Dropout(0.5), nn.Linear(2, 2))
        model.eval()
        assert not model.steps[0].training
        model.train()
        assert model.steps[0].training

    def test_parameter_version_counts_assignments(self):
        p = nn.Parameter(np.ones(4))
        assert p.version == 0
        p.data = np.zeros(4)
        assert p.version == 1
        p.data -= 0.5  # augmented assignment re-assigns -> bumps too
        assert p.version == 2
        _ = p.data.sum()  # reads do not bump
        assert p.version == 2

    def test_parameter_version_bumps_on_optimizer_step(self):
        w = nn.Parameter(np.array([5.0, -3.0]))
        before = w.version
        loss = (Tensor(np.array([1.0, 1.0])) * w).sum()
        loss.backward()
        nn.SGD([w], lr=0.1).step()
        assert w.version == before + 1

    def test_parameter_version_bumps_on_state_dict_load(self):
        m1, m2 = nn.Linear(2, 2), nn.Linear(2, 2)
        versions = [p.version for p in m2.parameters()]
        m2.load_state_dict(m1.state_dict())
        assert all(p.version == v + 1
                   for p, v in zip(m2.parameters(), versions))

    def test_stack_concat(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.zeros((2, 3)), requires_grad=True)
        s = nn.stack([a, b], axis=1)
        assert s.shape == (2, 2, 3)
        c = nn.concatenate([a, b], axis=0)
        assert c.shape == (4, 3)
        (s.sum() + c.sum()).backward()
        np.testing.assert_allclose(a.grad, 2 * np.ones((2, 3)))

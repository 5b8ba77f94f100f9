"""Unit and gradient-check tests for the autograd engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Tensor, no_grad, tensor


def numeric_grad(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar-valued f at x."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return grad


def check_gradient(op, shape, seed=0, tol=1e-5, positive=False):
    rng = np.random.default_rng(seed)
    x_data = rng.normal(size=shape)
    if positive:
        x_data = np.abs(x_data) + 0.5
    x = Tensor(x_data.copy(), requires_grad=True)
    out = op(x)
    out.backward()
    num = numeric_grad(lambda arr: op(Tensor(arr)).item(), x_data.copy())
    np.testing.assert_allclose(x.grad, num, rtol=tol, atol=tol)


class TestBasicOps:
    def test_add(self):
        check_gradient(lambda x: (x + 3.0).sum(), (4, 3))

    def test_mul(self):
        check_gradient(lambda x: (x * x).sum(), (4, 3))

    def test_sub_neg(self):
        check_gradient(lambda x: (5.0 - x).sum(), (3,))

    def test_div(self):
        check_gradient(lambda x: (1.0 / x).sum(), (4,), positive=True)

    def test_pow(self):
        check_gradient(lambda x: (x ** 3).sum(), (3, 3))

    def test_exp(self):
        check_gradient(lambda x: x.exp().sum(), (4,))

    def test_log(self):
        check_gradient(lambda x: x.log().sum(), (4,), positive=True)

    def test_tanh(self):
        check_gradient(lambda x: x.tanh().sum(), (5,))

    def test_sigmoid(self):
        check_gradient(lambda x: x.sigmoid().sum(), (5,))

    def test_relu(self):
        # keep away from the kink at 0
        rng = np.random.default_rng(1)
        x_data = rng.normal(size=(10,))
        x_data[np.abs(x_data) < 0.1] = 0.5
        x = Tensor(x_data.copy(), requires_grad=True)
        x.relu().sum().backward()
        num = numeric_grad(lambda a: Tensor(a).relu().sum().item(), x_data.copy())
        np.testing.assert_allclose(x.grad, num, atol=1e-5)

    def test_sqrt(self):
        check_gradient(lambda x: x.sqrt().sum(), (4,), positive=True)

    def test_clip(self):
        rng = np.random.default_rng(2)
        x_data = rng.normal(size=(20,)) * 2
        x_data[np.abs(np.abs(x_data) - 1.0) < 0.05] = 0.0  # avoid clip boundary
        x = Tensor(x_data.copy(), requires_grad=True)
        x.clip(-1.0, 1.0).sum().backward()
        expected = ((x_data >= -1) & (x_data <= 1)).astype(float)
        np.testing.assert_allclose(x.grad, expected)


class TestBroadcasting:
    def test_broadcast_add_bias(self):
        x = Tensor(np.ones((4, 3)), requires_grad=True)
        b = Tensor(np.arange(3.0), requires_grad=True)
        (x + b).sum().backward()
        np.testing.assert_allclose(b.grad, [4.0, 4.0, 4.0])
        np.testing.assert_allclose(x.grad, np.ones((4, 3)))

    def test_broadcast_mul_scalar_tensor(self):
        x = Tensor(np.ones((2, 5)), requires_grad=True)
        s = Tensor(2.0, requires_grad=True)
        (x * s).sum().backward()
        assert s.grad == pytest.approx(10.0)

    def test_broadcast_keepdims_mean(self):
        x = Tensor(np.random.default_rng(0).normal(size=(3, 4)), requires_grad=True)
        m = x.mean(axis=1, keepdims=True)
        (x - m).sum().backward()
        # d/dx sum(x - mean(x)) = 0
        np.testing.assert_allclose(x.grad, np.zeros((3, 4)), atol=1e-12)


class TestMatmul:
    def test_matmul_2d(self):
        rng = np.random.default_rng(0)
        a_data = rng.normal(size=(3, 4))
        b_data = rng.normal(size=(4, 2))
        a = Tensor(a_data.copy(), requires_grad=True)
        b = Tensor(b_data.copy(), requires_grad=True)
        (a @ b).sum().backward()
        num_a = numeric_grad(lambda arr: (Tensor(arr) @ Tensor(b_data)).sum().item(), a_data.copy())
        num_b = numeric_grad(lambda arr: (Tensor(a_data) @ Tensor(arr)).sum().item(), b_data.copy())
        np.testing.assert_allclose(a.grad, num_a, atol=1e-6)
        np.testing.assert_allclose(b.grad, num_b, atol=1e-6)

    def test_matmul_batched(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 4, 5)), requires_grad=True)
        out = a @ b
        assert out.shape == (2, 3, 5)
        out.sum().backward()
        assert a.grad.shape == (2, 3, 4)
        assert b.grad.shape == (2, 4, 5)

    def test_matmul_broadcast_batch(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(5, 4, 2)), requires_grad=True)
        out = a @ b
        assert out.shape == (5, 3, 2)
        out.sum().backward()
        assert a.grad.shape == (3, 4)

    def test_matmul_rejects_vectors(self):
        with pytest.raises(ValueError):
            Tensor(np.ones(3)) @ Tensor(np.ones((3, 2)))


class TestReductionsAndShape:
    def test_sum_axis(self):
        x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        x.sum(axis=0).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((3, 4)))

    def test_max_gradient_splits_ties(self):
        x = Tensor(np.array([1.0, 3.0, 3.0]), requires_grad=True)
        x.max().backward()
        np.testing.assert_allclose(x.grad, [0.0, 0.5, 0.5])

    def test_max_axis(self):
        x = Tensor(np.array([[1.0, 5.0], [7.0, 2.0]]), requires_grad=True)
        x.max(axis=1).sum().backward()
        np.testing.assert_allclose(x.grad, [[0, 1], [1, 0]])

    def test_reshape_roundtrip(self):
        x = Tensor(np.arange(6.0), requires_grad=True)
        x.reshape(2, 3).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones(6))

    def test_transpose(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        y = x.transpose()
        assert y.shape == (3, 2)
        y.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 3)))

    def test_transpose_axes(self):
        x = Tensor(np.zeros((2, 3, 4)), requires_grad=True)
        y = x.transpose(0, 2, 1)
        assert y.shape == (2, 4, 3)
        y.sum().backward()
        assert x.grad.shape == (2, 3, 4)

    def test_getitem_fancy_index(self):
        x = Tensor(np.arange(10.0), requires_grad=True)
        y = x[np.array([1, 1, 3])]
        y.sum().backward()
        expected = np.zeros(10)
        expected[1] = 2.0  # picked twice
        expected[3] = 1.0
        np.testing.assert_allclose(x.grad, expected)


class TestSoftmax:
    def test_softmax_rows_sum_to_one(self):
        x = Tensor(np.random.default_rng(0).normal(size=(4, 7)))
        p = x.softmax(axis=-1)
        np.testing.assert_allclose(p.data.sum(axis=-1), np.ones(4), atol=1e-12)

    def test_softmax_gradient(self):
        rng = np.random.default_rng(3)
        x_data = rng.normal(size=(2, 5))
        w = rng.normal(size=(2, 5))  # weight to make loss non-symmetric
        x = Tensor(x_data.copy(), requires_grad=True)
        (x.softmax(axis=-1) * Tensor(w)).sum().backward()
        num = numeric_grad(
            lambda a: (Tensor(a).softmax(axis=-1) * Tensor(w)).sum().item(), x_data.copy())
        np.testing.assert_allclose(x.grad, num, atol=1e-6)

    def test_log_softmax_gradient(self):
        rng = np.random.default_rng(4)
        x_data = rng.normal(size=(3, 4))
        x = Tensor(x_data.copy(), requires_grad=True)
        x.log_softmax(axis=-1)[np.arange(3), np.array([0, 1, 2])].sum().backward()
        num = numeric_grad(
            lambda a: Tensor(a).log_softmax(axis=-1)[np.arange(3), np.array([0, 1, 2])].sum().item(),
            x_data.copy())
        np.testing.assert_allclose(x.grad, num, atol=1e-6)

    def test_softmax_stability_large_logits(self):
        x = Tensor(np.array([[1000.0, 1000.0, -1000.0]]))
        p = x.softmax(axis=-1)
        assert np.isfinite(p.data).all()
        np.testing.assert_allclose(p.data[0, :2], [0.5, 0.5])


class TestGraphMechanics:
    def test_no_grad_blocks_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = x * 2
        assert not y.requires_grad
        assert y._parents == ()

    def test_no_grad_is_thread_local(self):
        # Concurrent serve workers toggle grad mode independently: one
        # thread leaving no_grad must not re-enable it under another.
        import threading

        from repro.nn import is_grad_enabled

        inner_ok = []
        entered = threading.Event()
        release = threading.Event()

        def other_thread():
            assert is_grad_enabled()      # fresh thread: enabled default
            with no_grad():
                entered.set()
                release.wait(timeout=10)
                inner_ok.append(not is_grad_enabled())

        t = threading.Thread(target=other_thread)
        t.start()
        entered.wait(timeout=10)
        with no_grad():
            pass                          # enter+exit on the main thread
        release.set()                     # other thread must still be off
        t.join()
        assert inner_ok == [True]
        assert is_grad_enabled()

    def test_no_grad_not_inherited_by_spawned_threads(self):
        import threading

        from repro.nn import is_grad_enabled

        seen = []
        with no_grad():
            t = threading.Thread(target=lambda: seen.append(is_grad_enabled()))
            t.start()
            t.join()
        assert seen == [True]

    def test_no_grad_decorator_forms(self):
        from repro.nn import is_grad_enabled

        @no_grad
        def bare():
            return is_grad_enabled()

        @no_grad()
        def called():
            return is_grad_enabled()

        assert bare() is False and called() is False
        assert is_grad_enabled() is True

    def test_grad_accumulates_on_reuse(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * x + x  # dy/dx = 2x + 1 = 5
        y.backward()
        assert x.grad[0] == pytest.approx(5.0)

    def test_backward_nonscalar_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2).backward()

    def test_detach(self):
        x = Tensor(np.ones(2), requires_grad=True)
        d = x.detach()
        assert not d.requires_grad
        (d * 3).sum()  # no error, no graph

    def test_deep_chain_does_not_recurse(self):
        # iterative topo sort must handle chains beyond Python's recursion depth
        x = Tensor(np.array([1.0]), requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 1.0
        y.backward()
        assert x.grad[0] == pytest.approx(1.0)

    def test_masked_fill(self):
        x = Tensor(np.arange(4.0), requires_grad=True)
        mask = np.array([True, False, True, False])
        y = x.masked_fill(mask, -99.0)
        np.testing.assert_allclose(y.data, [-99, 1, -99, 3])
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [0, 1, 0, 1])


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=1, max_size=16))
def test_property_sum_gradient_is_ones(values):
    x = Tensor(np.array(values), requires_grad=True)
    x.sum().backward()
    np.testing.assert_allclose(x.grad, np.ones(len(values)))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-3, 3), min_size=2, max_size=12))
def test_property_softmax_invariant_to_shift(values):
    arr = np.array(values)
    p1 = Tensor(arr).softmax().data
    p2 = Tensor(arr + 10.0).softmax().data
    np.testing.assert_allclose(p1, p2, atol=1e-9)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5))
def test_property_matmul_shape(m, n):
    a = Tensor(np.ones((m, 3)))
    b = Tensor(np.ones((3, n)))
    assert (a @ b).shape == (m, n)
    np.testing.assert_allclose((a @ b).data, np.full((m, n), 3.0))

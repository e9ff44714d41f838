"""Tests for the autograd tensor: forward values and gradients."""

import numpy as np
import pytest

from repro.nn import Tensor, gradcheck, no_grad


class TestConstruction:
    def test_wraps_array_as_float64(self):
        t = Tensor([1, 2, 3])
        assert t.data.dtype == np.float64
        assert t.shape == (3,)

    def test_repr(self):
        assert "shape=(2,)" in repr(Tensor([1.0, 2.0]))

    def test_len_and_size(self):
        t = Tensor(np.ones((3, 4)))
        assert len(t) == 3
        assert t.size == 12
        assert t.ndim == 2


class TestArithmeticForward:
    def test_add(self):
        out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        assert np.array_equal(out.data, [4.0, 6.0])

    def test_add_scalar(self):
        out = Tensor([1.0]) + 2.0
        assert out.data[0] == 3.0

    def test_radd(self):
        out = 2.0 + Tensor([1.0])
        assert out.data[0] == 3.0

    def test_sub(self):
        out = Tensor([5.0]) - Tensor([3.0])
        assert out.data[0] == 2.0

    def test_rsub(self):
        out = 5.0 - Tensor([3.0])
        assert out.data[0] == 2.0

    def test_mul_broadcast(self):
        out = Tensor(np.ones((2, 3))) * Tensor([1.0, 2.0, 3.0])
        assert np.array_equal(out.data, [[1, 2, 3], [1, 2, 3]])

    def test_div(self):
        out = Tensor([6.0]) / Tensor([3.0])
        assert out.data[0] == 2.0

    def test_rdiv(self):
        out = 6.0 / Tensor([3.0])
        assert out.data[0] == 2.0

    def test_neg(self):
        assert (-Tensor([1.0])).data[0] == -1.0

    def test_pow(self):
        assert (Tensor([3.0]) ** 2).data[0] == 9.0

    def test_pow_non_scalar_rejected(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])

    def test_matmul_2d(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[1.0, 0.0], [0.0, 1.0]])
        assert np.array_equal((a @ b).data, a.data)

    def test_matmul_vec(self):
        m = Tensor([[1.0, 2.0], [3.0, 4.0]])
        v = Tensor([1.0, 1.0])
        assert np.array_equal((m @ v).data, [3.0, 7.0])


class TestBackwardBasics:
    def test_scalar_backward_default_grad(self):
        x = Tensor([2.0], requires_grad=True)
        y = (x * x).sum()
        y.backward()
        assert np.allclose(x.grad, [4.0])

    def test_backward_nonscalar_requires_grad_arg(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2).backward()

    def test_backward_wrong_grad_shape_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * 2
        with pytest.raises(ValueError):
            y.backward(np.ones(3))

    def test_grad_accumulates(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2).sum().backward()
        (x * 3).sum().backward()
        assert np.allclose(x.grad, [5.0])

    def test_zero_grad(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2).sum().backward()
        x.zero_grad()
        assert x.grad is None

    def test_diamond_graph_grad(self):
        # y = x*x + x*x must give dy/dx = 4x, not 2x.
        x = Tensor([3.0], requires_grad=True)
        a = x * x
        (a + a).sum().backward()
        assert np.allclose(x.grad, [12.0])

    def test_shared_subexpression(self):
        x = Tensor([2.0], requires_grad=True)
        s = x + 1.0
        y = (s * s).sum()
        y.backward()
        assert np.allclose(x.grad, [6.0])


class TestNoGrad:
    def test_no_graph_recorded(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2
        assert not y.requires_grad
        assert y._parents == ()

    def test_nested_restores(self):
        with no_grad():
            with no_grad():
                pass
            x = Tensor([1.0], requires_grad=True)
            assert not x.requires_grad
        x = Tensor([1.0], requires_grad=True)
        assert x.requires_grad


class TestGradcheckOps:
    """Central-difference validation of each primitive."""

    def test_add_broadcast(self, rng):
        b = rng.normal(size=(3,))
        gradcheck(lambda x: (x + Tensor(b)).sum(), rng.normal(size=(2, 3)))

    def test_mul_broadcast(self, rng):
        b = rng.normal(size=(3,))
        gradcheck(lambda x: (x * Tensor(b)).sum(), rng.normal(size=(2, 3)))

    def test_matmul(self, rng):
        b = rng.normal(size=(4, 5))
        gradcheck(lambda x: (x @ Tensor(b)).sum(), rng.normal(size=(3, 4)))

    def test_matmul_vector_left(self, rng):
        b = rng.normal(size=(4, 5))
        gradcheck(lambda x: (x @ Tensor(b)).sum(), rng.normal(size=(4,)))

    def test_matmul_vector_right(self, rng):
        m = rng.normal(size=(3, 4))
        gradcheck(lambda x: (Tensor(m) @ x).sum(), rng.normal(size=(4,)))

    def test_div(self, rng):
        b = rng.normal(size=(3,)) + 3.0
        gradcheck(lambda x: (x / Tensor(b)).sum(), rng.normal(size=(3,)))

    def test_div_denominator(self, rng):
        a = rng.normal(size=(3,))
        gradcheck(
            lambda x: (Tensor(a) / x).sum(), rng.normal(size=(3,)) + 3.0
        )

    def test_pow(self, rng):
        gradcheck(lambda x: (x**3).sum(), rng.random(4) + 0.5)

    def test_sum_axis(self, rng):
        gradcheck(lambda x: x.sum(axis=1).sum(), rng.normal(size=(3, 4)))

    def test_sum_keepdims(self, rng):
        gradcheck(
            lambda x: (x.sum(axis=0, keepdims=True) ** 2).sum(),
            rng.normal(size=(3, 4)),
        )

    def test_mean(self, rng):
        gradcheck(lambda x: x.mean(), rng.normal(size=(3, 4)))

    def test_mean_axis(self, rng):
        gradcheck(lambda x: (x.mean(axis=1) ** 2).sum(), rng.normal(size=(3, 4)))

    def test_reshape(self, rng):
        gradcheck(
            lambda x: (x.reshape(6) ** 2).sum(), rng.normal(size=(2, 3))
        )

    def test_transpose(self, rng):
        b = rng.normal(size=(3, 2))
        gradcheck(lambda x: (x.T * Tensor(b)).sum(), rng.normal(size=(2, 3)))

    def test_getitem(self, rng):
        gradcheck(lambda x: (x[1] ** 2).sum(), rng.normal(size=(3, 4)))

    def test_take_rows(self, rng):
        idx = np.array([0, 2, 2, 1])
        gradcheck(
            lambda x: (x.take_rows(idx) ** 2).sum(), rng.normal(size=(3, 4))
        )

    def test_softmax(self, rng):
        w = rng.normal(size=(4,))
        gradcheck(
            lambda x: (x.softmax(axis=-1) * Tensor(w)).sum(),
            rng.normal(size=(4,)),
        )

    def test_softmax_2d(self, rng):
        w = rng.normal(size=(2, 4))
        gradcheck(
            lambda x: (x.softmax(axis=1) * Tensor(w)).sum(),
            rng.normal(size=(2, 4)),
        )

    def test_log_softmax(self, rng):
        w = rng.normal(size=(2, 4))
        gradcheck(
            lambda x: (x.log_softmax(axis=1) * Tensor(w)).sum(),
            rng.normal(size=(2, 4)),
        )


class TestSoftmaxProperties:
    def test_softmax_sums_to_one(self, rng):
        s = Tensor(rng.normal(size=(5, 7))).softmax(axis=1)
        assert np.allclose(s.data.sum(axis=1), 1.0)

    def test_softmax_shift_invariance(self, rng):
        x = rng.normal(size=(6,))
        a = Tensor(x).softmax().data
        b = Tensor(x + 100.0).softmax().data
        assert np.allclose(a, b)

    def test_softmax_handles_large_values(self):
        s = Tensor([1000.0, 1000.0]).softmax().data
        assert np.allclose(s, [0.5, 0.5])

    def test_log_softmax_consistent(self, rng):
        x = rng.normal(size=(4,))
        assert np.allclose(
            Tensor(x).log_softmax().data, np.log(Tensor(x).softmax().data)
        )

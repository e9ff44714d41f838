"""Hypothesis property tests on the autograd engine."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.nn import Tensor, gradcheck

_floats = st.floats(
    min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False, width=64
)


def _matrix(max_side: int = 4):
    return arrays(
        dtype=np.float64,
        shape=array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=max_side),
        elements=_floats,
    )


def _vector(max_side: int = 6):
    return arrays(
        dtype=np.float64,
        shape=array_shapes(min_dims=1, max_dims=1, min_side=1, max_side=max_side),
        elements=_floats,
    )


@settings(max_examples=30, deadline=None)
@given(_matrix())
def test_softmax_rows_are_distributions(x):
    s = Tensor(x).softmax(axis=-1).data
    assert np.all(s >= 0)
    assert np.allclose(s.sum(axis=-1), 1.0)


@settings(max_examples=30, deadline=None)
@given(_vector())
def test_softmax_shift_invariant(x):
    a = Tensor(x).softmax().data
    b = Tensor(x + 7.5).softmax().data
    assert np.allclose(a, b, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(_matrix())
def test_sum_gradient_is_ones(x):
    t = Tensor(x, requires_grad=True)
    t.sum().backward()
    assert np.array_equal(t.grad, np.ones_like(x))


@settings(max_examples=25, deadline=None)
@given(_vector())
def test_linear_combination_gradcheck(x):
    w = np.linspace(-1.0, 1.0, x.size)
    gradcheck(lambda t: (t * Tensor(w)).sum(), x)


@settings(max_examples=20, deadline=None)
@given(_matrix(max_side=3), _matrix(max_side=3))
def test_matmul_shapes_and_values(a, b):
    if a.shape[1] != b.shape[0]:
        b = np.resize(b, (a.shape[1], 2))
    out = Tensor(a) @ Tensor(b)
    assert np.allclose(out.data, a @ b)


@settings(max_examples=25, deadline=None)
@given(_vector())
def test_add_commutative(x):
    y = x[::-1].copy()
    assert np.allclose(
        (Tensor(x) + Tensor(y)).data, (Tensor(y) + Tensor(x)).data
    )

"""conv2d gradients against a loop oracle, the constant-input path, and
the one-node avg_pool2d against the reshape/mean composition it replaced."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hxnn import tensor as T
from test_tensor import naive_conv2d
from oracle_ops import relu


def unit(shape, idx):
    e = np.zeros(shape)
    e[idx] = 1.0
    return e


def oracle_conv_grads(x, w, c, stride, padding):
    """Gradients of sum(c * conv(x, w)) by linearity: the derivative along
    a unit input (or filter) entry is the loss of the loop convolution
    with that entry alone."""
    gx = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        gx[idx] = np.sum(c * naive_conv2d(unit(x.shape, idx), w, stride, padding))
    gw = np.zeros_like(w)
    for idx in np.ndindex(w.shape):
        gw[idx] = np.sum(c * naive_conv2d(x, unit(w.shape, idx), stride, padding))
    return gx, gw


@st.composite
def conv_cases(draw):
    k = draw(st.integers(1, 3))
    stride = draw(st.integers(1, 3))
    padding = draw(st.integers(0, 2))
    h = draw(st.integers(max(1, k - 2 * padding), 6))
    wd = draw(st.integers(max(1, k - 2 * padding), 6))
    n, c, o = draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    return (n, c, h, wd), (o, c, k, k), stride, padding, seed


@given(conv_cases())
@settings(max_examples=30, deadline=None)
def test_conv2d_gradients_match_loop_oracle(case):
    x_shape, w_shape, stride, padding, seed = case
    rng = np.random.Generator(np.random.PCG64(seed))
    x = T.Tensor(rng.standard_normal(x_shape), requires_grad=True)
    w = T.Tensor(rng.standard_normal(w_shape), requires_grad=True)
    y = T.conv2d(x, w, stride=stride, padding=padding)
    c = rng.standard_normal(y.shape)
    T.backward(T.sum_(T.mul(y, T.Tensor(c))))
    gx, gw = oracle_conv_grads(x.data, w.data, c, stride, padding)
    assert np.max(np.abs(x.grad - gx)) < 1e-12
    assert np.max(np.abs(w.grad - gw)) < 1e-12


def test_constant_input_gets_no_gradient_and_same_filter_gradient():
    rng = np.random.Generator(np.random.PCG64(3))
    data = rng.standard_normal((4, 3, 8, 8))
    filters = rng.standard_normal((5, 3, 3, 3))
    c = rng.standard_normal((4, 5, 8, 8))
    grads = []
    for x_learns in (True, False):
        x = T.Tensor(data, requires_grad=x_learns)
        w = T.Tensor(filters, requires_grad=True)
        T.backward(T.sum_(T.mul(T.conv2d(x, w, padding=1), T.Tensor(c))))
        grads.append((x.grad, w.grad))
    (gx_var, gw_var), (gx_const, gw_const) = grads
    assert gx_var is not None and gx_const is None
    assert gw_var.tobytes() == gw_const.tobytes()


def old_avg_pool2d(x, window):
    """avg_pool2d as it was composed from reshape, sum and scale nodes."""
    n, c, h, w = x.data.shape
    return T.mean(T.reshape(x, (n, c, h // window, window, w // window, window)), axis=(3, 5))


def pool_data(rng, shape, relu_first):
    data = rng.standard_normal(shape)
    data *= 10.0 ** rng.uniform(-3, 3, data.shape)
    if relu_first:  # relu leaves -0.0 entries, whose sum numpy reports as +0.0
        data = relu(T.Tensor(data)).data
    return data


def assert_pool_matches_composition(data, window, g):
    results = []
    for pool in (T.avg_pool2d, old_avg_pool2d):
        x = T.Tensor(data, requires_grad=True)
        y = pool(x, window)
        T.backward(T.sum_(T.mul(y, T.Tensor(g))))
        results.append((y.data, x.grad))
    (y_new, gx_new), (y_old, gx_old) = results
    assert gx_new.tobytes() == gx_old.tobytes()
    assert y_new.tobytes() == y_old.tobytes()


@given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 3), st.integers(1, 2),
       st.integers(1, 3), st.booleans(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_avg_pool2d_equals_reshape_mean_composition(window, ho, wo, n, c, relu_first, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    data = pool_data(rng, (n, c, ho * window, wo * window), relu_first)
    assert_pool_matches_composition(data, window, rng.standard_normal((n, c, ho, wo)))


@pytest.mark.parametrize("shape", [(64, 24, 16, 16), (64, 24, 8, 8), (160, 24, 16, 16)])
def test_avg_pool2d_equals_reshape_mean_composition_at_the_blobs_shapes(shape):
    rng = np.random.Generator(np.random.PCG64(19))
    data = pool_data(rng, shape, relu_first=True)
    assert np.signbit(data[data == 0]).any()
    n, c, h, w = shape
    assert_pool_matches_composition(data, 2, rng.standard_normal((n, c, h // 2, w // 2)))


def test_avg_pool2d_is_one_graph_node():
    x = T.Tensor(np.ones((1, 2, 4, 4)), requires_grad=True)
    y = T.avg_pool2d(x, 2)
    assert y._parents == (x,)

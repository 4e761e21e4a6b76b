import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hxnn import tensor as T
from hxnn.errors import ShapeError
from oracle_ops import exp, log, relu, sigmoid

RNG = np.random.Generator(np.random.PCG64(0xC0FFEE))


def naive_conv2d(x, w, stride=1, padding=0):
    """Quadruple-loop cross-correlation reference."""
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((n, o, ho, wo))
    for b in range(n):
        for f in range(o):
            for y in range(ho):
                for z in range(wo):
                    patch = xp[b, :, y * stride : y * stride + kh, z * stride : z * stride + kw]
                    out[b, f, y, z] = np.sum(patch * w[f])
    return out


def test_matmul_identity():
    x = T.Tensor(RNG.standard_normal((3, 5)))
    eye = T.Tensor(np.eye(3))
    assert np.array_equal(T.matmul(eye, x).data, x.data)


def test_matmul_shape_error_mentions_shapes():
    a, b = T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((4, 5)))
    with pytest.raises(ShapeError, match=r"2, 3"):
        T.matmul(a, b)


def test_kron_identity_is_block_diagonal():
    f = RNG.standard_normal((2, 3))
    out = T.kron(T.Tensor(np.eye(2)), T.Tensor(f)).data
    assert np.array_equal(out[:2, :3], f)
    assert np.array_equal(out[2:, 3:], f)
    assert np.all(out[:2, 3:] == 0) and np.all(out[2:, :3] == 0)


def test_kron_matches_numpy_blockwise():
    a = RNG.standard_normal((2, 2))
    b = RNG.standard_normal((3, 3))
    got = T.kron(T.Tensor(a), T.Tensor(b)).data
    expect = np.zeros((6, 6))
    for i in range(2):
        for j in range(2):
            expect[3 * i : 3 * i + 3, 3 * j : 3 * j + 3] = a[i, j] * b
    assert np.allclose(got, expect, atol=0, rtol=0)


def test_conv2d_all_ones_example():
    x = T.Tensor(np.ones((1, 1, 3, 3)))
    w = T.Tensor(np.ones((1, 1, 2, 2)))
    out = T.conv2d(x, w).data
    assert out.shape == (1, 1, 2, 2)
    assert np.array_equal(out, np.full((1, 1, 2, 2), 4.0))


@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
def test_conv2d_matches_naive(stride, padding):
    x = RNG.standard_normal((2, 4, 8, 8))
    w = RNG.standard_normal((3, 4, 3, 3))
    got = T.conv2d(T.Tensor(x), T.Tensor(w), stride=stride, padding=padding).data
    assert np.max(np.abs(got - naive_conv2d(x, w, stride, padding))) < 1e-12


def test_conv2d_channel_mismatch():
    with pytest.raises(ShapeError):
        T.conv2d(T.Tensor(np.zeros((1, 3, 4, 4))), T.Tensor(np.zeros((2, 4, 2, 2))))


def test_softmax_rows_sum_to_one_and_shift_invariant():
    x = RNG.standard_normal((4, 7))
    y = T.softmax(T.Tensor(x), axis=1).data
    assert np.allclose(y.sum(axis=1), 1.0)
    y2 = T.softmax(T.Tensor(x + 123.0), axis=1).data
    assert np.allclose(y, y2)


def test_backward_sum_gives_ones():
    x = T.Tensor(RNG.standard_normal((3, 4)), requires_grad=True)
    T.backward(T.sum_(x))
    assert np.array_equal(x.grad, np.ones((3, 4)))


def test_backward_linear_map_adjoint():
    a = RNG.standard_normal((5, 3))
    x = T.Tensor(RNG.standard_normal((3, 2)), requires_grad=True)
    T.backward(T.sum_(T.matmul(T.Tensor(a), x)))
    expect = a.T @ np.ones((5, 2))
    assert np.max(np.abs(x.grad - expect)) < 1e-12


def test_backward_requires_scalar():
    x = T.Tensor(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError):
        T.backward(x)


def test_backward_accumulates_shared_subexpression():
    x = T.Tensor(np.array(3.0), requires_grad=True)
    y = T.mul(x, x)  # d/dx x^2 = 2x
    T.backward(y)
    assert x.grad == pytest.approx(6.0)


def test_unvisited_leaf_keeps_none_grad():
    x = T.Tensor(np.ones(3), requires_grad=True)
    w = T.Tensor(np.ones(3), requires_grad=True)
    T.backward(T.sum_(x))
    assert w.grad is None
    assert np.array_equal(x.grad, np.ones(3))


def test_no_grad_suppresses_graph():
    x = T.Tensor(np.ones(3), requires_grad=True)
    with T.no_grad():
        y = T.sum_(x)
    assert not y.requires_grad


def test_grad_check_quadratic():
    x = T.Tensor(RNG.standard_normal(6), requires_grad=True)
    err = T.grad_check(lambda t: T.sum_(T.mul(t, t)), x)
    assert err < 1e-8


def test_grad_check_relu_off_kink():
    data = RNG.standard_normal(8)
    data[np.abs(data) < 0.2] = 0.5
    x = T.Tensor(data, requires_grad=True)
    assert T.grad_check(lambda t: T.sum_(relu(t)), x) < 1e-6


def _const(rng, shape):
    return T.Tensor(rng.standard_normal(shape))


ONE = T.Tensor(np.ones((1, 1, 1)))  # the n = 1 grid: kron_linear's W is its one block


def op_case(name, rng):
    """Build (input data, scalar function with frozen constants)."""
    if name == "matmul":
        b, c = _const(rng, (4, 3)), _const(rng, (4, 3))
        return (4, 4), lambda p: T.sum_(T.mul(T.matmul(p, b), c))
    if name == "batch_matmul":
        b = _const(rng, (2, 4, 3))
        return (2, 3, 4), lambda p: T.sum_(T.matmul(p, b))
    if name == "conv":
        w, c = _const(rng, (2, 3, 2, 2)), _const(rng, (1, 2, 3, 3))
        return (1, 3, 4, 4), lambda p: T.sum_(T.mul(T.conv2d(p, w, stride=2, padding=1), c))
    if name == "conv_w":
        x = _const(rng, (1, 3, 4, 4))
        return (2, 3, 2, 2), lambda p: T.sum_(T.conv2d(x, p, padding=1))
    if name == "sigmoid":
        return (3, 4), lambda p: T.sum_(sigmoid(p))
    if name == "softmax":
        c = _const(rng, (3, 4))
        return (3, 4), lambda p: T.sum_(T.mul(T.softmax(p, axis=1), c))
    if name == "kron":
        b, c = _const(rng, (3, 2)), _const(rng, (9, 8))
        return (3, 4), lambda p: T.sum_(T.mul(T.kron(p, b), c))
    if name == "blockkron":
        f = _const(rng, (2, 2, 3, 3))
        return (3, 3), lambda p: T.sum_(T.blockwise_kron2d(p, f))
    if name == "concat":
        c = _const(rng, (3, 8))
        return (3, 4), lambda p: T.sum_(T.mul(T.concat([p, p], axis=1), c))
    if name == "narrow":
        return (3, 4), lambda p: T.sum_(T.narrow(p, 1, 1, 2))
    if name == "mean":
        return (3, 4), lambda p: T.mean(p)
    if name == "bias2d":
        x, c = _const(rng, (5, 4)), _const(rng, (5, 4))
        return (4,), lambda p: T.sum_(T.mul(T.bias_act(x, p, "none"), c))
    if name == "bias4d":
        x, c = _const(rng, (2, 3, 4, 4)), _const(rng, (2, 3, 4, 4))
        return (3,), lambda p: T.sum_(T.mul(T.bias_act(x, p, "sigmoid"), c))
    if name == "linear_x":
        f, b, c = _const(rng, (1, 3, 4)), _const(rng, (3,)), _const(rng, (2, 5, 3))
        return (2, 5, 4), lambda p: T.sum_(T.mul(T.kron_linear(p, ONE, f, b, "sigmoid"), c))
    if name == "linear_w":
        x, c = _const(rng, (5, 4)), _const(rng, (5, 3))
        return (1, 3, 4), lambda p: T.sum_(T.mul(T.kron_linear(x, ONE, p, None, "none"), c))
    if name == "avgpool":
        c = _const(rng, (1, 2, 2, 2))
        return (1, 2, 4, 4), lambda p: T.sum_(T.mul(T.avg_pool2d(p, 2), c))
    if name == "exp":
        return (3, 4), lambda p: T.sum_(exp(p))
    if name == "log":
        return None, lambda p: T.sum_(log(p))
    raise AssertionError(name)


OP_NAMES = [
    "matmul", "batch_matmul", "conv", "conv_w", "sigmoid", "softmax", "kron",
    "blockkron", "concat", "narrow", "mean", "bias2d", "bias4d", "linear_x", "linear_w",
    "avgpool", "exp", "log",
]


@pytest.mark.parametrize("name", OP_NAMES)
def test_every_op_matches_finite_differences(name):
    rng = np.random.Generator(np.random.PCG64(0xBEEF))
    shape, f = op_case(name, rng)
    data = rng.uniform(0.5, 2.0, (3, 4)) if shape is None else rng.standard_normal(shape)
    x = T.Tensor(data, requires_grad=True)
    assert T.grad_check(f, x) < 1e-6


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_kron_vec_consistency(seed):
    # (A kron B) @ vec-stacked blocks agrees with the blockwise definition
    rng = np.random.Generator(np.random.PCG64(seed))
    a = rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3))
    big = T.kron(T.Tensor(a), T.Tensor(b)).data
    x = rng.standard_normal(6)
    blocks = x.reshape(2, 3)
    expect = np.concatenate([sum(a[i, j] * (b @ blocks[j]) for j in range(2)) for i in range(2)])
    assert np.max(np.abs(big @ x - expect)) < 1e-12


def test_reshape_roundtrip_gradient():
    x = T.Tensor(RNG.standard_normal((2, 6)), requires_grad=True)
    y = T.reshape(x, (3, 4))
    T.backward(T.sum_(T.mul(y, y)))
    assert x.grad.shape == (2, 6)
    assert np.max(np.abs(x.grad - 2 * x.data)) < 1e-12

"""conv2d's data movement against the im2col/col2im loops it replaced.

``T.conv2d`` builds its columns as one copy of a strided window view and
folds the input gradient back with one GEMM and one contiguous add per
tap, on a phase layout of the padded grid.  The loop form it replaced is
kept here, as it was written, and serves as the oracle: the output, the
input gradient and the filter gradient must match it to the bit, alone
and through whole training runs.

Both forms run the same dot products over the output channels.  NumPy
hands a product with one row or one column to BLAS's gemv, which may sum
in another order than its gemm; the loop form has one column when the
output is a single pixel, the tap form one row when the input has a
single channel.  There the input gradient is compared to rounding, and
everywhere else to the bit.
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hxnn import tensor as T
from hxnn import training as tr
from hxnn.errors import ShapeError


def old_conv2d(x, w, stride=1, padding=0):
    """conv2d as it was: ``np.pad``, kh*kw strided slice copies into the
    columns, and kh*kw strided adds of one big column gradient."""
    n, c, h, wd = x.data.shape
    o, _, kh, kw = w.data.shape
    hp, wp = h + 2 * padding, wd + 2 * padding
    ho, wo = (hp - kh) // stride + 1, (wp - kw) // stride + 1
    xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((n, c, kh, kw, ho, wo))
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride]
    cols2 = cols.reshape(n, c * kh * kw, ho * wo)
    wf = w.data.reshape(o, c * kh * kw)
    out = (wf @ cols2).reshape(n, o, ho, wo)

    def vjp(g):
        g2 = g.reshape(n, o, ho * wo)
        gw = (g2 @ cols2.transpose(0, 2, 1)).sum(axis=0).reshape(o, c, kh, kw)
        if not x.requires_grad:
            return None, gw
        gcols = (wf.T @ g2).reshape(n, c, kh, kw, ho, wo)
        gxp = np.zeros((n, c, hp, wp))
        for i in range(kh):
            for j in range(kw):
                gxp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += gcols[:, :, i, j]
        return gxp[:, :, padding : padding + h, padding : padding + wd].copy(), gw

    return T._node(out, (x, w), vjp)


def gen(seed):
    return np.random.Generator(np.random.PCG64(seed))


def conv_bits(conv, xd, wd, g, stride, padding, x_learns):
    x = T.Tensor(xd, requires_grad=x_learns)
    w = T.Tensor(wd, requires_grad=True)
    y = conv(x, w, stride=stride, padding=padding)
    T.backward(T.sum_(T.mul(y, T.Tensor(g))))
    return y.data, x.grad, w.grad


@st.composite
def conv_cases(draw):
    stride, padding = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    kh, kw = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    h = draw(st.integers(max(1, kh - 2 * padding), 9))
    wd = draw(st.integers(max(1, kw - 2 * padding), 9))
    n, c, o = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 24))
    x_learns, seed = draw(st.booleans()), draw(st.integers(0, 2**32 - 1))
    return (n, c, h, wd), (o, c, kh, kw), stride, padding, x_learns, seed


@given(conv_cases())
@settings(max_examples=150, deadline=None)
def test_conv2d_matches_the_loop_form_bit_for_bit(case):
    x_shape, w_shape, stride, padding, x_learns, seed = case
    r = gen(seed)
    xd, wd = r.standard_normal(x_shape), r.standard_normal(w_shape)
    ho = (x_shape[2] + 2 * padding - w_shape[2]) // stride + 1
    wo = (x_shape[3] + 2 * padding - w_shape[3]) // stride + 1
    g = r.standard_normal((x_shape[0], w_shape[0], ho, wo))
    g[r.random(g.shape) < 0.3] = 0.0
    g[r.random(g.shape) < 0.2] *= 0.0  # relu masks pass back +0.0 and -0.0
    (y, gx, gw), (y_old, gx_old, gw_old) = (
        conv_bits(conv, xd, wd, g, stride, padding, x_learns) for conv in (T.conv2d, old_conv2d))
    assert y.tobytes() == y_old.tobytes()
    assert gw.tobytes() == gw_old.tobytes()
    if not x_learns:
        assert gx is None and gx_old is None
    elif x_shape[1] > 1 and ho * wo > 1:
        assert gx.tobytes() == gx_old.tobytes()
    else:  # a gemv on one side (see the module docstring)
        assert np.allclose(gx, gx_old, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("stride", [1, 2, 3])
def test_negative_zero_gradients_match_at_every_stride(stride):
    r = gen(stride)
    xd, wd = r.standard_normal((8, 6, 9, 7)), r.standard_normal((24, 6, 3, 3))
    ho, wo = (9 + 2 - 3) // stride + 1, (7 + 2 - 3) // stride + 1
    g = -np.abs(r.standard_normal((8, 24, ho, wo))) * (r.random((8, 24, ho, wo)) < 0.5)
    new, old = (conv_bits(conv, xd, wd, g, stride, 1, True) for conv in (T.conv2d, old_conv2d))
    assert np.signbit(g[g == 0]).all()  # every masked entry is -0.0
    assert [a.tobytes() for a in new] == [a.tobytes() for a in old]


BATCH_CASES = [((64, 24, h, h), (24, 24, 3, 3), stride, 1) for h in (8, 4) for stride in (1, 2)]
BATCH_CASES += [((64, 24, 8, 8), (24, 24, 1, 1), 1, 1)]  # padding > kernel - 1: the grid must still hold ho


@pytest.mark.parametrize("x_shape, w_shape, stride, padding", BATCH_CASES)
def test_batch_64_convs_match_the_loop_form_bit_for_bit(x_shape, w_shape, stride, padding):
    """The blobs networks' conv shapes, at a batch large enough that the
    last sample's last kept row meets the tap GEMMs' last columns."""
    r = gen(x_shape[2] + w_shape[2] + stride)
    xd, wd = r.standard_normal(x_shape), r.standard_normal(w_shape)
    ho = (x_shape[2] + 2 * padding - w_shape[2]) // stride + 1
    wo = (x_shape[3] + 2 * padding - w_shape[3]) // stride + 1
    g = r.standard_normal((x_shape[0], w_shape[0], ho, wo))
    g[r.random(g.shape) < 0.3] = 0.0
    g[r.random(g.shape) < 0.2] *= 0.0  # relu masks pass back +0.0 and -0.0
    new, old = (conv_bits(conv, xd, wd, g, stride, padding, True) for conv in (T.conv2d, old_conv2d))
    assert [a.tobytes() for a in new] == [a.tobytes() for a in old]


def trained_bits(build, data, config):
    model = build()
    metrics = tr.train(model, data, config)
    return [p.data.tobytes() for p in model.parameters()], metrics.losses, metrics.scores


@pytest.mark.parametrize("kind", ["phc", "real"])
def test_a_blobs_epoch_matches_the_loop_form_bit_for_bit(kind, monkeypatch):
    data = tr.make_rgb_blobs(5, samples_per_class=48, size=16)
    config = tr.TrainConfig(seed=2, epochs=1, batch_size=64, lr=3e-3, task="classification")
    build = lambda: tr.blobs_classifier(kind, 42, channels=24)
    new = trained_bits(build, data, config)
    with monkeypatch.context() as m:
        m.setattr(T, "conv2d", old_conv2d)
        old = trained_bits(build, data, config)
    assert new == old


def test_the_input_gradient_allocates_less_than_the_old_column_gradient():
    n, c, h, k = 64, 24, 8, 3
    r = gen(0)
    x = T.Tensor(r.standard_normal((n, c, h, h)), requires_grad=True)
    w = T.Tensor(r.standard_normal((c, c, k, k)), requires_grad=True)
    y = T.conv2d(x, w, padding=1)
    g = r.standard_normal(y.data.shape)
    tracemalloc.start()
    try:
        gx, gw = y._vjp(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gx.shape == x.data.shape and gw.shape == w.data.shape
    assert peak < n * c * k * k * h * h * 8  # the (n, c*k*k, L) column gradient: 7.1 MB


@pytest.mark.parametrize("stride, padding", [(0, 0), (-1, 1), (1, -1)])
def test_a_bad_stride_or_padding_raises_shape_error(stride, padding):
    x, w = T.Tensor(np.zeros((1, 2, 5, 5))), T.Tensor(np.zeros((3, 2, 3, 3)))
    with pytest.raises(ShapeError, match="bad stride"):
        T.conv2d(x, w, stride=stride, padding=padding)

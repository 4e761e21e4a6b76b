import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hxnn import algebra as alg
from hxnn import layers as L
from hxnn import tensor as T
from hxnn.errors import DivisibilityError, ShapeError
from oracle_ops import pad_channels

SEED = 0xC0FFEE


def rng(seed=SEED):
    return np.random.Generator(np.random.PCG64(seed))


def set_blocks(layer, arrays):
    for blk, arr in zip(layer.f.data, arrays):
        blk[...] = arr


def test_assembled_quaternion_block_layout():
    q = alg.builtin("quaternion")
    layer = L.HFCLayer(q, 4, 4, activation="none", rng=rng())
    w = rng(1).standard_normal(4)
    set_blocks(layer, [np.array([[wi]]) for wi in w])
    got = layer.assembled().data
    w0, w1, w2, w3 = w
    expect = np.array([
        [w0, -w1, -w2, -w3],
        [w1, w0, -w3, w2],
        [w2, w3, w0, -w1],
        [w3, -w2, w1, w0],
    ])
    assert np.array_equal(got, expect)


def test_assembled_complex_example():
    c = alg.builtin("complex")
    layer = L.HFCLayer(c, 2, 2, activation="none", rng=rng())
    set_blocks(layer, [np.array([[1.0]]), np.array([[2.0]])])
    assert np.array_equal(layer.assembled().data, [[1.0, -2.0], [2.0, 1.0]])


def test_assembled_real_is_single_block():
    r = alg.builtin("real")
    layer = L.HFCLayer(r, 3, 5, activation="none", rng=rng())
    assert np.array_equal(layer.assembled().data, layer.f.data[0])


def test_assembled_dual_quaternion_zero_block():
    d = alg.builtin("dual_quaternion")
    layer = L.HFCLayer(d, 8, 8, activation="none", rng=rng())
    w = layer.assembled().data
    assert np.all(w[:4, 4:] == 0.0)


@pytest.mark.parametrize("name", alg.BUILTIN_NAMES)
def test_scalar_hfc_equals_algebra_multiply(name):
    # 1000 seeded (w, x) pairs: 20 weight draws, 50 inputs batched per draw
    a = alg.builtin(name)
    n = a.n
    layer = L.HFCLayer(a, n, n, activation="none", bias=False, rng=rng())
    r = rng(7)
    for _ in range(20):
        w = r.standard_normal(n)
        xs = r.standard_normal((50, n))
        set_blocks(layer, [np.array([[wi]]) for wi in w])
        got = layer(T.Tensor(xs)).data
        for x, row in zip(xs, got):
            expect = alg.multiply(a, a.element(w), a.element(x)).coeffs
            assert np.max(np.abs(row - expect)) < 1e-12


def test_hfc_identity_blocks_pass_through():
    q = alg.builtin("quaternion")
    layer = L.HFCLayer(q, 8, 8, activation="none", rng=rng())
    set_blocks(layer, [np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2))])
    x = rng(3).standard_normal((5, 8))
    assert np.max(np.abs(layer(T.Tensor(x)).data - x)) < 1e-12


def test_hfc_linear_before_activation():
    q = alg.builtin("quaternion")
    layer = L.HFCLayer(q, 8, 4, activation="none", bias=False, rng=rng())
    r = rng(11)
    x, y = r.standard_normal((3, 8)), r.standard_normal((3, 8))
    fx = layer(T.Tensor(x)).data
    fy = layer(T.Tensor(y)).data
    fxy = layer(T.Tensor(x + 2.0 * y)).data
    assert np.max(np.abs(fxy - (fx + 2.0 * fy))) < 1e-12


def test_param_counts():
    q = alg.builtin("quaternion")
    free, dense = L.HFCLayer(q, 64, 64, rng=rng()).param_count()
    assert (free, dense) == (1024 + 64, 4096 + 64)
    r = alg.builtin("real")
    free, dense = L.HFCLayer(r, 16, 16, rng=rng()).param_count()
    assert free == dense
    o = alg.builtin("octonion")
    free, dense = L.HFCLayer(o, 64, 64, bias=False, rng=rng()).param_count()
    assert (free, dense) == (512, 4096)
    conv = L.HConv2DLayer(q, 8, 8, 3, bias=False, rng=rng())
    assert conv.param_count() == (144, 576)


def test_divisibility_errors():
    q = alg.builtin("quaternion")
    with pytest.raises(DivisibilityError):
        L.HFCLayer(q, 6, 4)
    with pytest.raises(DivisibilityError):
        L.HConv2DLayer(q, 3, 4, 3)


def test_hconv_1x1_equals_pixelwise_hfc():
    q = alg.builtin("quaternion")
    conv = L.HConv2DLayer(q, 8, 4, 1, activation="none", rng=rng())
    fc = L.HFCLayer(q, 8, 4, activation="none", rng=rng())
    for cb, fb in zip(conv.f.data, fc.f.data):
        fb[...] = cb[:, :, 0, 0]
    fc.bias.data[...] = conv.bias.data
    x = rng(5).standard_normal((2, 8, 3, 3))
    via_conv = conv(T.Tensor(x)).data
    flat = np.moveaxis(x, 1, -1).reshape(-1, 8)
    via_fc = fc(T.Tensor(flat)).data.reshape(2, 3, 3, 4)
    assert np.max(np.abs(via_conv - np.moveaxis(via_fc, -1, 1))) < 1e-12


def test_hconv_zero_filters_gives_activated_bias():
    q = alg.builtin("quaternion")
    conv = L.HConv2DLayer(q, 4, 4, 3, padding=1, activation="relu", rng=rng())
    set_blocks(conv, [np.zeros((1, 1, 3, 3))] * 4)
    conv.bias.data[...] = np.array([1.0, -1.0, 2.0, -2.0])
    y = conv(T.Tensor(rng(9).standard_normal((1, 4, 5, 5)))).data
    expect = np.maximum(np.array([1.0, -1.0, 2.0, -2.0]), 0.0)
    assert np.array_equal(y[0, :, 2, 2], expect)


def test_hconv_channel_mismatch():
    q = alg.builtin("quaternion")
    conv = L.HConv2DLayer(q, 4, 4, 3, rng=rng())
    with pytest.raises(ShapeError):
        conv(T.Tensor(np.zeros((1, 8, 5, 5))))


def test_hatt_zero_convs_halve_input_under_sigmoid():
    q = alg.builtin("quaternion")
    att = L.HAttBlock(q, 4, kernel=3, rng=rng())
    for conv in (att.feature, att.fuse, att.proj):
        set_blocks(conv, [np.zeros_like(b) for b in conv.f.data])
        conv.bias.data[...] = 0.0
    x = rng(13).standard_normal((2, 4, 4, 4))
    y = att(T.Tensor(x)).data
    assert np.max(np.abs(y - 0.5 * x)) < 1e-12


def test_hatt_output_bounded_by_input():
    q = alg.builtin("quaternion")
    att = L.HAttBlock(q, 4, kernel=3, rng=rng(21))
    x = np.abs(rng(22).standard_normal((1, 4, 5, 5))) + 0.1
    y = att(T.Tensor(x)).data
    ratio = y / x
    assert np.all(ratio > 0.0) and np.all(ratio < 1.0)
    assert y.shape == x.shape


def test_hatt_identity_gate_with_unit_map():
    q = alg.builtin("quaternion")
    att = L.HAttBlock(q, 4, kernel=3, gate="none", rng=rng())
    for conv in (att.feature, att.fuse, att.proj):
        set_blocks(conv, [np.zeros_like(b) for b in conv.f.data])
        conv.bias.data[...] = 0.0
    att.proj.bias.data[...] = 1.0  # a = all-ones, no gate: y = x
    x = rng(23).standard_normal((1, 4, 3, 3))
    assert np.max(np.abs(att(T.Tensor(x)).data - x)) < 1e-12


def test_graph_normalized_adjacency_two_node_path():
    g = L.Graph(2, [(0, 1)], np.zeros((2, 4)))
    assert np.max(np.abs(g.normalized_adjacency - 0.5)) < 1e-15


def test_graph_layer_isolated_node_is_fc():
    q = alg.builtin("quaternion")
    layer = L.HGraphConvLayer(q, 4, 4, activation="none", rng=rng())
    feats = rng(31).standard_normal((1, 4))
    g = L.Graph(1, [], feats)
    got = layer.forward_graph(g).data
    expect = L.KronLinear.forward(layer, T.Tensor(feats)).data  # its own FC map
    assert np.max(np.abs(got - expect)) < 1e-12


def test_graph_layer_identity_weights_aggregates():
    q = alg.builtin("quaternion")
    layer = L.HGraphConvLayer(q, 4, 4, activation="none", rng=rng())
    set_blocks(layer, [np.eye(1), np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1))])
    feats = rng(37).standard_normal((2, 4))
    g = L.Graph(2, [(0, 1)], feats)
    got = layer.forward_graph(g).data
    assert np.max(np.abs(got - g.normalized_adjacency @ feats)) < 1e-12


def test_graph_layer_count_law():
    q = alg.builtin("quaternion")
    assert L.HGraphConvLayer(q, 16, 8, rng=rng()).param_count() == (16 * 8 // 4 + 8, 16 * 8 + 8)


def test_pad_channels_is_explicit_and_exact():
    x = T.Tensor(np.ones((1, 3, 2, 2)))
    y = pad_channels(x, 4)
    assert y.data.shape == (1, 4, 2, 2)
    assert np.all(y.data[:, 3] == 0.0)
    same = pad_channels(x, 3)
    assert same is x


GRAD_LAYERS = ["hfc", "hconv", "hatt", "hgraph"]


@pytest.mark.parametrize("kind", GRAD_LAYERS)
def test_layer_gradients_match_finite_differences(kind):
    q = alg.builtin("quaternion")
    r = rng(101)
    if kind == "hfc":
        layer = L.HFCLayer(q, 4, 4, activation="relu", rng=r)
        x = T.Tensor(r.standard_normal((3, 4)))
        loss = lambda: T.sum_(T.mul(layer(x), layer(x)))
    elif kind == "hconv":
        layer = L.HConv2DLayer(q, 4, 4, 2, padding=1, activation="relu", rng=r)
        x = T.Tensor(r.standard_normal((2, 4, 3, 3)))
        loss = lambda: T.sum_(T.mul(layer(x), layer(x)))
    elif kind == "hatt":
        layer = L.HAttBlock(q, 4, kernel=3, rng=r)
        x = T.Tensor(r.standard_normal((1, 4, 3, 3)))
        loss = lambda: T.sum_(T.mul(layer(x), layer(x)))
    else:
        layer = L.HGraphConvLayer(q, 4, 4, activation="relu", rng=r)
        g = L.Graph(3, [(0, 1), (1, 2)], r.standard_normal((3, 4)))
        loss = lambda: T.sum_(T.mul(layer.forward_graph(g), layer.forward_graph(g)))

    for p in layer.parameters():
        err = T.grad_check(lambda _: loss(), p)
        assert err < 1e-6, f"{kind}: {err}"


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_hfc_scalar_oracle_property(seed):
    r = np.random.Generator(np.random.PCG64(seed))
    name = r.choice(["complex", "quaternion", "tessarine", "octonion"])
    a = alg.builtin(str(name))
    layer = L.HFCLayer(a, a.n, a.n, activation="none", bias=False, rng=r)
    w = r.standard_normal(a.n)
    x = r.standard_normal(a.n)
    set_blocks(layer, [np.array([[wi]]) for wi in w])
    got = layer(T.Tensor(x[None, :])).data[0]
    expect = alg.multiply(a, a.element(w), a.element(x)).coeffs
    assert np.max(np.abs(got - expect)) < 1e-12

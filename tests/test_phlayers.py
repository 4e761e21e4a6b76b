import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hxnn import algebra as alg
from hxnn import layers as L
from hxnn import phlayers as P
from hxnn import tensor as T
from hxnn.errors import AlgebraMismatch, DivisibilityError


def rng(seed=0xC0FFEE):
    return np.random.Generator(np.random.PCG64(seed))


def naive_kron_sum(a_list, f_list):
    """Independent oracle: explicit block loop, no np.kron."""
    n = a_list[0].shape[0]
    p, q = f_list[0].shape
    w = np.zeros((n * p, n * q))
    for ai, fi in zip(a_list, f_list):
        for r in range(n):
            for c in range(n):
                w[r * p : (r + 1) * p, c * q : (c + 1) * q] += ai[r, c] * fi
    return w


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_phm_weight_matches_naive_block_assembly(n):
    layer = P.PHMLayer(n, 2 * n, 3 * n, rng=rng(n))
    got = layer.weight().data
    expect = naive_kron_sum(list(layer.a.data), list(layer.f.data))
    assert np.array_equal(got, expect)


def test_phm_complex_pattern_example():
    layer = P.PHMLayer(2, 4, 4, rng=rng())
    layer.a.data[0] = np.eye(2)
    layer.a.data[1] = np.array([[0.0, -1.0], [1.0, 0.0]])
    f1, f2 = layer.f.data[0], layer.f.data[1]
    w = layer.weight().data
    assert np.array_equal(w[:2, :2], f1)
    assert np.array_equal(w[:2, 2:], -f2)
    assert np.array_equal(w[2:, :2], f2)
    assert np.array_equal(w[2:, 2:], f1)


def test_phm_n1_is_scaled_real_layer():
    layer = P.PHMLayer(1, 3, 2, rng=rng())
    layer.a.data[0] = np.array([[2.0]])
    x = rng(1).standard_normal((4, 3))
    got = layer(T.Tensor(x)).data
    expect = x @ (2.0 * layer.f.data[0]).T + layer.bias.data
    assert np.max(np.abs(got - expect)) < 1e-12


def test_phm_zero_a_outputs_bias():
    layer = P.PHMLayer(2, 4, 4, rng=rng())
    layer.a.data[...] = 0.0
    layer.bias.data[...] = np.arange(4.0)
    y = layer(T.Tensor(rng(2).standard_normal((3, 4)))).data
    assert np.array_equal(y, np.tile(np.arange(4.0), (3, 1)))


def test_phm_param_count():
    layer = P.PHMLayer(4, 64, 64, rng=rng())
    free, dense = layer.param_count()
    assert (free, dense) == (64 + 1024 + 64, 4096 + 64)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_count_law(n):
    d = s = 8 * n
    free, dense = P.PHMLayer(n, d, s, bias=False, rng=rng()).param_count()
    assert free == n**3 + s * d // n
    assert dense == s * d


@pytest.mark.parametrize(
    "name,n", [("real", 1), ("complex", 2), ("quaternion", 4), ("octonion", 8)]
)
def test_collapse_matches_algebra_layer(name, n):
    a = alg.builtin(name)
    d, s = 4 * n, 2 * n
    hfc = L.HFCLayer(a, d, s, activation="none", rng=rng(n))
    phm = P.PHMLayer(n, d, s, rng=rng(n + 1))
    P.collapse_to_algebra(phm, a)
    for fi, bi in zip(phm.f.data, hfc.f.data):
        fi[...] = bi
    phm.bias.data[...] = hfc.bias.data
    x = rng(99).standard_normal((1000, d))
    got = phm(T.Tensor(x)).data
    expect = hfc(T.Tensor(x)).data
    assert np.max(np.abs(got - expect)) < 1e-12
    # frozen grid matrices are out of the trainable set
    assert not phm.a.requires_grad
    assert phm.a not in phm.parameters()


def test_collapse_complex_grid_matrices():
    phm = P.PHMLayer(2, 4, 4, rng=rng())
    P.collapse_to_algebra(phm, alg.builtin("complex"))
    assert np.array_equal(phm.a.data[0], np.eye(2))
    assert np.array_equal(phm.a.data[1], [[0.0, -1.0], [1.0, 0.0]])


def test_collapse_real_identity():
    phm = P.PHMLayer(1, 3, 3, rng=rng())
    P.collapse_to_algebra(phm, alg.builtin("real"))
    assert np.array_equal(phm.a.data[0], [[1.0]])


def test_collapse_dimension_mismatch():
    phm = P.PHMLayer(2, 4, 4, rng=rng())
    with pytest.raises(AlgebraMismatch):
        P.collapse_to_algebra(phm, alg.builtin("quaternion"))


def test_phc_matches_dense_conv_oracle():
    layer = P.PHCLayer(3, 3, 3, 1, rng=rng())
    x = rng(5).standard_normal((2, 3, 4, 4))
    got = layer(T.Tensor(x)).data
    bank = np.zeros((3, 3, 1, 1))
    for ai, fi in zip(layer.a.data, layer.f.data):
        for r in range(3):
            for c in range(3):
                bank[r : r + 1, c : c + 1] += ai[r, c] * fi
    expect = T.conv2d(T.Tensor(x), T.Tensor(bank)).data + layer.bias.data[None, :, None, None]
    assert np.max(np.abs(got - expect)) < 1e-12


def test_phc_n3_runs_on_rgb_without_padding():
    layer = P.PHCLayer(3, 3, 6, 3, padding=1, rng=rng())
    y = layer(T.Tensor(rng(6).standard_normal((2, 3, 8, 8))))
    assert y.data.shape == (2, 6, 8, 8)


def test_phc_param_count_example():
    layer = P.PHCLayer(3, 24, 24, 3, bias=False, rng=rng())
    free, dense = layer.param_count()
    assert (free, dense) == (27 + 1728, 5184)


def test_phc_divisibility():
    with pytest.raises(DivisibilityError):
        P.PHCLayer(4, 6, 8, 3)


def test_phc_collapse_matches_hconv():
    q = alg.builtin("quaternion")
    conv = L.HConv2DLayer(q, 4, 8, 3, padding=1, activation="none", rng=rng(3))
    phc = P.PHCLayer(4, 4, 8, 3, padding=1, rng=rng(4))
    P.collapse_to_algebra(phc, q)
    for fi, bi in zip(phc.f.data, conv.f.data):
        fi[...] = bi
    phc.bias.data[...] = conv.bias.data
    x = rng(7).standard_normal((2, 4, 5, 5))
    assert np.max(np.abs(phc(T.Tensor(x)).data - conv(T.Tensor(x)).data)) < 1e-12


def test_phgraph_collapse_matches_hgraph():
    q = alg.builtin("quaternion")
    hg = L.HGraphConvLayer(q, 4, 4, activation="relu", rng=rng(8))
    pg = P.PHGraphLayer(4, 4, 4, activation="relu", rng=rng(9))
    P.collapse_to_algebra(pg, q)
    for fi, bi in zip(pg.f.data, hg.f.data):
        fi[...] = bi
    pg.bias.data[...] = hg.bias.data
    feats = rng(10).standard_normal((3, 4))
    g = L.Graph(3, [(0, 1), (1, 2)], feats)
    assert np.max(np.abs(pg.forward_graph(g).data - hg.forward_graph(g).data)) < 1e-12


def test_phgraph_empty_edges_is_per_node_phm():
    pg = P.PHGraphLayer(2, 4, 4, activation="none", rng=rng(11))
    feats = rng(12).standard_normal((3, 4))
    g = L.Graph(3, [], feats)
    got = pg.forward_graph(g).data
    expect = L.KronLinear.forward(pg, T.Tensor(feats)).data  # its own PHM map
    assert np.max(np.abs(got - expect)) < 1e-12


def test_phatt_single_token_degenerates_to_v():
    att = P.PHAttBlock(2, 4, mode="gate", rng=rng(13))
    x = rng(14).standard_normal((2, 1, 4))
    xt = T.Tensor(x)
    v = att.v(xt).data
    y = att(xt).data
    assert np.max(np.abs(y - v * x)) < 1e-12


def test_phatt_rows_sum_to_one():
    att = P.PHAttBlock(2, 4, rng=rng(15))
    x = T.Tensor(rng(16).standard_normal((2, 5, 4)))
    q, k = att.q(x), att.k(x)
    logits = T.scale(T.matmul(q, T.swapaxes(k, 1, 2)), 1.0 / np.sqrt(att.d_k))
    weights = T.softmax(logits, axis=-1).data
    assert np.max(np.abs(weights.sum(axis=-1) - 1.0)) < 1e-12


def test_phatt_logit_shift_invariance_single_key():
    # with one key, any uniform logit shift leaves the weights at 1
    att = P.PHAttBlock(2, 4, rng=rng(17))
    x = T.Tensor(rng(18).standard_normal((1, 1, 4)))
    base = att(x).data
    att.k.f.data[0][...] *= 10.0  # rescales the single logit only
    assert np.max(np.abs(att(x).data - base)) < 1e-12


def test_phatt_pure_mode_and_multihead_shapes():
    att = P.PHAttBlock(2, 8, heads=2, mode="pure", rng=rng(19))
    y = att(T.Tensor(rng(20).standard_normal((2, 3, 8))))
    assert y.data.shape == (2, 3, 8)
    assert att.out is not None


GRAD_CASES = ["phm", "phc", "phatt", "phgraph"]


def jitter_off_kinks(layer, r):
    """Give the grid matrices and biases continuous values so that no
    pre-activation sits exactly on the relu kink during grad checks."""
    for sub in (layer, getattr(layer, "inner", None), *(getattr(layer, k, None) for k in ("q", "k", "v", "out"))):
        if sub is None:
            continue
        if getattr(sub, "a", None) is not None:
            sub.a.data[...] = r.standard_normal(sub.a.data.shape)
        if getattr(sub, "bias", None) is not None:
            sub.bias.data[...] = 0.1 * r.standard_normal(sub.bias.data.shape)


@pytest.mark.parametrize("kind", GRAD_CASES)
def test_ph_layer_gradients(kind):
    r = rng(500)
    if kind == "phm":
        layer = P.PHMLayer(2, 4, 4, activation="relu", rng=r)
        x = T.Tensor(r.standard_normal((3, 4)))
        loss = lambda: T.sum_(T.mul(layer(x), layer(x)))
    elif kind == "phc":
        layer = P.PHCLayer(2, 2, 4, 2, padding=1, activation="relu", rng=r)
        x = T.Tensor(r.standard_normal((2, 2, 3, 3)))
        loss = lambda: T.sum_(T.mul(layer(x), layer(x)))
    elif kind == "phatt":
        layer = P.PHAttBlock(2, 4, rng=r)
        x = T.Tensor(r.standard_normal((1, 3, 4)))
        loss = lambda: T.sum_(T.mul(layer(x), layer(x)))
    else:
        layer = P.PHGraphLayer(2, 4, 4, rng=r)
        g = L.Graph(3, [(0, 2)], r.standard_normal((3, 4)))
        loss = lambda: T.sum_(T.mul(layer.forward_graph(g), layer.forward_graph(g)))

    jitter_off_kinks(layer, r)
    for p in layer.parameters():
        err = T.grad_check(lambda _: loss(), p)
        assert err < 1e-6, f"{kind}: {err}"


@given(st.integers(1, 6), st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_phm_weight_kron_sum_property(n, seed):
    r = np.random.Generator(np.random.PCG64(seed))
    layer = P.PHMLayer(n, n * 2, n * 2, rng=r)
    got = layer.weight().data
    expect = naive_kron_sum(list(layer.a.data), list(layer.f.data))
    assert np.array_equal(got, expect)

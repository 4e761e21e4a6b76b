"""Three chains folded into fewer nodes, against the chains they replaced.

- A graph layer is its own Kronecker FC layer applied to the aggregated
  features: ``kron_linear(A_hat H)``, one node, where it used to record
  the FC node on H, the aggregation and a bias-activation node.
- HAttBlock's gate is its 1x1 projection's activation, not a sigmoid
  node of its own.
- ``T.mean`` is one node, not ``scale(sum_(...))``.

The old HAtt gate and ``mean`` chains are kept here as oracles, and so is
the graph chain re-derived in the new order (``linear_chain`` on
``matmul(A_hat, H)``): values and gradients must match them to the bit.
The old graph order, A_hat (H W^T), sums in another order, so the graph
layers match it to rounding only.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hxnn import layers as L
from hxnn import phlayers as P
from hxnn import tensor as T
from hxnn import training as tr
from hxnn.algebra import builtin
from oracle_ops import sigmoid
from test_fused_nodes import linear_chain
from test_kron_linear import recorded


def gen(seed):
    return np.random.Generator(np.random.PCG64(seed))


def probed(forward, leaves, seed):
    """The output and every leaf's gradient of sum(forward() * probe),
    as bytes, with the leaves' gradients cleared first."""
    for t in leaves:
        t.grad = None
    out = forward()
    T.backward(T.sum_(T.mul(out, T.Tensor(gen(seed).standard_normal(out.data.shape)))))
    return [out.data.tobytes()] + [None if t.grad is None else t.grad.tobytes() for t in leaves]


# -----------------------------------------------------------------------------
# graph layers


def graph_layer(family, d, s, activation, seed):
    if family in ("complex", "quaternion"):
        return L.HGraphConvLayer(builtin(family), d, s, activation, rng=gen(seed))
    return P.PHGraphLayer(family, d, s, activation, rng=gen(seed))


def rederived_chain(layer, graph, h):
    """The new order as the unfused chain: aggregate, then transpose,
    matmul, bias and activation over the assembled weight."""
    agg = T.matmul(T.Tensor(graph.normalized_adjacency), h)
    return linear_chain(agg, layer.weight(), layer.bias, layer.activation)


def old_order(layer, graph, h):
    """The graph forward as it was: H W^T first, then the aggregation,
    then bias and activation."""
    mixed = T.kron_linear(h, layer.a, layer.f, None, "none")
    agg = T.matmul(T.Tensor(graph.normalized_adjacency), mixed)
    return T.bias_act(agg, layer.bias, layer.activation)


@st.composite
def graph_cases(draw):
    family = draw(st.sampled_from(["complex", "quaternion", 1, 2, 3]))
    n = {"complex": 2, "quaternion": 4}.get(family, family)
    d, s = n * draw(st.integers(1, 3)), n * draw(st.integers(1, 3))
    nodes = draw(st.integers(1, 6))
    pairs = [(u, v) for u in range(nodes) for v in range(u + 1, nodes)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=8)) if pairs else []
    activation = draw(st.sampled_from(["relu", "sigmoid", "none"]))
    features_grad, seed = draw(st.booleans()), draw(st.integers(0, 2**32 - 1))
    return family, d, s, nodes, edges, activation, features_grad, seed


def graph_run(forward, case):
    family, d, s, nodes, edges, activation, features_grad, seed = case
    layer = graph_layer(family, d, s, activation, seed)
    layer.bias.data[...] = gen(seed + 1).standard_normal(s) * 0.1  # relu cuts both ways
    graph = L.Graph(nodes, edges, gen(seed + 2).standard_normal((nodes, d)))
    h = T.Tensor(graph.features, requires_grad=features_grad)
    leaves = [h] + layer.parameters()
    return probed(lambda: forward(layer, graph, h), leaves, seed + 3)


@settings(max_examples=60, deadline=None)
@given(graph_cases())
def test_graph_layers_match_the_rederived_chain_bit_for_bit(case):
    fused = graph_run(lambda layer, graph, h: layer.forward_graph(graph, h), case)
    assert fused == graph_run(rederived_chain, case)


@settings(max_examples=60, deadline=None)
@given(graph_cases())
def test_graph_layers_stay_within_rounding_of_the_old_order(case):
    for got, want in zip(graph_run(lambda layer, graph, h: layer.forward_graph(graph, h), case),
                         graph_run(old_order, case)):
        assert (got is None) == (want is None)
        if got is not None:
            got, want = np.frombuffer(got), np.frombuffer(want)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


# -----------------------------------------------------------------------------
# HAttBlock's gate


def two_node_gate(att, x):
    """HAttBlock.forward as it was: the projection without activation,
    then a sigmoid node of its own for the sigmoid gate."""
    h = att.feature(x)
    fuse, proj, c, k = att.fuse, att.proj, att.channels, att.kernel
    w = T.sum_(T.reshape(fuse.weight(), (c, 2, c, k, k)), axis=1)
    y = T.bias_act(T.conv2d(h, w, padding=fuse.padding), fuse.bias, fuse.activation)
    a = T.bias_act(T.conv2d(y, proj.weight()), proj.bias, "none")
    return T.mul(sigmoid(a) if att.gate == "sigmoid" else a, x)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["real", "complex", "quaternion"]), st.integers(1, 2),
       st.sampled_from([1, 3]), st.sampled_from(["sigmoid", "none"]), st.booleans(),
       st.integers(1, 2), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_hatt_gate_matches_the_two_node_gate_bit_for_bit(name, mult, kernel, gate, x_grad,
                                                         batch, side, seed):
    channels = builtin(name).n * mult
    att = L.HAttBlock(builtin(name), channels, kernel=kernel, gate=gate, rng=gen(seed))
    for p in att.parameters():  # nonzero biases, so relu cuts both ways
        if p.data.ndim == 1:
            p.data[...] = gen(seed + 1).standard_normal(p.data.shape) * 0.1
    x = T.Tensor(gen(seed + 2).standard_normal((batch, channels, side, side + 1)),
                 requires_grad=x_grad)
    leaves = [x] + att.parameters()
    assert probed(lambda: att(x), leaves, seed + 3) == \
        probed(lambda: two_node_gate(att, x), leaves, seed + 3)
    drop = gate == "sigmoid"  # the gate node goes; "none" had none
    assert len(recorded(att(x))) == len(recorded(two_node_gate(att, x))) - drop


def test_a_sigmoid_gate_hatt_forward_records_twelve_nodes():
    att = L.HAttBlock(builtin("quaternion"), 8, kernel=3, gate="sigmoid", rng=gen(0))
    x = T.Tensor(gen(1).standard_normal((2, 8, 5, 5)))
    # 3 kron_sum, 3 conv2d, 3 bias_act, the fuse filter's reshape and sum, the gate product
    assert len(recorded(att(x))) == 12


# -----------------------------------------------------------------------------
# the global mean


def scale_of_sum(a, axis=None):
    """``T.mean`` as it was: a sum node, then a scale node."""
    axes = tuple(range(a.data.ndim)) if axis is None else (axis,) if isinstance(axis, int) else axis
    count = int(np.prod([a.data.shape[ax] for ax in axes]))
    return T.scale(T.sum_(a, axis=axis), 1.0 / count)


@st.composite
def mean_cases(draw):
    shape = tuple(draw(st.lists(st.integers(1, 5), min_size=0, max_size=4)))
    ndim = len(shape)
    axis = draw(st.one_of(
        st.none(),
        st.integers(-ndim, ndim - 1) if ndim else st.none(),
        st.sets(st.integers(0, ndim - 1), min_size=1).map(tuple) if ndim else st.none()))
    return shape, axis, draw(st.booleans()), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=100, deadline=None)
@given(mean_cases())
def test_mean_matches_scale_of_sum_bit_for_bit(case):
    shape, axis, coarse, seed = case
    v = gen(seed).standard_normal(shape)
    v = np.round(2 * v) / 2 if coarse else v
    x = T.Tensor(v, requires_grad=True)
    assert probed(lambda: T.mean(x, axis), [x], seed + 1) == \
        probed(lambda: scale_of_sum(x, axis), [x], seed + 1)
    assert len(recorded(T.mean(x, axis))) == 1


def blobs_step(kind):
    """The loss of one blobs convnet step, and its parameters."""
    net = tr.blobs_classifier(kind, 0, channels=6)
    ds = tr.make_rgb_blobs(0, samples_per_class=8, size=8)
    loss = tr.cross_entropy(net(T.Tensor(ds.train_inputs[:16])), ds.train_targets[:16])
    return loss, net.parameters()


@pytest.mark.parametrize("kind", ["phc", "real"])
def test_a_blobs_convnet_step_records_fourteen_nodes(kind):
    # per conv stage kron_sum, conv2d and bias_act; two pools; the mean; the FC node; the loss
    assert len(recorded(blobs_step(kind)[0])) == 14


@pytest.mark.parametrize("kind", ["phc", "real"])
def test_a_blobs_convnet_step_matches_the_scale_of_sum_mean_bit_for_bit(kind, monkeypatch):
    def bits():
        loss, params = blobs_step(kind)
        nodes = len(recorded(loss))
        T.backward(loss)
        return nodes, [loss.data.tobytes()] + [p.grad.tobytes() for p in params]

    nodes, fused = bits()
    monkeypatch.setattr(T, "mean", scale_of_sum)
    assert bits() == (nodes + 1, fused)

"""``T.kron_linear`` against the unfused chain it replaces, and the nodes
a Kronecker linear layer records.

The fused node must give the value and every gradient of
``linear_chain(x, T.kron_sum(a, f), b, activation)``, the kron_sum,
transpose, matmul, bias and activation nodes that ``test_fused_nodes``
keeps as its oracle, to the bit: the input, the blocks, the grids (when
they learn) and the bias.  The draws cover the reshapes that turn into
views (n = 1, p = 1, q = 1), where only the contiguous copies keep BLAS
on the GEMMs the chain ran.
"""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hxnn import algebra as alg
from hxnn import layers as L
from hxnn import phlayers as P
from hxnn import tensor as T
from hxnn import training as tr
from hxnn.errors import ShapeError
from test_fused_nodes import linear_chain

ACTIVATION_NAMES = ("relu", "sigmoid", "none")
ALGEBRA_OF_N = {1: "real", 2: "complex", 4: "quaternion", 8: "octonion"}


def gen(seed):
    return np.random.Generator(np.random.PCG64(seed))


def draw(r, shape, coarse):
    """Normal draws; coarse ones are multiples of 1/2, so exact zeros
    (the ReLU kink, signed zeros) are common."""
    v = r.standard_normal(shape)
    return np.round(2 * v) / 2 if coarse else v


def grids(r, n, kind, coarse):
    """(n, n, n) grids: an algebra's constant signed grids (random signs
    for n = 3, which no built-in has), or drawn ones, frozen or learned."""
    if kind != "constant":
        return draw(r, (n, n, n), coarse)
    if n in ALGEBRA_OF_N:
        return L._algebra_grids(alg.builtin(ALGEBRA_OF_N[n])).data
    return r.integers(-1, 2, size=(n, n, n)).astype(np.float64)


def run(op, arrays, grad_flags, seed):
    """Forward ``op`` on fresh tensors, then backward a random probe of
    the output.  Returns the output bytes and every gradient's bytes."""
    tensors = [None if a is None else T.Tensor(a.copy(), requires_grad=f)
               for a, f in zip(arrays, grad_flags)]
    out = op(*tensors)
    probe = T.Tensor(gen(seed).standard_normal(out.data.shape))
    T.backward(T.sum_(T.mul(out, probe)))
    grads = [None if t is None or t.grad is None else (t.grad.shape, t.grad.tobytes())
             for t in tensors]
    return (out.data.shape, out.data.tobytes()), grads


@settings(max_examples=150, deadline=None)
# the views of the W^T reshape (n = 1, p = 1) and blocks of one column (q = 1), always run
@example(seed=1, n=1, grid_kind="learned", activation="relu", tokens=False, bias=True,
         x_grad=True, coarse=False, rows=3, t=1, p=3, q=2)
@example(seed=2, n=4, grid_kind="constant", activation="sigmoid", tokens=True, bias=False,
         x_grad=True, coarse=False, rows=2, t=3, p=1, q=3)
@example(seed=3, n=8, grid_kind="frozen", activation="none", tokens=False, bias=True,
         x_grad=False, coarse=True, rows=4, t=1, p=2, q=1)
@example(seed=4, n=3, grid_kind="learned", activation="relu", tokens=True, bias=True,
         x_grad=True, coarse=True, rows=2, t=2, p=1, q=1)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3, 4, 8]),
       st.sampled_from(["constant", "frozen", "learned"]), st.sampled_from(ACTIVATION_NAMES),
       st.booleans(), st.booleans(), st.booleans(), st.booleans(),
       st.integers(1, 5), st.integers(1, 3), st.integers(1, 4), st.integers(1, 4))
def test_kron_linear_matches_linear_over_kron_sum(seed, n, grid_kind, activation, tokens, bias,
                                                  x_grad, coarse, rows, t, p, q):
    r = gen(seed)
    d = n * q
    x = draw(r, (rows, t, d) if tokens else (rows, d), coarse)
    a, f = grids(r, n, grid_kind, coarse), draw(r, (n, p, q), coarse)
    b = draw(r, (n * p,), coarse) if bias else None
    arrays, flags = [x, a, f, b], [x_grad, grid_kind == "learned", True, True]
    fused = lambda x, a, f, b: T.kron_linear(x, a, f, b, activation)
    chain = lambda x, a, f, b: linear_chain(x, T.kron_sum(a, f), b, activation)
    got = run(fused, arrays, flags, seed + 1)
    assert got == run(chain, arrays, flags, seed + 1)
    assert (got[1][0] is None) == (not x_grad) and (got[1][1] is None) == (grid_kind != "learned")
    with T.no_grad():
        inferred = fused(*(None if v is None else T.Tensor(v.copy()) for v in arrays))
    assert inferred.data.tobytes() == got[0][1]


@pytest.mark.parametrize("learn_a", [True, False])
def test_kron_linear_parents_are_the_input_the_learned_tensors_and_the_bias(learn_a):
    r = gen(1)
    x = T.Tensor(r.standard_normal((5, 6)))
    a = T.Tensor(r.standard_normal((2, 2, 2)), requires_grad=learn_a)
    f = T.Tensor(r.standard_normal((2, 4, 3)), requires_grad=True)
    b = T.Tensor(np.zeros(8), requires_grad=True)
    y = T.kron_linear(x, a, f, b, "relu")
    assert y._parents == ((x, a, f, b) if learn_a else (x, f, b))


@pytest.mark.parametrize("x_shape, a_shape, f_shape", [
    ((5, 6), (2, 2, 2), (2, 4, 3, 1, 1)),   # conv blocks
    ((5, 6), (3, 3, 3), (2, 4, 3)),         # grids of another n
    ((5, 7), (2, 2, 2), (2, 4, 3)),         # input width is not n*q
    ((6,), (2, 2, 2), (2, 4, 3)),           # no batch axis
])
def test_kron_linear_rejects_mismatched_shapes(x_shape, a_shape, f_shape):
    with pytest.raises(ShapeError):
        T.kron_linear(T.Tensor(np.zeros(x_shape)), T.Tensor(np.zeros(a_shape)),
                      T.Tensor(np.zeros(f_shape), requires_grad=True), None, "none")


# -----------------------------------------------------------------------------
# nodes per layer


def recorded(out):
    """The op nodes reachable from ``out``, as perfbench's ``graph_nodes``
    counts them: every tensor with a vjp."""
    seen, nodes, stack = set(), [], [out]
    while stack:
        t = stack.pop()
        if t._vjp is None or id(t) in seen:
            continue
        seen.add(id(t))
        nodes.append(t)
        stack.extend(t._parents)
    return nodes


def kron_linears(layer):
    if isinstance(layer, L.KronLinear):
        return [layer]
    return [k for sub in layer.sublayers for k in kron_linears(sub)]


def the_node_of(layer, nodes):
    """The one node among ``nodes`` that takes ``layer``'s blocks."""
    [node] = [t for t in nodes if any(p is layer.f for p in t._parents)]
    return node


@pytest.mark.parametrize("kind", ["real", "quaternion", "phm", "dual_quaternion"])
def test_a_lorenz_training_step_records_one_node_per_kron_linear_layer(kind):
    forecaster = tr.lorenz_forecaster(kind, 0)
    ds = tr.lorenz_trajectories(0, count=4, steps=500)
    windows, targets = ds.train_inputs[:128], ds.train_targets[:128]
    out = forecaster.net(T.Tensor(forecaster.features(windows)))
    loss = tr.mse(out, forecaster.train_targets(windows, targets))
    nodes = recorded(loss)
    assert len(nodes) == len(forecaster.net.layers) + 1  # a node per layer (a decoder's narrow too), and the loss
    for layer in kron_linears(forecaster.net):  # input, learned grids, blocks, bias
        assert the_node_of(layer, nodes)._parents[1:] == tuple(layer.parameters())


GRAPH_LAYERS = [
    lambda: L.HGraphConvLayer(alg.builtin("quaternion"), 8, 12, rng=gen(1)),
    lambda: P.PHGraphLayer(2, 8, 12, rng=gen(2)),
]


@pytest.mark.parametrize("make", GRAPH_LAYERS)
def test_a_kron_graph_forward_records_one_node_for_its_linear_layer(make):
    layer = make()
    graph = L.Graph(5, [(0, 1), (1, 2), (3, 4)], gen(3).standard_normal((5, 8)))
    nodes = recorded(layer.forward_graph(graph))
    assert len(nodes) == 1  # the aggregation of constant features records no node
    assert the_node_of(layer, nodes)._parents[1:] == tuple(layer.parameters())


@pytest.mark.parametrize("make", GRAPH_LAYERS)
def test_a_graph_forward_on_features_that_require_grad_records_the_aggregation_too(make):
    layer = make()
    graph = L.Graph(5, [(0, 1), (1, 2), (3, 4)], gen(3).standard_normal((5, 8)))
    h = T.Tensor(graph.features, requires_grad=True)
    nodes = recorded(layer.forward_graph(graph, h))
    assert len(nodes) == 2  # A_hat H, then the Kronecker linear node on it
    agg, *weights = the_node_of(layer, nodes)._parents
    assert agg in nodes and agg._parents[1] is h
    assert weights == layer.parameters()


@pytest.mark.parametrize("shape", [(8,), (5, 8, 1), (4, 8), (5, 4)])
@pytest.mark.parametrize("make", GRAPH_LAYERS)
def test_graph_features_of_another_shape_raise_shape_error(make, shape):
    graph = L.Graph(5, [(0, 1)], gen(3).standard_normal((5, 8)))
    with pytest.raises(ShapeError, match=r"expected \(5, 8\) features"):
        make().forward_graph(graph, T.Tensor(np.zeros(shape)))

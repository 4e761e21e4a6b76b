"""The fused graph nodes against the unfused chains they replaced.

``T.kron_linear``, ``T.bias_act``, ``training.mse`` and
``training.cross_entropy`` each record one node where the layers used to
record a chain of transpose, matmul, bias, activation, negation, sum and
scale nodes.  The chains are kept here, as they were written, and serve
as oracles: every value and every gradient must match them to the bit,
on the same build, alone and through whole training runs.  The one-op
tests run ``kron_linear`` at n = 1 with a grid of ones, where W is the
single block; ``tests/test_kron_linear.py`` covers larger n.  The tests
at the end cover the guards that came with the fused nodes: a second
backward through a freed graph, empty loss batches, property checks
with no random samples and non-integer algebra indices.
"""
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hxnn import algebra as alg
from hxnn import errors
from hxnn import layers as L
from hxnn import phlayers as P
from hxnn import tensor as T
from hxnn import training as tr
from hxnn.errors import ShapeError
from oracle_ops import add, exp, log

ACTIVATION_NAMES = ("relu", "sigmoid", "none")
ONE = T.Tensor(np.ones((1, 1, 1)))  # the n = 1 grid: W = kron_sum(ONE, f) = f[0]


def gen(seed):
    return np.random.Generator(np.random.PCG64(seed))


# -----------------------------------------------------------------------------
# the unfused chains, as the layers and losses recorded them


def neg(a):
    return T._node(-a.data, (a,), lambda g: (-g,))


def transpose(a):
    return T._node(a.data.T.copy(), (a,), lambda g: (g.T.copy(),))


def bias_add(x, b):
    if x.data.ndim == 2:
        out = x.data + b.data[None, :]
        reduce_axes = (0,)
    else:
        out = x.data + b.data[None, :, None, None]
        reduce_axes = (0, 2, 3)
    return T._node(out, (x, b), lambda g: (g, g.sum(axis=reduce_axes)))


def relu(a):
    mask = a.data > 0
    return T._node(a.data * mask, (a,), lambda g: (g * mask,))


def sigmoid(a):
    with np.errstate(over="ignore"):
        y = np.where(a.data >= 0, 1.0 / (1.0 + np.exp(-a.data)),
                     np.exp(a.data) / (1.0 + np.exp(a.data)))
    return T._node(y, (a,), lambda g: (g * y * (1.0 - y),))


CHAIN_ACTIVATIONS = {"relu": relu, "sigmoid": sigmoid, "none": lambda t: t}


def linear_chain(x, w, b, activation):
    squeeze = None
    if x.data.ndim == 3:
        bt, t, feats = x.data.shape
        x = T.reshape(x, (bt * t, feats))
        squeeze = (bt, t)
    y = T.matmul(x, transpose(w))
    if b is not None:
        y = bias_add(y, b)
    y = CHAIN_ACTIVATIONS[activation](y)
    if squeeze:
        y = T.reshape(y, (*squeeze, w.data.shape[0]))
    return y


def bias_act_chain(x, b, activation):
    if b is not None:
        x = bias_add(x, b)
    return CHAIN_ACTIVATIONS[activation](x)


def mse_chain(pred, target):
    tgt = target if isinstance(target, T.Tensor) else T.Tensor(target)
    diff = add(pred, neg(tgt))
    return T.mean(T.mul(diff, diff))


def cross_entropy_chain(logits, labels):
    labels = np.asarray(labels)
    b, c = logits.data.shape
    shift = np.broadcast_to(logits.data.max(axis=1, keepdims=True), (b, c)).copy()
    z = add(logits, T.Tensor(-shift))
    lse = log(T.sum_(exp(z), axis=1))
    onehot = np.zeros((b, c))
    onehot[np.arange(b), labels] = 1.0
    picked = T.sum_(T.mul(z, T.Tensor(onehot)))
    return add(T.mean(lse), T.scale(picked, -1.0 / b))


def chain_linear_forward(self, x):
    return linear_chain(x, self.weight(), self.bias, self.activation)


def chain_conv_forward(self, x):
    y = T.conv2d(x, self.weight(), stride=self.stride, padding=self.padding)
    return bias_act_chain(y, self.bias, self.activation)


def chain_graph_forward(self, graph, features=None):
    h = features if features is not None else T.Tensor(graph.features)
    agg = T.matmul(T.Tensor(graph.normalized_adjacency), h)
    return linear_chain(agg, self.weight(), self.bias, self.activation)


def chain_assembled(self):
    return T.kron_sum(self.a, self.f)


def use_chains(m):
    """Route every layer and loss through the unfused chains, and stack
    algebra grids on every call, as the layers did before fusion."""
    m.setattr(L.KronLinear, "forward", chain_linear_forward)
    m.setattr(L.KronConv2D, "forward", chain_conv_forward)
    m.setattr(L.KronGraph, "forward_graph", chain_graph_forward)
    m.setattr(L.HFCLayer, "assembled", chain_assembled)
    m.setattr(L.HConv2DLayer, "assembled", chain_assembled)
    m.setattr(tr, "mse", mse_chain)
    m.setattr(tr, "cross_entropy", cross_entropy_chain)


# -----------------------------------------------------------------------------
# one op at a time


def draw(r, shape, coarse):
    """Normal draws; coarse ones are multiples of 1/2, so sums are exact
    and exact zeros (the ReLU kink, signed zeros) are common."""
    v = r.standard_normal(shape)
    return np.round(2 * v) / 2 if coarse else v


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


def assert_same_bits(fused, chain, arrays, grad_flags, seed):
    assert run(fused, arrays, grad_flags, seed) == run(chain, arrays, grad_flags, seed)
    tensors = [None if a is None else T.Tensor(a.copy()) for a in arrays]
    graded = [None if a is None else T.Tensor(a.copy(), requires_grad=True) for a in arrays]
    with T.no_grad():
        inferred = fused(*tensors)
    assert inferred.data.tobytes() == fused(*graded).data.tobytes()


def test_the_oracles_cover_every_activation():
    assert set(T.ACTIVATIONS) == set(ACTIVATION_NAMES) == set(CHAIN_ACTIVATIONS)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(ACTIVATION_NAMES), st.booleans(),
       st.booleans(), st.booleans(), st.booleans(),
       st.integers(0, 5), st.integers(1, 3), st.integers(1, 6), st.integers(1, 6))
def test_linear_matches_the_transpose_matmul_bias_activation_chain(
        seed, activation, tokens, bias, x_grad, coarse, rows, t, d, s):
    r = gen(seed)
    x = draw(r, (rows, t, d) if tokens else (rows, d), coarse)
    f, b = draw(r, (1, s, d), coarse), draw(r, (s,), coarse) if bias else None
    fused = lambda x, f, b: T.kron_linear(x, ONE, f, b, activation)
    chain = lambda x, f, b: linear_chain(x, T.reshape(f, (s, d)), b, activation)
    assert_same_bits(fused, chain, [x, f, b], [x_grad, True, True], seed + 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(ACTIVATION_NAMES), st.booleans(),
       st.booleans(), st.booleans(), st.integers(1, 4), st.integers(1, 5), st.integers(1, 4))
def test_bias_act_matches_the_bias_activation_chain(seed, activation, four_d, bias, coarse,
                                                     rows, c, hw):
    r = gen(seed)
    x = draw(r, (rows, c, hw, hw + 1) if four_d else (rows, c), coarse)
    b = draw(r, (c,), coarse) if bias else None
    fused = lambda x, b: T.bias_act(x, b, activation)
    chain = lambda x, b: bias_act_chain(x, b, activation)
    assert_same_bits(fused, chain, [x, b], [True, True], seed + 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans(),
       st.integers(1, 40), st.integers(1, 8))
def test_mse_matches_the_neg_add_mul_mean_chain(seed, target_grad, coarse, rows, cols):
    r = gen(seed)
    pred, target = draw(r, (rows, cols), coarse), draw(r, (rows, cols), coarse)
    assert_same_bits(tr.mse, mse_chain, [pred, target], [True, target_grad], seed + 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.integers(1, 40), st.integers(1, 6))
def test_cross_entropy_matches_the_log_softmax_chain(seed, coarse, rows, classes):
    r = gen(seed)
    logits = 3 * draw(r, (rows, classes), coarse)
    labels = r.integers(0, classes, size=rows)
    fused = lambda z: tr.cross_entropy(z, labels)
    chain = lambda z: cross_entropy_chain(z, labels)
    assert_same_bits(fused, chain, [logits], [True], seed + 1)


def test_a_target_that_requires_grad_gets_the_negated_mse_gradient():
    pred = T.Tensor(gen(0).standard_normal((5, 3)), requires_grad=True)
    target = T.Tensor(gen(1).standard_normal((5, 3)), requires_grad=True)
    T.backward(tr.mse(pred, target))
    assert target.grad is not None
    assert np.array_equal(target.grad, -pred.grad)


def test_a_constant_mse_target_gets_no_gradient_array():
    pred = T.Tensor(gen(0).standard_normal((5, 3)), requires_grad=True)
    loss = tr.mse(pred, gen(1).standard_normal((5, 3)))
    gpred, gtarget = loss._vjp(np.ones(()))
    assert gtarget is None and gpred.shape == (5, 3)


@pytest.mark.parametrize("activation", ["relu", "sigmoid"])
def test_the_linear_vjp_does_not_keep_the_pre_activation_alive(activation, monkeypatch):
    """The closure needs only the shape of x W^T + b, not the array.  Relu
    writes its output into that array, so it lives on as the output: one
    full-size array, not two.  Sigmoid's must be freed once the forward
    returns, although the node lives on."""
    seen = []

    def spy(pre):
        seen.append(weakref.ref(pre))
        return T.ACTIVATIONS[activation](pre)

    monkeypatch.setitem(T.ACTIVATIONS, "spy", spy)
    x = T.Tensor(gen(0).standard_normal((6, 4)), requires_grad=True)
    f = T.Tensor(gen(1).standard_normal((1, 3, 4)), requires_grad=True)
    y = T.kron_linear(x, ONE, f, T.Tensor(np.zeros(3), requires_grad=True), "spy")
    gc.collect()
    assert y._vjp is not None
    if activation == "relu":
        assert seen[0]() is y.data
    else:
        assert seen[0]() is None


def blobs_shaped(seed, shape):
    """Coarse draws at a blobs activation shape, passed through a relu
    first, as a conv stage's output is: exact zeros, -0.0 among them."""
    v = draw(gen(seed), shape, coarse=True)
    v = v * (v > 0)
    assert np.signbit(v[v == 0]).any()
    return v


@pytest.mark.parametrize("bias", [True, False])
@pytest.mark.parametrize("shape", [(64, 24, 16, 16), (64, 24, 8, 8), (160, 24, 16, 16)])
def test_bias_relu_matches_the_chain_at_the_blobs_shapes(shape, bias):
    x = blobs_shaped(11, shape)
    b = draw(gen(12), (shape[1],), coarse=True) if bias else None
    fused = lambda x, b: T.bias_act(x, b, "relu")
    chain = lambda x, b: bias_act_chain(x, b, "relu")
    assert_same_bits(fused, chain, [x, b], [True, True], 13)


FUSED_OPS = {
    "linear": (lambda x, f, b, act: T.kron_linear(x, ONE, f, b, act), (5, 2, 4)),
    "bias_act": (lambda x, f, b, act: T.bias_act(x, b, act), (5, 3, 2, 2)),
}


@pytest.mark.parametrize("activation", ACTIVATION_NAMES)
@pytest.mark.parametrize("bias", [True, False])
@pytest.mark.parametrize("op", sorted(FUSED_OPS))
def test_the_fused_nodes_leave_their_inputs_untouched(op, bias, activation):
    """An activation may overwrite the array it is given, so the fused
    nodes must hand it a fresh one: the bytes of x, f and b stay as they
    were through the forward and the backward."""
    fn, x_shape = FUSED_OPS[op]
    r = gen(21)
    x = T.Tensor(r.standard_normal(x_shape), requires_grad=True)
    f = T.Tensor(r.standard_normal((1, 3, 4)), requires_grad=True)
    b = T.Tensor(r.standard_normal(3), requires_grad=True) if bias else None
    inputs = [t for t in (x, f, b) if t is not None]
    before = [t.data.tobytes() for t in inputs]
    y = fn(x, f, b, activation)
    assert [t.data.tobytes() for t in inputs] == before
    T.backward(T.sum_(T.mul(y, T.Tensor(r.standard_normal(y.data.shape)))))
    assert [t.data.tobytes() for t in inputs] == before
    assert x.grad is not None


# -----------------------------------------------------------------------------
# whole training runs


def lorenz_data(forecaster):
    ds = tr.lorenz_trajectories(0, count=4, steps=500)
    feats = [forecaster.features(ds.inputs[idx]) for idx in (ds.train_idx, ds.test_idx)]
    targets = [forecaster.train_targets(ds.inputs[idx], ds.targets[idx])
               for idx in (ds.train_idx, ds.test_idx)]
    n = len(feats[0])
    return tr.Dataset(np.concatenate(feats), np.concatenate(targets),
                      np.arange(n), np.arange(n, n + len(feats[1])))


def trained_bits(build, data, config):
    model = build()
    metrics = tr.train(model, data, config)
    return ([(p.data.tobytes(), None if p.grad is None else p.grad.tobytes())
             for p in model.parameters()], metrics.losses, metrics.scores)


@pytest.mark.parametrize("kind", ["real", "quaternion", "phm", "dual_quaternion"])
def test_lorenz_training_matches_the_chains_bit_for_bit(kind, monkeypatch):
    data = lorenz_data(tr.lorenz_forecaster(kind, 0))
    config = tr.TrainConfig(seed=3, epochs=3, batch_size=64, lr=3e-3)
    build = lambda: tr.lorenz_forecaster(kind, 5).net
    fused = trained_bits(build, data, config)
    with monkeypatch.context() as m:
        use_chains(m)
        chained = trained_bits(build, data, config)
    assert fused == chained


@pytest.mark.parametrize("kind", ["phc", "real"])
def test_blobs_epoch_matches_the_chains_bit_for_bit(kind, monkeypatch):
    data = tr.make_rgb_blobs(7, samples_per_class=40, size=8)
    config = tr.TrainConfig(seed=3, epochs=1, batch_size=32, lr=3e-3, task="classification")
    build = lambda: tr.blobs_classifier(kind, 11, channels=6)
    fused = trained_bits(build, data, config)
    with monkeypatch.context() as m:
        use_chains(m)
        chained = trained_bits(build, data, config)
    assert fused == chained


def test_graph_layers_match_the_chains_bit_for_bit(monkeypatch):
    graph = L.Graph(4, [(0, 1), (1, 2), (2, 3)], gen(0).standard_normal((4, 4)))

    def grads():
        layers = [L.HGraphConvLayer(alg.builtin("complex"), 4, 6, rng=gen(1)),
                  P.PHGraphLayer(2, 4, 6, rng=gen(2))]
        out = []
        for layer in layers:
            y = layer.forward_graph(graph)
            T.backward(T.sum_(T.mul(y, T.Tensor(gen(3).standard_normal(y.data.shape)))))
            out.append([y.data.tobytes()] + [p.grad.tobytes() for p in layer.parameters()])
        return out

    fused = grads()
    with monkeypatch.context() as m:
        use_chains(m)
        assert grads() == fused


@pytest.mark.parametrize("name", alg.BUILTIN_NAMES)
def test_the_grid_stack_is_built_once_per_algebra_and_read_only(name):
    a = alg.builtin(name)
    grids = L._algebra_grids(a)
    assert grids is L._algebra_grids(a)
    stack = grids.data
    assert stack.tobytes() == np.stack(alg.algebra_grid_matrices(a)).tobytes()
    assert stack.shape == (a.n, a.n, a.n)
    with pytest.raises(ValueError):
        stack[0, 0, 0] = 2.0


def graph_nodes(out):
    seen, stack = set(), [out]
    while stack:
        t = stack.pop()
        if t._vjp is None or id(t) in seen:
            continue
        seen.add(id(t))
        stack.extend(t._parents)
    return len(seen)


@pytest.mark.parametrize("kind", ["real", "quaternion", "phm", "dual_quaternion"])
def test_a_lorenz_training_step_records_at_most_six_nodes(kind):
    forecaster = tr.lorenz_forecaster(kind, 0)
    ds = tr.lorenz_trajectories(0, count=4, steps=500)
    windows, targets = ds.train_inputs[:128], ds.train_targets[:128]
    out = forecaster.net(T.Tensor(forecaster.features(windows)))
    loss = tr.mse(out, forecaster.train_targets(windows, targets))
    assert graph_nodes(loss) <= 6


# -----------------------------------------------------------------------------
# guards


def test_a_second_backward_through_a_freed_graph_raises_graph_freed():
    w = T.Tensor(gen(0).standard_normal((2, 3)), requires_grad=True)
    x = T.Tensor(gen(1).standard_normal((4, 2)))
    loss = tr.mse(relu(T.matmul(x, w)), np.zeros((4, 3)))
    T.backward(loss)
    first = w.grad.copy()
    with pytest.raises(ValueError) as info:
        T.backward(loss)
    assert isinstance(info.value, errors.GraphFreed)
    assert np.array_equal(w.grad, first)


def test_a_new_loss_on_a_freed_graph_raises_graph_freed_before_any_gradient_moves():
    w = T.Tensor(gen(0).standard_normal((2, 3)), requires_grad=True)
    v = T.Tensor(gen(1).standard_normal((4, 3)), requires_grad=True)
    h = T.matmul(T.Tensor(gen(2).standard_normal((4, 2))), w)
    T.backward(T.sum_(h))
    w_grad = w.grad.copy()
    with pytest.raises(ValueError) as info:
        T.backward(T.sum_(T.mul(h, v)))
    assert isinstance(info.value, errors.GraphFreed)
    assert v.grad is None and np.array_equal(w.grad, w_grad)


def test_a_leaf_may_be_the_root_of_backward_again():
    p = T.Tensor(2.0, requires_grad=True)
    T.backward(p)
    T.backward(p)
    assert p.grad == 2.0


@pytest.mark.parametrize("shape", [(0, 3), (0,), (4, 0)])
def test_mse_on_an_empty_batch_raises_shape_error(shape):
    with pytest.raises(ShapeError):
        tr.mse(T.Tensor(np.zeros(shape), requires_grad=True), np.zeros(shape))


def test_cross_entropy_on_an_empty_batch_raises_shape_error():
    with pytest.raises(ShapeError):
        tr.cross_entropy(T.Tensor(np.zeros((0, 4)), requires_grad=True),
                         np.zeros(0, dtype=np.intp))


@pytest.mark.parametrize("name", alg.BUILTIN_NAMES)
def test_check_property_with_no_samples_returns_the_exact_pass_verdict(name):
    a = alg.builtin(name)
    exact = {p: alg.check_property(a, p, samples=0) for p in alg.PROPERTIES}
    assert exact == alg.check_properties(a)


@pytest.mark.parametrize("bad, shown", [(0.7, "0.7"), (1.5, "1.5"), (np.nan, "nan"),
                                        (np.inf, "inf")])
def test_non_integer_indices_raise_value_error_naming_the_entry(bad, shown):
    with pytest.raises(ValueError, match=rf"index of e_1 \* e_1 is {shown}, expected an integer"):
        alg.Algebra("f", 2, [[1, 1], [1, -1]], [[0, 1], [1, bad]])


def test_integer_valued_float_indices_are_accepted():
    a = alg.Algebra("f", 2, [[1, 1], [1, -1]], [[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(a.indices, alg.builtin("complex").indices)

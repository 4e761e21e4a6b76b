"""HAttBlock's fuse conv applied to ``h`` once, through its folded filter.

The block's fuse filter W has 2c input channels and used to run on
``concat([h, h])``.  Conv is linear in its input, so the block now runs
it as ``conv(h, W[:, :c] + W[:, c:])``.  The concat form is kept here as
the oracle: output, input gradient and every parameter gradient must
match it to rounding (the two forms sum in another order, so the last
bits differ).
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hxnn import layers as L
from hxnn import serialize as S
from hxnn import tensor as T
from hxnn import training as tr
from hxnn.algebra import builtin


def rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def concat_forward(att, x):
    """HAttBlock.forward as it was: the fuse layer on concat([h, h]).  The
    gate is the projection's own activation."""
    h = att.feature(x)
    return T.mul(att.proj(att.fuse(T.concat([h, h], axis=1))), x)


def run(forward, att, xd, gd):
    """Output, input gradient and parameter gradients of sum(forward * g)."""
    for p in att.parameters():
        p.grad = None
    x = T.Tensor(xd, requires_grad=True)
    y = forward(att, x)
    T.backward(T.sum_(T.mul(y, T.Tensor(gd))))
    return [y.data, x.grad] + [p.grad for p in att.parameters()]


def graph_ops(root):
    """Names of the ops that recorded the graph under ``root``."""
    names, stack, seen = set(), [root], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._vjp is not None:
            names.add(node._vjp.__qualname__.split(".")[0])
        stack.extend(node._parents)
    return names


@st.composite
def hatt_cases(draw):
    name = draw(st.sampled_from(["real", "complex", "quaternion", "octonion"]))
    n = builtin(name).n
    channels = n * draw(st.integers(1, 3))
    kernel = draw(st.sampled_from([1, 3, 5]))
    gate = draw(st.sampled_from(["sigmoid", "none"]))
    shape = (draw(st.integers(1, 3)), channels, draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    return name, channels, kernel, gate, shape, draw(st.integers(0, 2**32 - 1))


@given(hatt_cases())
@settings(max_examples=60, deadline=None)
def test_folded_fuse_matches_concat_oracle(case):
    name, channels, kernel, gate, shape, seed = case
    att = L.HAttBlock(builtin(name), channels, kernel=kernel, gate=gate, rng=rng(seed))
    for p in att.parameters():  # nonzero biases, so relu cuts both ways
        if p.data.ndim == 1:
            p.data[...] = rng(seed + 1).standard_normal(p.data.shape) * 0.1
    data = rng(seed + 2)
    xd, gd = data.standard_normal(shape), data.standard_normal(shape)
    got = run(lambda a, x: a(x), att, xd, gd)
    want = run(concat_forward, att, xd, gd)
    assert len(got) == len(want) == 2 + len(att.parameters())
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))


def test_training_graph_holds_no_concat():
    att = L.HAttBlock(builtin("quaternion"), 8, kernel=3, rng=rng(1))
    x = T.Tensor(rng(2).standard_normal((2, 8, 5, 5)))
    assert "concat" not in graph_ops(T.sum_(att(x)))
    assert {"concat", "conv2d"} <= graph_ops(T.sum_(concat_forward(att, x)))


def test_same_build_runs_give_identical_bytes():
    shape = (3, 8, 6, 6)
    xd, gd = rng(4).standard_normal(shape), rng(5).standard_normal(shape)
    first, second = (run(lambda a, x: a(x), L.HAttBlock(builtin("quaternion"), 8, rng=rng(3)), xd, gd)
                     for _ in range(2))
    assert [a.tobytes() for a in first] == [b.tobytes() for b in second]


def test_save_load_round_trip_keeps_parameter_bytes(tmp_path):
    model = tr.Network([L.HAttBlock(builtin("octonion"), 8, kernel=5, gate="none", rng=rng(6))])
    x = T.Tensor(rng(7).standard_normal((2, 8, 4, 4)))
    path = tmp_path / "hatt.hxnn"
    S.save_model(model, path)
    loaded = S.load_model(path)
    assert [p.data.tobytes() for p in loaded.parameters()] == [p.data.tobytes() for p in model.parameters()]
    assert loaded(x).data.tobytes() == model(x).data.tobytes()

"""tensor.kron_sum, the one op that builds the weight of every layer."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hxnn import algebra as alg
from hxnn import layers as L
from hxnn import phlayers as P
from hxnn import tensor as T
from hxnn.errors import ShapeError
from oracle_ops import add


def gen(seed):
    return np.random.Generator(np.random.PCG64(seed))


def block_loop_oracle(a_list, f_list):
    """Independent oracle: explicit loop over the n x n block cells."""
    n = len(a_list)
    p, q = f_list[0].shape[:2]
    w = np.zeros((n * p, n * q) + f_list[0].shape[2:])
    for ai, fi in zip(a_list, f_list):
        for r in range(n):
            for c in range(n):
                w[r * p : (r + 1) * p, c * q : (c + 1) * q] += ai[r, c] * fi
    return w


def kron_add_chain(a_list, f_list):
    """Reference: one kron (or blockwise_kron2d) node per term, summed
    left to right with add nodes."""
    op = T.kron if f_list[0].data.ndim == 2 else T.blockwise_kron2d
    w = op(a_list[0], f_list[0])
    for a, f in zip(a_list[1:], f_list[1:]):
        w = add(w, op(a, f))
    return w


def pattern_reference(algebra, blocks):
    """Reference: +-block or zero placed in every cell of the algebra's
    left pattern, joined with concat nodes."""
    p = alg.left_pattern(algebra)
    zero = T.Tensor(np.zeros(blocks[0].data.shape))
    rows = []
    for signs, widx in zip(p.signs, p.weight_indices):
        cells = [zero if s == 0 else blocks[i] if s == 1 else T.scale(blocks[i], -1.0)
                 for s, i in zip(signs, widx)]
        rows.append(T.concat(cells, axis=1))
    return T.concat(rows, axis=0)


def leaves(t):
    """Per-matrix leaf copies of an (n, n, n) grid tensor or an
    (n, *block) block tensor, for the oracles."""
    return [T.Tensor(b.copy(), requires_grad=t.requires_grad) for b in t.data]


def draw_terms(n, block, seed, integer_grids):
    """One (n, n, n) tensor of grid matrices and one (n, *block) tensor
    of blocks.  Integer grids take entries in
    {-1, 0, 1}, the values of layer init and of every built-in algebra;
    with them every product is exact, so equal sums mean equal order."""
    r = gen(seed)
    if integer_grids:
        grids = r.integers(-1, 2, size=(n, n, n)).astype(np.float64)
    else:
        grids = r.standard_normal((n, n, n))
    a = T.Tensor(grids, requires_grad=True)
    f = T.Tensor(r.standard_normal((n, *block)), requires_grad=True)
    return a, f


blocks = st.one_of(
    st.tuples(st.integers(1, 4), st.integers(1, 4)),
    st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
)
seeds = st.integers(0, 2**31 - 1)


@given(st.integers(1, 8), blocks.filter(lambda b: np.prod(b) > 1), seeds)
@settings(max_examples=60, deadline=None)
def test_kron_sum_equals_kron_add_chain_and_block_loop(n, block, seed):
    """Exact for blocks of more than one entry.  A one-entry block makes
    the product a matrix-vector one, whose BLAS path may sum in another
    order; the real-grid test below covers it within rounding."""
    a, f = draw_terms(n, block, seed, integer_grids=True)
    got = T.kron_sum(a, f).data
    assert got.shape == (n * block[0], n * block[1]) + block[2:]
    assert np.array_equal(got, kron_add_chain(leaves(a), leaves(f)).data)
    assert np.array_equal(got, block_loop_oracle(list(a.data), list(f.data)))


@given(st.integers(1, 8), blocks, seeds)
@settings(max_examples=30, deadline=None)
def test_kron_sum_real_grids_match_block_loop(n, block, seed):
    a, f = draw_terms(n, block, seed, integer_grids=False)
    got = T.kron_sum(a, f).data
    expect = block_loop_oracle(list(a.data), list(f.data))
    assert np.max(np.abs(got - expect)) <= 1e-12 * max(1.0, np.max(np.abs(expect)))


@given(st.integers(1, 5), blocks, seeds)
@settings(max_examples=15, deadline=None)
def test_kron_sum_grad_check_learned_grids_and_blocks(n, block, seed):
    a, f = draw_terms(n, block, seed, integer_grids=False)
    c = T.Tensor(gen(seed + 1).standard_normal(T.kron_sum(a, f).data.shape))

    def loss(_):
        wc = T.mul(T.kron_sum(a, f), c)
        return T.sum_(T.mul(wc, wc))

    for t in (a, f):
        for u in (a, f):
            u.grad = None
        assert T.grad_check(loss, t) < 1e-6


@pytest.mark.parametrize("name", alg.BUILTIN_NAMES)
def test_algebra_layers_match_pattern_assembly_bit_for_bit(name):
    """Weights and block gradients of both algebra-bound layer types equal
    the explicit sign/concat placement of the left pattern, byte for byte
    (blocks of more than one entry; see the kron_sum vjp)."""
    a = alg.builtin(name)
    n = a.n
    fc = L.HFCLayer(a, 3 * n, 2 * n, rng=gen(n))
    conv = L.HConv2DLayer(a, 2 * n, n, 3, rng=gen(n + 1))
    for layer in (fc, conv):
        w = layer.assembled()
        blocks = leaves(layer.f)
        ref = pattern_reference(a, blocks)
        assert w.data.tobytes() == ref.data.tobytes()
        c = gen(7).standard_normal(w.data.shape)
        for weight in (w, ref):
            wc = T.mul(weight, T.Tensor(c))
            T.backward(T.sum_(T.mul(wc, wc)))
        assert layer.f.grad.tobytes() == np.stack([b.grad for b in blocks]).tobytes()


@pytest.mark.parametrize("n", range(1, 9))
def test_ph_layer_weights_match_kron_add_chain(n):
    phm = P.PHMLayer(n, 3 * n, 2 * n, rng=gen(n))
    phc = P.PHCLayer(n, 2 * n, n, 3, rng=gen(n + 1))
    for layer in (phm, phc):
        assert np.array_equal(layer.weight().data, kron_add_chain(leaves(layer.a), leaves(layer.f)).data)


@pytest.mark.parametrize("name", alg.BUILTIN_NAMES)
def test_constant_algebra_grids_receive_no_gradient(name):
    a = alg.builtin(name)
    layer = L.HFCLayer(a, 2 * a.n, a.n, rng=gen(0))
    x = T.Tensor(gen(1).standard_normal((3, 2 * a.n)))
    T.backward(T.sum_(layer(x)))
    grids = L._algebra_grids(a)
    assert layer.a is grids and grids.data.shape == (a.n, a.n, a.n)
    assert grids.grad is None and not grids.requires_grad
    assert layer.f.grad is not None
    with pytest.raises(ValueError):
        grids.data[0, 0, 0] = 2.0  # shared by every layer: read-only


def graph_nodes(out):
    seen, stack = set(), [out]
    while stack:
        t = stack.pop()
        if t._vjp is None or id(t) in seen:
            continue
        seen.add(id(t))
        stack.extend(t._parents)
    return len(seen)


def test_hfc_graph_size_does_not_grow_with_n():
    x = T.Tensor(gen(0).standard_normal((2, 16)))
    counts = {name: graph_nodes(L.HFCLayer(alg.builtin(name), 16, 16, rng=gen(1))(x))
              for name in ("real", "quaternion", "sedenion")}
    assert len(set(counts.values())) == 1, counts


def test_kron_sum_rejects_mismatched_terms():
    a, f = draw_terms(2, (3, 2), 0, integer_grids=True)
    with pytest.raises(ShapeError):
        T.kron_sum(a, T.Tensor(f.data[:1]))
    with pytest.raises(ShapeError):
        T.kron_sum(T.Tensor(np.ones((0, 0, 0))), T.Tensor(np.ones((0, 3, 2))))
    for grids in (np.ones((2, 2)), np.ones((2, 3, 3)), np.ones((2, 2, 3)), np.ones((2, 2, 2, 1))):
        with pytest.raises(ShapeError):  # not (n, n, n)
            T.kron_sum(T.Tensor(grids), f)
    with pytest.raises(ShapeError):  # n = 3 grids against n = 2 blocks
        T.kron_sum(T.Tensor(np.ones((3, 3, 3))), f)
    with pytest.raises(ShapeError):
        T.kron_sum(a, T.Tensor(np.ones((2, 6))))
    with pytest.raises(ShapeError):
        T.kron_sum(a, T.Tensor(np.ones((2, 1, 2, 3))))

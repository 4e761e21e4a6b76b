"""A Kronecker layer's n weight blocks are one (n, *block) tensor ``f``
and its n grid matrices one (n, n, n) tensor ``a``: each drawn matrix
after matrix as before, read whole by ``kron_sum``, and ``f`` the only
parent of a constant-grid ``kron_sum`` node."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hxnn import layers as L
from hxnn import phlayers as P
from hxnn import training as tr
from hxnn.algebra import BUILTIN_NAMES, builtin


def gen(seed):
    return np.random.Generator(np.random.PCG64(seed))


def sequential_blocks(r, n, block, fan_in):
    """The n blocks as n separate He-scaled draws, one after another."""
    std = np.sqrt(2.0 / fan_in)
    return np.stack([r.standard_normal(block) * std for _ in range(n)])


families = st.one_of(st.sampled_from(BUILTIN_NAMES).map(builtin), st.integers(1, 4))


@given(families, st.booleans(), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
       st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_blocks_are_the_sequential_draws_of_before(family, conv, ci, co, kernel, seed):
    algebra = family if not isinstance(family, int) else None
    n = algebra.n if algebra else family
    r = gen(seed)
    if algebra is None:  # the learned grids are drawn first
        grids = np.stack([r.integers(-1, 2, size=(n, n)) for _ in range(n)]).astype(np.float64)
    if conv:
        layer = P.conv_layer(family, ci * n, co * n, kernel, 0, "relu", rng=gen(seed))
        block, fan_in = (co, ci, kernel, kernel), ci * n * kernel * kernel
    else:
        layer = P.linear_layer(family, ci * n, co * n, "relu", rng=gen(seed))
        block, fan_in = (co, ci), ci * n
    expect = sequential_blocks(r, n, block, fan_in if algebra else fan_in / n)
    assert layer.f.data.tobytes() == expect.tobytes()
    assert layer.f.data.shape == (n, *block)
    if algebra is None:
        assert layer.a.data.tobytes() == grids.tobytes()
        assert layer.a.data.shape == (n, n, n)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_a_constant_grid_kron_sum_node_has_the_blocks_alone_as_parent(name):
    a = builtin(name)
    for layer in (L.HFCLayer(a, 2 * a.n, a.n, rng=gen(0)),
                  L.HConv2DLayer(a, a.n, a.n, 3, rng=gen(1))):
        assert layer.assembled()._parents == (layer.f,)
    for layer in (P.PHMLayer(a.n, 2 * a.n, a.n, rng=gen(2)),
                  P.PHCLayer(a.n, a.n, a.n, 3, rng=gen(3))):
        assert P.collapse_to_algebra(layer, a).weight()._parents == (layer.f,)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_a_learned_grid_kron_sum_node_has_the_grids_and_the_blocks_as_parents(n):
    for layer in (P.PHMLayer(n, 2 * n, n, rng=gen(n)), P.PHCLayer(n, n, n, 3, rng=gen(n))):
        assert layer.weight()._parents == (layer.a, layer.f)


def test_parameter_tensor_counts_are_pinned():
    forecasters = {kind: len(tr.lorenz_forecaster(kind, 0).net.parameters())
                   for kind in tr.LORENZ_FORECASTERS}
    assert forecasters == {"real": 4, "quaternion": 4, "phm": 6, "dual_quaternion": 4}
    classifiers = {kind: len(tr.blobs_classifier(kind, 0).parameters())
                   for kind in ("phc", "real")}
    assert classifiers == {"phc": 11, "real": 8}

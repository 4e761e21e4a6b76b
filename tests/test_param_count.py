"""param_count() agrees with parameters() for every layer type."""
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hxnn import algebra as alg
from hxnn import layers as L
from hxnn import phlayers as P
from hxnn import serialize as S
from hxnn import training as tr

KINDS = ("hfc", "hconv2d", "hatt", "hgraph", "phm", "phc", "phatt", "phgraph")
# sedenion (n = 16) is left out only to keep the layers small
ALGEBRAS = [name for name in alg.BUILTIN_NAMES if name != "sedenion"]


def build(kind, algebra, m, bias, heads, rng):
    """One layer of ``kind`` whose sizes are m (or 2m) times n."""
    n = algebra.n
    if kind == "hfc":
        return L.HFCLayer(algebra, m * n, 2 * n, bias=bias, rng=rng)
    if kind == "hconv2d":
        return L.HConv2DLayer(algebra, m * n, n, 3, bias=bias, rng=rng)
    if kind == "hatt":
        return L.HAttBlock(algebra, m * n, kernel=1, rng=rng)
    if kind == "hgraph":
        return L.HGraphConvLayer(algebra, m * n, n, rng=rng)
    if kind == "phm":
        return P.PHMLayer(n, m * n, 2 * n, bias=bias, rng=rng)
    if kind == "phc":
        return P.PHCLayer(n, m * n, n, 3, bias=bias, rng=rng)
    if kind == "phatt":
        return P.PHAttBlock(n, heads * m * n, heads=heads, rng=rng)
    return P.PHGraphLayer(n, m * n, n, rng=rng)


def free_counts_agree(layer):
    return layer.param_count()[0] == sum(p.data.size for p in layer.parameters())


@given(st.sampled_from(KINDS), st.sampled_from(ALGEBRAS), st.integers(1, 3), st.booleans(),
       st.sampled_from([1, 2]), st.booleans(), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_param_count_matches_parameters(kind, algebra_name, m, bias, heads, collapse, seed):
    algebra = alg.builtin(algebra_name)
    layer = build(kind, algebra, m, bias, heads, np.random.Generator(np.random.PCG64(seed)))
    if collapse and kind.startswith("ph"):
        P.collapse_to_algebra(layer, algebra)
    assert free_counts_agree(layer)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.hxnn")
        S.save_model(tr.Network([layer]), path)
        (loaded,) = S.load_model(path).layers
    assert loaded.param_count() == layer.param_count()
    assert free_counts_agree(loaded)


def test_collapsed_phm_counts_only_trainable_weights():
    layer = P.PHMLayer(4, 8, 8)
    assert layer.param_count() == (64 + 16 + 8, 72)
    P.collapse_to_algebra(layer, alg.builtin("quaternion"))
    assert layer.param_count() == (16 + 8, 72)

"""``algebra.multiply_arrays`` against the strided column loop it replaced,
for the built-ins and random monomial tables, under broadcasting: the same
dtype and shape, and the same bytes (signed zeros and infinities included).

One thing is not pinned: which NaN an add returns when both operands are
NaN.  numpy's inner loops do not agree on it (the loop itself gives a
1-d product and the same values as one row of a (40, n) product NaNs of
opposite sign), so where the loop's result is NaN the product must be
NaN, with any sign and payload."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hxnn import algebra as alg
from oracle_ops import multiply_arrays_loop
from test_algebra_tables import tables

SPECIAL = (0.0, -0.0, np.inf, -np.inf, np.nan)

#: (x shape, y shape) around the coefficient axis n, with N, k, m >= 1
SHAPES = {
    "vectors": lambda n, N, k, m: ((n,), (n,)),
    "rows": lambda n, N, k, m: ((N, n), (N, n)),
    "vector by rows": lambda n, N, k, m: ((n,), (N, n)),
    "rows by vector": lambda n, N, k, m: ((N, n), (n,)),
    "outer": lambda n, N, k, m: ((k, 1, n), (1, m, n)),
    "outer, fewer x axes": lambda n, N, k, m: ((m, n), (k, 1, n)),
    "empty rows by vector": lambda n, N, k, m: ((0, n), (n,)),
    "vector by empty grid": lambda n, N, k, m: ((n,), (k, 0, n)),
}


@st.composite
def algebras(draw):
    if draw(st.booleans()):
        return alg.builtin(draw(st.sampled_from(alg.BUILTIN_NAMES)))
    signs, indices = draw(tables())
    return alg.Algebra("t", len(signs), signs, indices)


def values(dtype):
    if dtype == np.int64:
        return st.integers(-50, 50)
    finite = st.floats(-1e3, 1e3, width=np.dtype(dtype).itemsize * 8)
    return st.one_of(finite, st.sampled_from(SPECIAL))


@st.composite
def operands(draw):
    a = draw(algebras())
    dtype = draw(st.sampled_from((np.float64, np.float32, np.int64)))
    sizes = [draw(st.integers(1, 4)) for _ in range(3)]
    xs, ys = SHAPES[draw(st.sampled_from(sorted(SHAPES)))](a.n, *sizes)
    x = draw(hnp.arrays(dtype, xs, elements=values(dtype)))
    y = draw(hnp.arrays(dtype, ys, elements=values(dtype)))
    return a, x, y


def assert_same_product(a, x, y):
    x_bytes, y_bytes = x.tobytes(), y.tobytes()
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, inf * 0
        want = multiply_arrays_loop(a, x, y)
        got = alg.multiply_arrays(a, x, y)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.flags.c_contiguous
    assert not np.shares_memory(got, x) and not np.shares_memory(got, y)
    assert x.tobytes() == x_bytes and y.tobytes() == y_bytes
    nan = np.isnan(want) if want.dtype.kind == "f" else np.zeros(want.shape, bool)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()
    assert np.array_equal(np.signbit(got[~nan]), np.signbit(want[~nan]))


@settings(max_examples=300, deadline=None)
@given(operands())
def test_product_matches_the_strided_column_loop(operands):
    assert_same_product(*operands)


@pytest.mark.parametrize("name", alg.BUILTIN_NAMES)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_builtin_products_match_the_loop_on_signed_zeros_infinities_and_nans(name, shape):
    a = alg.builtin(name)
    xs, ys = SHAPES[shape](a.n, 5, 3, 4)
    rng = np.random.Generator(np.random.PCG64(7))
    x, y = rng.standard_normal(xs), rng.standard_normal(ys)
    for v in (x, y):  # about one coefficient in three is special
        flat = v.reshape(-1)
        picks = rng.integers(0, 3 * len(SPECIAL), size=flat.size)
        hit = picks < len(SPECIAL)
        flat[hit] = np.take(SPECIAL, picks[hit])
    assert_same_product(a, x, y)
    assert_same_product(a, np.abs(x), -np.abs(y))

"""The table-derived parts of hxnn.algebra: doubling, the left pattern, the
grid matrices, the identity checks, the property checks and the zero-divisor
search.  Each is pinned by sha256 on the built-ins and checked against a
plain loop oracle on random monomial tables: same outputs, or the same
exception type and message."""
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hxnn import algebra as alg
from hxnn.errors import ConfigError

# sha256 of (dtype, shape, bytes) of: signs and indices; the left pattern's
# signs and weight indices; the grid matrices in order
PINNED = {
    "real": ("b1363ab3b8dc94f3d5461c62dbeb461c0502efa4f09b451c016a44bb8cf4f66d",
             "b1363ab3b8dc94f3d5461c62dbeb461c0502efa4f09b451c016a44bb8cf4f66d",
             "8ce66f027606516f5b888bf617902d1d644c303354a24ec7c4b87258e73e0ec1"),
    "complex": ("c8a1b27e4bff2683dd3a45473967c785cbbad74d78591607b13fe91fa34b73ab",
                "0d9ef21c666ccc4f9bee28cc07069d0a834a1b3d2a9d8580a6bb859d7907b3b1",
                "266f39f7c67282eb1dc6562cd49a2e9c8b828145d2ef710cd17f177ee1bc9ff6"),
    "quaternion": ("8fdd1d658efe798e9a50cb5b7f61fe5ce7a48a4b044bc4621718b0e5ee591000",
                   "00d6fe50482ef7fd1fa514b57a51608c9f93f9bdf29e7cfa1f74a23e7e9ae3f4",
                   "81418adb864accd151934d2cb93c11992134d15fec3a52874e21be0f294abfcc"),
    "tessarine": ("0e1c11acc82b0b321e44dca0cff336f46b071b1d195b064c9c4e4de2e4eda956",
                  "dc8637689a832cf636fbb656f7d5d17879379a8b552f8f3913ffae759800658b",
                  "4a2e697ca37876fdf70fe91570c8ed6fb14fa603c169b238e487c5289e22b24e"),
    "dual_quaternion": ("572c52ea105c6ed079da46d610641640b9d90b54b7bacc9532fd8808dcce007a",
                        "d01a6008e54b5b40787547981aeb2858a10cbb6d6d84a94137c7b168570a43d6",
                        "b6ec01ef5cdbdf7ef4eca95af943b45aa28d9eaf0002769a6c8929e5998df86f"),
    "octonion": ("90c9c52a7d8c5c8ce15e17d35f7d4e053fafb6f2e717d9e398548204752a2b36",
                 "906a9435b5cc153a9e5a7a7b791a20e2a3048bb65f72c8c0ba9738ba7582022f",
                 "5f9761c51492edbced0ea1817df0f800de3ab73c36d24bacff059ae739e3f561"),
    "sedenion": ("24ecee9de68f8008bd474815b6589f0dbe61a40821f53894ea7bf519dbf162c5",
                 "e92970189938164ae6600bad5e3293ca7be53f3901587cb2a1b2600578c40f49",
                 "a3b401480f3933ab5dbd9c981e8e2a7a03cffbd71b90e0bba479202b6ce5bd26"),
}

# sha256 of the signs and indices of cayley_dickson_double(builtin(name))
PINNED_DOUBLED = {
    "real": "c8a1b27e4bff2683dd3a45473967c785cbbad74d78591607b13fe91fa34b73ab",
    "complex": "8fdd1d658efe798e9a50cb5b7f61fe5ce7a48a4b044bc4621718b0e5ee591000",
    "quaternion": "90c9c52a7d8c5c8ce15e17d35f7d4e053fafb6f2e717d9e398548204752a2b36",
    "octonion": "24ecee9de68f8008bd474815b6589f0dbe61a40821f53894ea7bf519dbf162c5",
    "sedenion": "bda3b2cbdfa54ece592e6e9e21ff13822c6e7d89d85b9a09274f68610dded21b",
}


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", alg.BUILTIN_NAMES)
def test_builtin_tables_patterns_and_grids_are_pinned(name):
    a = alg.builtin(name)
    p = alg.left_pattern(a)
    got = (digest(a.signs, a.indices), digest(p.signs, p.weight_indices),
           digest(*alg.algebra_grid_matrices(a)))
    assert got == PINNED[name]


@pytest.mark.parametrize("name", PINNED_DOUBLED)
def test_doubled_tables_are_pinned(name):
    d = alg.cayley_dickson_double(alg.builtin(name))
    assert d.name == f"double({name})"
    assert digest(d.signs, d.indices) == PINNED_DOUBLED[name]


# -----------------------------------------------------------------------------
# loop oracles: the per-entry versions these functions had before they were
# written as whole-array operations


def oracle_double(a):
    n = a.n
    for i in range(1, n):
        if not (a.signs[i, i] == -1 and a.indices[i, i] == 0):
            raise ValueError(f"{a.name} is not a Cayley-Dickson algebra (e_{i}^2 != -1)")
    m = 2 * n
    signs = np.zeros((m, m), dtype=np.int8)
    indices = np.zeros((m, m), dtype=np.intp)
    conj_sign = lambda j: 1 if j == 0 else -1
    for i in range(m):
        for j in range(m):
            if i < n and j < n:
                s, k = a.signs[i, j], a.indices[i, j]
            elif i < n:
                s, k = a.signs[j - n, i], a.indices[j - n, i] + n
            elif j < n:
                s, k = conj_sign(j) * a.signs[i - n, j], a.indices[i - n, j] + n
            else:
                s, k = -conj_sign(j - n) * a.signs[j - n, i - n], a.indices[j - n, i - n]
            signs[i, j] = s
            indices[i, j] = k
    return alg.Algebra(f"double({a.name})", m, signs, indices)


def oracle_left_pattern(a):
    n = a.n
    signs = np.zeros((n, n), dtype=np.int8)
    widx = np.zeros((n, n), dtype=np.intp)
    for c in range(n):
        for i in range(n):
            s = a.signs[i, c]
            if s == 0:
                continue
            r = a.indices[i, c]
            if signs[r, c] != 0:
                raise ValueError(f"{a.name}: column {c} maps two weights onto row {r}")
            signs[r, c] = s
            widx[r, c] = i
    return alg.LeftMatrixPattern(signs, widx)


def oracle_grid_matrices(a):
    p = oracle_left_pattern(a)
    return [np.where((p.weight_indices == i) & (p.signs != 0), p.signs, 0).astype(np.float64)
            for i in range(a.n)]


def oracle_identity_error(signs, indices):
    n = len(signs)
    for j in range(n):
        if not (signs[0, j] == 1 and indices[0, j] == j):
            return "e_0 is not a left identity"
        if not (signs[j, 0] == 1 and indices[j, 0] == j):
            return "e_0 is not a right identity"
    return None


def _units(rng, count, n):
    v = rng.standard_normal((count, n))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _sums(n):
    eye = np.eye(n)
    i, j = np.triu_indices(n, 1)
    return np.concatenate([eye, np.stack([eye[i] + eye[j], eye[i] - eye[j]], 1).reshape(-1, n)])


def oracle_check_property(a, prop, *, seed, samples, tol):
    """The loop version; with no random samples the exact pass decides,
    which a random pass that accepts every tuple reproduces."""
    if samples == 0:
        return loop_check_property(a, prop, seed=seed, samples=1, tol=np.inf)
    return loop_check_property(a, prop, seed=seed, samples=samples, tol=tol)


def loop_check_property(a, prop, *, seed, samples, tol):
    n = a.n
    rng = np.random.Generator(np.random.PCG64(seed))
    mul = lambda x, y: alg.multiply_arrays(a, x, y)
    basis = lambda k: list(np.eye(n)[np.indices((n,) * k).reshape(k, -1)])
    if prop == "commutative":
        x, y = basis(2)
        if not np.array_equal(mul(x, y), mul(y, x)):
            return False
        x, y = _units(rng, samples, n), _units(rng, samples, n)
        return bool(np.max(np.abs(mul(x, y) - mul(y, x))) <= tol)
    if prop == "associative":
        x, y, z = basis(3)
        if not np.array_equal(mul(mul(x, y), z), mul(x, mul(y, z))):
            return False
        x, y, z = (_units(rng, samples, n) for _ in range(3))
        return bool(np.max(np.abs(mul(mul(x, y), z) - mul(x, mul(y, z)))) <= tol)
    if prop == "alternative":
        xs, ys = _sums(n), np.eye(n)
        X = np.repeat(xs, len(ys), axis=0)
        Y = np.tile(ys, (len(xs), 1))
        left_ok = np.max(np.abs(mul(mul(X, X), Y) - mul(X, mul(X, Y)))) == 0.0
        right_ok = np.max(np.abs(mul(mul(Y, X), X) - mul(Y, mul(X, X)))) == 0.0
        if not (left_ok and right_ok):
            return False
        x, y = _units(rng, samples, n), _units(rng, samples, n)
        d1 = np.abs(mul(mul(x, x), y) - mul(x, mul(x, y)))
        d2 = np.abs(mul(mul(y, x), x) - mul(y, mul(x, x)))
        return bool(max(np.max(d1), np.max(d2)) <= tol)

    def powers_agree(x, t):
        x2 = mul(x, x)
        x3a, x3b = mul(x2, x), mul(x, x2)
        if np.max(np.abs(x3a - x3b)) > t:
            return False
        x4 = [mul(x3a, x), mul(x3b, x), mul(x, x3a), mul(x, x3b), mul(x2, x2)]
        return all(np.max(np.abs(v - x4[0])) <= t for v in x4[1:])

    if not powers_agree(_sums(n), 0.0):
        return False
    return powers_agree(_units(rng, samples, n), tol)


def oracle_find_zero_divisor(a, budget):
    cands = _sums(a.n)
    m = len(cands)
    prods = alg.multiply_arrays(a, cands[:, None, :], cands[None, :, :])
    for xi, yi in np.argwhere(~np.any(prods != 0.0, axis=2)):
        if xi * m + yi >= budget:
            break
        return cands[xi].tolist(), cands[yi].tolist()
    return None


def outcome(fn, *args, **kwargs):
    """``fn``'s result made comparable, or its exception's type and message."""
    try:
        out = fn(*args, **kwargs)
    except Exception as exc:  # the type is part of what is compared
        return type(exc), str(exc)
    if isinstance(out, alg.Algebra):
        return out.name, out.n, digest(out.signs, out.indices)
    if isinstance(out, alg.LeftMatrixPattern):
        return digest(out.signs, out.weight_indices)
    if isinstance(out, list):
        return digest(*out)
    return out


# -----------------------------------------------------------------------------
# random monomial tables


@st.composite
def tables(draw, identity=True):
    """(signs, indices) of an n x n monomial table, n in 1..8.  Indices are
    random, cyclic (i + j mod n) or i xor j; the xor kind rounds n down to a
    power of two, and with ``cd`` also squares every imaginary unit to -1,
    so that the table can be doubled."""
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["random", "cyclic", "xor", "cd"]))
    if kind in ("xor", "cd"):
        n = 1 << (n.bit_length() - 1)
    i, j = np.indices((n, n))
    signs = np.array(draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=n * n,
                                   max_size=n * n))).reshape(n, n)
    if kind == "random":
        indices = np.array(draw(st.lists(st.integers(0, n - 1), min_size=n * n,
                                         max_size=n * n))).reshape(n, n)
    else:
        indices = (i + j) % n if kind == "cyclic" else i ^ j
    if kind == "cd":
        np.fill_diagonal(signs, -1)
    if identity:
        signs[0, :] = signs[:, 0] = 1
        indices[0, :] = indices[:, 0] = np.arange(n)
    return signs, indices


@settings(max_examples=150, deadline=None)
@given(tables())
def test_doubling_pattern_and_grids_match_loop_oracles(table):
    a = alg.Algebra("t", len(table[0]), *table)
    assert outcome(alg.cayley_dickson_double, a) == outcome(oracle_double, a)
    assert outcome(alg.left_pattern, a) == outcome(oracle_left_pattern, a)
    assert outcome(alg.algebra_grid_matrices, a) == outcome(oracle_grid_matrices, a)


@settings(max_examples=60, deadline=None)
@given(tables(), st.integers(0, 2**32), st.integers(0, 40), st.sampled_from((0.0, 1e-12, 1e-6)))
def test_property_checks_match_loop_oracle(table, seed, samples, tol):
    a = alg.Algebra("t", len(table[0]), *table)
    for prop in alg.PROPERTIES:
        kw = dict(seed=seed, samples=samples, tol=tol)
        assert outcome(alg.check_property, a, prop, **kw) == \
            outcome(oracle_check_property, a, prop, **kw), prop


@settings(max_examples=60, deadline=None)
@given(tables(), st.integers(-5, 300))
def test_zero_divisor_search_matches_loop_oracle(table, budget):
    a = alg.Algebra("t", len(table[0]), *table)
    budgets = [budget]
    pair = oracle_find_zero_divisor(a, 10**9)
    if pair is not None:  # also just below and at the first pair's position
        cands = _sums(a.n).tolist()
        at = cands.index(pair[0]) * len(cands) + cands.index(pair[1])
        budgets += [at, at + 1]
    for b in budgets:
        if b < 0:  # the oracle would search nothing; the library rejects the budget
            with pytest.raises(ConfigError, match=f"budget={b}"):
                alg.find_zero_divisor(a, b)
            continue
        pair = alg.find_zero_divisor(a, b)
        got = None if pair is None else (pair[0].coeffs.tolist(), pair[1].coeffs.tolist())
        assert got == oracle_find_zero_divisor(a, b), b


@settings(max_examples=150, deadline=None)
@given(tables(identity=False))
def test_identity_check_names_the_side_a_scan_over_j_finds_first(table):
    expected = oracle_identity_error(*table)
    if expected is None:
        alg.Algebra("t", len(table[0]), *table)
    else:
        with pytest.raises(ValueError) as info:
            alg.Algebra("t", len(table[0]), *table)
        assert str(info.value) == expected


@pytest.mark.parametrize("name", alg.BUILTIN_NAMES)
def test_builtin_flags_and_zero_divisors_match_loop_oracles(name):
    a = alg.builtin(name)
    kw = dict(seed=alg.DEFAULT_SEED, samples=1000, tol=alg.SAMPLE_TOL)
    assert list(alg.check_properties(a).values()) == \
        [oracle_check_property(a, p, **kw) for p in alg.PROPERTIES]
    # no random samples: a law the exact pass refutes is False, else True
    # (sedenion alternativity fails on sums only)
    kw["samples"] = 0
    for p in alg.PROPERTIES:
        assert outcome(alg.check_property, a, p, **kw) == \
            outcome(oracle_check_property, a, p, **kw)
    for budget in (0, 1, 17, 100, 1000, 100_000):
        pair = alg.find_zero_divisor(a, budget)
        got = None if pair is None else (pair[0].coeffs.tolist(), pair[1].coeffs.tolist())
        assert got == oracle_find_zero_divisor(a, budget)


# -----------------------------------------------------------------------------
# signs outside {-1, 0, +1}


@pytest.mark.parametrize("bad, shown", [(2, "2"), (255, "255"), (-3, "-3"), (0.5, "0.5")])
def test_signs_outside_minus_one_zero_one_raise_value_error_naming_the_entry(bad, shown):
    with pytest.raises(ValueError, match=rf"sign of e_1 \* e_1 is {shown}, expected"):
        alg.Algebra("odd", 2, [[1, 1], [1, bad]], [[0, 1], [1, 0]])


def test_unknown_builtin_is_both_a_name_error_and_a_value_error():
    with pytest.raises(ValueError, match="unknown algebra: 'bicomplex'") as info:
        alg.builtin("bicomplex")
    assert isinstance(info.value, NameError)

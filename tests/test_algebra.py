import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hxnn import algebra as alg
from hxnn.cli import main
from hxnn.errors import AlgebraMismatch, ConfigError
from oracle_ops import conjugate

# Canonical left-multiplication layouts, transcribed row by row from the
# published property table.  Token "+k"/"-k" means +-W_k, "." a zero cell.
CANONICAL_PATTERNS = {
    "real": "+0",
    "complex": """
        +0 -1
        +1 +0
    """,
    "quaternion": """
        +0 -1 -2 -3
        +1 +0 -3 +2
        +2 +3 +0 -1
        +3 -2 +1 +0
    """,
    "tessarine": """
        +0 -1 +2 -3
        +1 +0 +3 +2
        +2 -3 +0 -1
        +3 +2 +1 +0
    """,
    "dual_quaternion": """
        +0 -1 -2 -3  .  .  .  .
        +1 +0 -3 +2  .  .  .  .
        +2 +3 +0 -1  .  .  .  .
        +3 -2 +1 +0  .  .  .  .
        +4 -5 -6 -7 +0 -1 -2 -3
        +5 +4 -7 +6 +1 +0 -3 +2
        +6 +7 +4 -5 +2 +3 +0 -1
        +7 -6 +5 +4 +3 -2 +1 +0
    """,
    "octonion": """
        +0 -1 -2 -3 -4 -5 -6 -7
        +1 +0 -3 +2 -5 +4 +7 -6
        +2 +3 +0 -1 -6 -7 +4 +5
        +3 -2 +1 +0 -7 +6 -5 +4
        +4 +5 +6 +7 +0 -1 -2 -3
        +5 -4 +7 -6 +1 +0 +3 -2
        +6 -7 -4 +5 +2 -3 +0 +1
        +7 +6 -5 -4 +3 +2 -1 +0
    """,
}

# property flags (commutative, associative, alternative, power-associative)
CANONICAL_FLAGS = {
    "real": (True, True, True, True),
    "complex": (True, True, True, True),
    "quaternion": (False, True, True, True),
    "tessarine": (True, True, True, True),
    "dual_quaternion": (False, True, True, True),
    "octonion": (False, False, True, True),
}


def parse_pattern(text):
    signs, widx = [], []
    for line in text.strip().splitlines():
        srow, wrow = [], []
        for tok in line.split():
            if tok == ".":
                srow.append(0)
                wrow.append(0)
            else:
                srow.append(1 if tok[0] == "+" else -1)
                wrow.append(int(tok[1:]))
        signs.append(srow)
        widx.append(wrow)
    return np.array(signs), np.array(widx)


def naive_multiply(a, x, y):
    """Independent oracle: plain double loop over the structure constants."""
    z = np.zeros(a.n)
    for i in range(a.n):
        for j in range(a.n):
            z[a.indices[i, j]] += a.signs[i, j] * x[i] * y[j]
    return z


@pytest.mark.parametrize("name", CANONICAL_PATTERNS)
def test_left_pattern_matches_canonical_table(name):
    a = alg.builtin(name)
    p = alg.left_pattern(a)
    signs, widx = parse_pattern(CANONICAL_PATTERNS[name])
    assert np.array_equal(p.signs, signs)
    mask = signs != 0
    assert np.array_equal(p.weight_indices[mask], widx[mask])


@pytest.mark.parametrize("name", CANONICAL_FLAGS)
def test_property_flags(name):
    a = alg.builtin(name)
    got = tuple(alg.check_properties(a).values())
    assert got == CANONICAL_FLAGS[name]


def test_sedenion_flags():
    s = alg.builtin("sedenion")
    assert alg.check_property(s, "associative") is False
    assert alg.check_property(s, "alternative") is False
    assert alg.check_property(s, "power_associative") is True


def test_unknown_name():
    with pytest.raises(NameError):
        alg.builtin("bicomplex")


def test_doubling_ladder_reproduces_builtins():
    a = alg.builtin("real")
    for name in ("complex", "quaternion", "octonion", "sedenion"):
        a = alg.cayley_dickson_double(a)
        b = alg.builtin(name)
        assert a.n == b.n
        assert np.array_equal(a.signs, b.signs)
        mask = a.signs != 0
        assert np.array_equal(a.indices[mask], b.indices[mask])


def test_doubling_rejects_non_cd_algebra():
    with pytest.raises(ValueError):
        alg.cayley_dickson_double(alg.builtin("tessarine"))
    with pytest.raises(ValueError):
        alg.cayley_dickson_double(alg.builtin("dual_quaternion"))


def test_quaternion_basis_products():
    q = alg.builtin("quaternion")
    i, j, k = q.basis(1), q.basis(2), q.basis(3)
    assert np.array_equal((i * j).coeffs, k.coeffs)
    assert np.array_equal((j * i).coeffs, (-k).coeffs)
    assert np.array_equal((i * i).coeffs, (-q.one()).coeffs)


def test_tessarine_and_dual_unit_squares():
    t = alg.builtin("tessarine")
    assert np.array_equal((t.basis(2) * t.basis(2)).coeffs, t.one().coeffs)
    d = alg.builtin("dual_quaternion")
    eps = d.basis(4)
    assert np.array_equal((eps * eps).coeffs, d.zero().coeffs)


def test_add_scale_conjugate():
    q = alg.builtin("quaternion")
    x = q.element([1, 1, 0, 0])
    y = q.element([2, 0, 1, 0])
    assert np.array_equal(alg.add(x, y).coeffs, [3, 1, 1, 0])
    assert np.array_equal(alg.scale(0.0, x).coeffs, np.zeros(4))
    assert np.array_equal(alg.scale(2.0, x).coeffs, [2, 2, 0, 0])
    c = conjugate(q, q.element([1, 1, 1, 1]))
    assert np.array_equal(c.coeffs, [1, -1, -1, -1])
    r = alg.builtin("real")
    assert np.array_equal(conjugate(r, r.element([3.0])).coeffs, [3.0])


def test_algebra_mismatch_raises():
    q = alg.builtin("quaternion")
    t = alg.builtin("tessarine")
    with pytest.raises(AlgebraMismatch):
        alg.add(q.one(), t.one())
    with pytest.raises(AlgebraMismatch):
        alg.multiply(q, q.one(), t.one())


def test_conjugate_product_gives_squared_norm():
    q = alg.builtin("quaternion")
    rng = np.random.Generator(np.random.PCG64(alg.DEFAULT_SEED))
    for _ in range(50):
        x = q.element(rng.standard_normal(4))
        z = alg.multiply(q, x, conjugate(q, x))
        expect = np.zeros(4)
        expect[0] = np.sum(x.coeffs**2)
        assert np.max(np.abs(z.coeffs - expect)) < 1e-12


@pytest.mark.parametrize("name", alg.BUILTIN_NAMES)
def test_identity_law_and_left_matrix_oracle(name):
    a = alg.builtin(name)
    rng = np.random.Generator(np.random.PCG64(alg.DEFAULT_SEED))
    for _ in range(1000):
        w = a.element(rng.standard_normal(a.n))
        x = a.element(rng.standard_normal(a.n))
        assert np.array_equal(alg.multiply(a, a.one(), x).coeffs, x.coeffs)
        assert np.array_equal(alg.multiply(a, x, a.one()).coeffs, x.coeffs)
        via_matrix = alg.left_matrix(a, w) @ x.coeffs
        assert np.array_equal(via_matrix, alg.multiply(a, w, x).coeffs)
        assert np.max(np.abs(via_matrix - naive_multiply(a, w.coeffs, x.coeffs))) < 1e-12


@given(st.sampled_from(list(alg.BUILTIN_NAMES)), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_bilinearity(name, seed):
    a = alg.builtin(name)
    rng = np.random.Generator(np.random.PCG64(seed))
    x, y, z = (a.element(rng.standard_normal(a.n)) for _ in range(3))
    lhs = alg.multiply(a, alg.add(x, y), z)
    rhs = alg.add(alg.multiply(a, x, z), alg.multiply(a, y, z))
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-12
    lhs2 = alg.multiply(a, x, alg.add(y, z))
    rhs2 = alg.add(alg.multiply(a, x, y), alg.multiply(a, x, z))
    assert np.max(np.abs(lhs2.coeffs - rhs2.coeffs)) < 1e-12


def test_norm_multiplicativity_quaternion_but_not_sedenion():
    q = alg.builtin("quaternion")
    rng = np.random.Generator(np.random.PCG64(alg.DEFAULT_SEED))
    for _ in range(200):
        p = q.element(rng.standard_normal(4))
        r = q.element(rng.standard_normal(4))
        assert abs((p * r).norm() - p.norm() * r.norm()) < 1e-12 * max(
            1.0, p.norm() * r.norm()
        )
    s = alg.builtin("sedenion")
    pair = alg.find_zero_divisor(s)
    assert pair is not None
    x, y = pair
    assert x.norm() > 0 and y.norm() > 0
    # zero divisors break norm multiplicativity outright
    assert abs((x * y).norm() - x.norm() * y.norm()) > 1.0


def test_zero_divisors_by_algebra():
    assert alg.find_zero_divisor(alg.builtin("real")) is None
    assert alg.find_zero_divisor(alg.builtin("complex")) is None
    assert alg.find_zero_divisor(alg.builtin("quaternion")) is None
    assert alg.find_zero_divisor(alg.builtin("octonion")) is None
    d = alg.find_zero_divisor(alg.builtin("dual_quaternion"))
    assert d is not None
    eps = np.zeros(8)
    eps[4] = 1.0
    assert np.array_equal(d[0].coeffs, eps)
    assert np.array_equal(d[1].coeffs, eps)


def test_zero_divisor_budget_zero_finds_nothing():
    assert alg.find_zero_divisor(alg.builtin("sedenion"), budget=0) is None


@pytest.mark.parametrize("budget", [-1, -5])
def test_zero_divisor_search_rejects_a_negative_budget(budget, capsys):
    with pytest.raises(ConfigError, match=f"budget={budget}"):
        alg.find_zero_divisor(alg.builtin("sedenion"), budget=budget)
    assert main(["algebra", "zerodiv", "sedenion", "--budget", str(budget)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and f"budget={budget}" in err


def test_zero_divisor_search_multiplies_only_the_rows_its_budget_reaches():
    s = alg.builtin("sedenion")
    m = 256  # 16 basis vectors and 240 signed pair sums
    alg.find_zero_divisor(s, budget=1)  # build the algebra's tables first
    tracemalloc.start()
    try:
        alg.find_zero_divisor(s, budget=m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak  # all m * m products: about 9 MB


def test_table_lines_format():
    c = alg.builtin("complex")
    lines = list(c.table_lines())
    assert lines == ["0 0 1 0", "0 1 1 1", "1 0 1 1", "1 1 -1 0"]

"""Hypercomplex number systems as monomial structure-constant tables.

An algebra of dimension n is pinned down by one rule per basis pair:
e_i * e_j = sign * e_k with sign in {-1, 0, +1} (sign 0 means the product
vanishes, as for the dual unit).  Every number system handled here --
real, complex, quaternion, tessarine, dual quaternion, octonion,
sedenion -- fits this monomial shape, which keeps all basis-level checks
exact integer arithmetic.

The left-multiplication matrix of a fixed element w (the block layout
that weight-sharing layers instantiate) is derived from the same table,
so ``multiply`` and ``left_matrix`` share one code path by construction.
``multiply_arrays`` applies the table itself to whole (..., n) coefficient
arrays; it is the quaternion product behind :mod:`hxnn.geometry`.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AlgebraMismatch

DEFAULT_SEED = 0xC0FFEE
SAMPLE_TOL = 1e-12

#: property names in the order they are reported everywhere
PROPERTIES = ("commutative", "associative", "alternative", "power_associative")

BUILTIN_NAMES = (
    "real",
    "complex",
    "quaternion",
    "tessarine",
    "dual_quaternion",
    "octonion",
    "sedenion",
)


@dataclass(frozen=True, eq=False)
class Algebra:
    """A hypercomplex number system of dimension ``n``.

    ``signs[i, j]`` and ``indices[i, j]`` encode e_i * e_j = s * e_k.
    Instances are immutable and safe to share across threads.
    """

    name: str
    n: int
    signs: np.ndarray    # (n, n) int8 in {-1, 0, +1}
    indices: np.ndarray  # (n, n) target basis index

    def __post_init__(self):
        n = self.n
        if n < 1:
            raise ValueError(f"dimension must be >= 1, got {n}")
        signs = np.asarray(self.signs, dtype=np.int8).reshape(n, n)
        indices = np.asarray(self.indices, dtype=np.intp).reshape(n, n)
        if indices.min() < 0 or indices.max() >= n:
            raise ValueError("table index out of range")
        for j in range(n):
            if not (signs[0, j] == 1 and indices[0, j] == j):
                raise ValueError("e_0 is not a left identity")
            if not (signs[j, 0] == 1 and indices[j, 0] == j):
                raise ValueError("e_0 is not a right identity")
        signs.setflags(write=False)
        indices.setflags(write=False)
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "indices", indices)

    def __repr__(self):
        return f"Algebra({self.name!r}, n={self.n})"

    # -- element constructors -------------------------------------------------
    def element(self, coeffs) -> "HNumber":
        return HNumber(self, np.asarray(coeffs, dtype=np.float64))

    def basis(self, i: int) -> "HNumber":
        c = np.zeros(self.n)
        c[i] = 1.0
        return HNumber(self, c)

    def zero(self) -> "HNumber":
        return HNumber(self, np.zeros(self.n))

    def one(self) -> "HNumber":
        return self.basis(0)

    def table_lines(self):
        """One text line per basis pair: ``i j sign k``."""
        for i in range(self.n):
            for j in range(self.n):
                yield f"{i} {j} {int(self.signs[i, j])} {int(self.indices[i, j])}"


@dataclass(frozen=True, eq=False)
class HNumber:
    """An element of an :class:`Algebra`: a length-n coefficient vector."""

    algebra: Algebra
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.float64)
        if c.shape != (self.algebra.n,):
            raise AlgebraMismatch(
                f"coefficient vector of shape {c.shape} does not fit "
                f"algebra of dimension {self.algebra.n}"
            )
        object.__setattr__(self, "coeffs", c)

    def __repr__(self):
        return f"HNumber({self.algebra.name}, {self.coeffs.tolist()})"

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, scale(-1.0, other))

    def __mul__(self, other):
        if isinstance(other, HNumber):
            return multiply(self.algebra, self, other)
        return scale(float(other), self)

    def __rmul__(self, other):
        return scale(float(other), self)

    def __neg__(self):
        return scale(-1.0, self)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


@dataclass(frozen=True, eq=False)
class LeftMatrixPattern:
    """Symbolic layout of the left-multiplication matrix.

    Cell (r, c) holds ``signs[r, c] * w[weight_indices[r, c]]``; a zero
    sign marks a structurally zero cell (the weight index there is
    meaningless and set to 0).
    """

    signs: np.ndarray
    weight_indices: np.ndarray


# -----------------------------------------------------------------------------
# built-in algebras


def _real() -> Algebra:
    return Algebra("real", 1, np.array([[1]]), np.array([[0]]))


def cayley_dickson_double(a: Algebra) -> Algebra:
    """Double an algebra with the convention (p,q)(r,s) = (pr - s̄q, sp + qr̄).

    Requires a genuine Cayley-Dickson input: e_0 is the identity and every
    imaginary basis unit squares to -1.
    """
    n = a.n
    for i in range(1, n):
        if not (a.signs[i, i] == -1 and a.indices[i, i] == 0):
            raise ValueError(
                f"{a.name} is not a Cayley-Dickson algebra (e_{i}^2 != -1)"
            )
    m = 2 * n
    signs = np.zeros((m, m), dtype=np.int8)
    indices = np.zeros((m, m), dtype=np.intp)

    def conj_sign(j):
        return 1 if j == 0 else -1

    for i in range(m):
        for j in range(m):
            if i < n and j < n:
                s, k = a.signs[i, j], a.indices[i, j]
            elif i < n:
                jj = j - n
                s, k = a.signs[jj, i], a.indices[jj, i] + n
            elif j < n:
                ii = i - n
                s = conj_sign(j) * a.signs[ii, j]
                k = a.indices[ii, j] + n
            else:
                ii, jj = i - n, j - n
                s = -conj_sign(jj) * a.signs[jj, ii]
                k = a.indices[jj, ii]
            signs[i, j] = s
            indices[i, j] = k
    return Algebra(f"double({a.name})", m, signs, indices)


def _tessarine() -> Algebra:
    # commutative 4d system: e_1^2 = -1, e_2^2 = +1, e_3 = e_1 e_2
    rules = {
        (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
        (2, 1): (1, 3), (2, 2): (1, 0), (2, 3): (1, 1),
        (3, 1): (-1, 2), (3, 2): (1, 1), (3, 3): (-1, 0),
    }
    signs = np.zeros((4, 4), dtype=np.int8)
    indices = np.zeros((4, 4), dtype=np.intp)
    for i in range(4):
        signs[i, 0] = signs[0, i] = 1
        indices[i, 0] = indices[0, i] = i
    for (i, j), (s, k) in rules.items():
        signs[i, j] = s
        indices[i, j] = k
    return Algebra("tessarine", 4, signs, indices)


def _dual_quaternion() -> Algebra:
    # basis (1, i, j, k, eps, eps*i, eps*j, eps*k); eps is central, eps^2 = 0
    q = builtin("quaternion")
    signs = np.zeros((8, 8), dtype=np.int8)
    indices = np.zeros((8, 8), dtype=np.intp)
    for i in range(8):
        for j in range(8):
            di, dj = i // 4, j // 4
            if di + dj >= 2:
                continue  # eps^2 = 0
            qi, qj = i % 4, j % 4
            signs[i, j] = q.signs[qi, qj]
            indices[i, j] = q.indices[qi, qj] + 4 * (di + dj)
    return Algebra("dual_quaternion", 8, signs, indices)


@lru_cache(maxsize=None)
def builtin(name: str) -> Algebra:
    """Look up one of the built-in algebras by name."""
    if name == "real":
        return _real()
    if name == "complex":
        a = cayley_dickson_double(builtin("real"))
    elif name == "quaternion":
        a = cayley_dickson_double(builtin("complex"))
    elif name == "octonion":
        a = cayley_dickson_double(builtin("quaternion"))
    elif name == "sedenion":
        a = cayley_dickson_double(builtin("octonion"))
    elif name == "tessarine":
        return _tessarine()
    elif name == "dual_quaternion":
        return _dual_quaternion()
    else:
        raise NameError(f"unknown algebra: {name!r} (expected one of {BUILTIN_NAMES})")
    return Algebra(name, a.n, a.signs, a.indices)


# -----------------------------------------------------------------------------
# arithmetic


def _check_member(a: Algebra, x: HNumber):
    if x.algebra is not a and x.algebra.name != a.name:
        raise AlgebraMismatch(f"{x.algebra.name} element used in {a.name} operation")


def add(x: HNumber, y: HNumber) -> HNumber:
    _check_member(x.algebra, y)
    return HNumber(x.algebra, x.coeffs + y.coeffs)


def scale(alpha: float, x: HNumber) -> HNumber:
    return HNumber(x.algebra, alpha * x.coeffs)


def conjugate(a: Algebra, x: HNumber) -> HNumber:
    _check_member(a, x)
    c = x.coeffs.copy()
    c[1:] = -c[1:]
    return HNumber(a, c)


@lru_cache(maxsize=None)
def left_pattern(a: Algebra) -> LeftMatrixPattern:
    """Sign/weight-index layout of the left-multiplication matrix of ``a``.

    Column c of the matrix lists the coefficients of w * e_c, so cell
    (r, c) is filled from the unique table entry e_i * e_c = s * e_r.
    """
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
                raise ValueError(
                    f"{a.name}: column {c} maps two weights onto row {r}"
                )
            signs[r, c] = s
            widx[r, c] = i
    signs.setflags(write=False)
    widx.setflags(write=False)
    return LeftMatrixPattern(signs, widx)


def algebra_grid_matrices(algebra: Algebra) -> list[np.ndarray]:
    """The n fixed grid matrices that reproduce an algebra's left pattern:
    A_i[r, c] = sign(r, c) where the pattern's weight index is i."""
    p = left_pattern(algebra)
    n = algebra.n
    mats = []
    for i in range(n):
        m = np.where((p.weight_indices == i) & (p.signs != 0), p.signs, 0)
        mats.append(m.astype(np.float64))
    return mats


def left_matrix(a: Algebra, w: HNumber) -> np.ndarray:
    """The n x n real matrix M with M @ vec(x) = vec(w * x)."""
    _check_member(a, w)
    p = left_pattern(a)
    return p.signs * w.coeffs[p.weight_indices]


def multiply(a: Algebra, x: HNumber, y: HNumber) -> HNumber:
    """Product in ``a``, computed as left_matrix(x) @ vec(y)."""
    _check_member(a, x)
    _check_member(a, y)
    return HNumber(a, left_matrix(a, x) @ y.coeffs)


def multiply_arrays(a: Algebra, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Product in ``a`` on (..., n) coefficient arrays, broadcast together.

    Coefficient k starts from its e_0 * e_k term (the Algebra checks that
    e_0 is the identity) and adds the others in (i, j) order, never
    starting from zero, so quaternion products carry the bits (signed
    zeros too) of the Hamilton formula written out term by term.
    """
    out = x[..., :1] * y
    for i in range(1, a.n):
        for j in range(a.n):
            s, k = a.signs[i, j], a.indices[i, j]
            if s > 0:
                out[..., k] += x[..., i] * y[..., j]
            elif s < 0:
                out[..., k] -= x[..., i] * y[..., j]
    return out


# -----------------------------------------------------------------------------
# property verification


def _basis_tuples(n, k):
    """All n**k k-tuples of basis vectors, as k aligned (n**k, n) arrays."""
    return list(np.eye(n)[np.indices((n,) * k).reshape(k, -1)])


def _basis_and_pair_sums(n):
    """The n basis vectors, then e_i + e_j and e_i - e_j for each i < j."""
    eye = np.eye(n)
    i, j = np.triu_indices(n, 1)
    pairs = np.stack([eye[i] + eye[j], eye[i] - eye[j]], axis=1).reshape(-1, n)
    return np.concatenate([eye, pairs])


def _random_units(rng, count, n):
    v = rng.standard_normal((count, n))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def check_property(
    a: Algebra,
    prop: str,
    *,
    seed: int = DEFAULT_SEED,
    samples: int = 1000,
    tol: float = SAMPLE_TOL,
) -> bool:
    """Brute-force verification of one multiplication property.

    Basis-level checks are exhaustive and exact (integer arithmetic in
    float64); they are complemented by ``samples`` seeded random triples
    compared to ``tol``.
    """
    if prop not in PROPERTIES:
        raise ValueError(f"unknown property {prop!r}, expected one of {PROPERTIES}")
    n = a.n
    rng = np.random.Generator(np.random.PCG64(seed))
    mul = lambda x, y: multiply_arrays(a, x, y)

    if prop == "commutative":
        x, y = _basis_tuples(n, 2)
        if not np.array_equal(mul(x, y), mul(y, x)):
            return False
        x, y = _random_units(rng, samples, n), _random_units(rng, samples, n)
        return bool(np.max(np.abs(mul(x, y) - mul(y, x))) <= tol)

    if prop == "associative":
        x, y, z = _basis_tuples(n, 3)
        if not np.array_equal(mul(mul(x, y), z), mul(x, mul(y, z))):
            return False
        x, y, z = (_random_units(rng, samples, n) for _ in range(3))
        return bool(np.max(np.abs(mul(mul(x, y), z) - mul(x, mul(y, z)))) <= tol)

    if prop == "alternative":
        # quadratic in x, so basis elements alone do not decide it:
        # include two-term sums to cover polarised cases exactly
        xs, ys = _basis_and_pair_sums(n), np.eye(n)
        X = np.repeat(xs, len(ys), axis=0)
        Y = np.tile(ys, (len(xs), 1))
        left_ok = np.max(np.abs(mul(mul(X, X), Y) - mul(X, mul(X, Y)))) == 0.0
        right_ok = np.max(np.abs(mul(mul(Y, X), X) - mul(Y, mul(X, X)))) == 0.0
        if not (left_ok and right_ok):
            return False
        x, y = _random_units(rng, samples, n), _random_units(rng, samples, n)
        d1 = np.abs(mul(mul(x, x), y) - mul(x, mul(x, y)))
        d2 = np.abs(mul(mul(y, x), x) - mul(y, mul(x, x)))
        return bool(max(np.max(d1), np.max(d2)) <= tol)

    # power_associative: all parenthesisations of x^3 and x^4 agree
    def powers_agree(x, t):
        x2 = mul(x, x)
        x3a, x3b = mul(x2, x), mul(x, x2)
        if np.max(np.abs(x3a - x3b)) > t:
            return False
        x4 = [mul(x3a, x), mul(x3b, x), mul(x, x3a), mul(x, x3b), mul(x2, x2)]
        base = x4[0]
        return all(np.max(np.abs(v - base)) <= t for v in x4[1:])

    exact = _basis_and_pair_sums(n)
    if not powers_agree(exact, 0.0):
        return False
    return powers_agree(_random_units(rng, samples, n), tol)


def check_properties(a: Algebra, **kwargs) -> dict:
    """All four property flags, in the canonical reporting order."""
    return {p: check_property(a, p, **kwargs) for p in PROPERTIES}


# -----------------------------------------------------------------------------
# zero divisors


def find_zero_divisor(a: Algebra, budget: int = 100_000):
    """Search for nonzero x, y with x * y = 0 among one- and two-term
    basis combinations.  Returns the first such pair or None.

    ``budget`` caps the number of candidate pairs examined.
    """
    n = a.n
    cands = _basis_and_pair_sums(n)
    m = len(cands)
    prods = multiply_arrays(a, cands[:, None, :], cands[None, :, :])
    zero = ~np.any(prods != 0.0, axis=2)
    order = np.argwhere(zero)
    for xi, yi in order:
        if xi * m + yi >= budget:
            break
        return a.element(cands[xi]), a.element(cands[yi])
    return None

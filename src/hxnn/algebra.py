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
arrays; it is the quaternion product behind :mod:`hxnn.geometry`.  It runs
on coefficient-major copies (one contiguous row per coefficient), each
element seeing the operations of a loop over (..., n) columns, in order.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AlgebraMismatch, ConfigError, UnknownAlgebra

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
        raw = np.asarray(self.signs).reshape(n, n)
        odd = np.argwhere(~np.isin(raw, (-1, 0, 1)))
        if len(odd):
            i, j = odd[0]
            raise ValueError(f"sign of e_{i} * e_{j} is {raw[i, j]}, expected -1, 0 or +1")
        signs = raw.astype(np.int8)
        raw = np.asarray(self.indices).reshape(n, n)
        odd = np.argwhere(~np.isfinite(raw) | (raw != np.round(raw)))
        if len(odd):
            i, j = odd[0]
            raise ValueError(f"index of e_{i} * e_{j} is {raw[i, j]}, expected an integer")
        indices = raw.astype(np.intp)
        if indices.min() < 0 or indices.max() >= n:
            raise ValueError("table index out of range")
        # (n, 2): column 0 flags e_0 * e_j != e_j, column 1 e_j * e_0 != e_j;
        # the first flag in j order names the side, as a scan over j would
        basis = np.arange(n)
        bad = np.stack([(signs[0] != 1) | (indices[0] != basis),
                        (signs[:, 0] != 1) | (indices[:, 0] != basis)], axis=1)
        if bad.any():
            side = ("left", "right")[np.argmax(bad.ravel()) % 2]
            raise ValueError(f"e_0 is not a {side} identity")
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


def cayley_dickson_double(a: Algebra) -> Algebra:
    """Double an algebra with the convention (p,q)(r,s) = (pr - s̄q, sp + qr̄).

    Requires a genuine Cayley-Dickson input: e_0 is the identity and every
    imaginary basis unit squares to -1.
    """
    n = a.n
    off = np.flatnonzero((np.diagonal(a.signs)[1:] != -1) | (np.diagonal(a.indices)[1:] != 0))
    if len(off):
        raise ValueError(
            f"{a.name} is not a Cayley-Dickson algebra (e_{off[0] + 1}^2 != -1)"
        )
    # four n x n quadrants; conj[j] is the sign that conjugation gives e_j
    S, K = a.signs, a.indices
    conj = np.where(np.arange(n) == 0, 1, -1).astype(np.int8)
    signs = np.block([[S, S.T], [S * conj, -S.T * conj]])
    indices = np.block([[K, K.T + n], [K + n, K.T]])
    return Algebra(f"double({a.name})", 2 * n, signs, indices)


def _tessarine() -> Algebra:
    # commutative 4d system: e_1^2 = -1, e_2^2 = +1, e_3 = e_1 e_2.  Bit 0 of
    # a basis index counts e_1, bit 1 counts e_2, so e_i e_j = +-e_(i xor j)
    # with a minus sign exactly when both carry e_1
    i, j = np.indices((4, 4))
    return Algebra("tessarine", 4, 1 - 2 * (i & j & 1), i ^ j)


def _dual_quaternion() -> Algebra:
    # basis (1, i, j, k, eps, eps*i, eps*j, eps*k); eps is central, eps^2 = 0
    q = builtin("quaternion")
    d = np.arange(8) // 4
    eps = d[:, None] + d[None, :]   # power of eps in e_i e_j
    live = eps < 2
    signs = np.where(live, np.tile(q.signs, (2, 2)), 0)
    indices = np.where(live, np.tile(q.indices, (2, 2)) + 4 * eps, 0)
    return Algebra("dual_quaternion", 8, signs, indices)


#: built-ins reached by doubling, each from the one below it
_DOUBLING_LADDER = {"complex": "real", "quaternion": "complex",
                    "octonion": "quaternion", "sedenion": "octonion"}
#: built-ins written out as tables
_TABLES = {"real": lambda: Algebra("real", 1, np.array([[1]]), np.array([[0]])),
           "tessarine": _tessarine, "dual_quaternion": _dual_quaternion}


@lru_cache(maxsize=None)
def builtin(name: str) -> Algebra:
    """Look up one of the built-in algebras by name."""
    if name in _DOUBLING_LADDER:
        a = cayley_dickson_double(builtin(_DOUBLING_LADDER[name]))
        return Algebra(name, a.n, a.signs, a.indices)
    if name in _TABLES:
        return _TABLES[name]()
    raise UnknownAlgebra(f"unknown algebra: {name!r} (expected one of {BUILTIN_NAMES})")


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


@lru_cache(maxsize=None)
def left_pattern(a: Algebra) -> LeftMatrixPattern:
    """Sign/weight-index layout of the left-multiplication matrix of ``a``.

    Column c of the matrix lists the coefficients of w * e_c, so cell
    (r, c) is filled from the unique table entry e_i * e_c = s * e_r.
    """
    n = a.n
    c, i = np.nonzero(a.signs.T)  # nonzero entries, column by column
    r = a.indices[i, c]
    cells = c * n + r  # a cell filled twice is a clash; report the first
    _, first = np.unique(cells, return_index=True)
    if len(first) < len(cells):
        c0, r0 = divmod(int(cells[np.setdiff1d(np.arange(len(cells)), first)[0]]), n)
        raise ValueError(f"{a.name}: column {c0} maps two weights onto row {r0}")
    signs = np.zeros((n, n), dtype=np.int8)
    widx = np.zeros((n, n), dtype=np.intp)
    signs[r, c] = a.signs[i, c]
    widx[r, c] = i
    signs.setflags(write=False)
    widx.setflags(write=False)
    return LeftMatrixPattern(signs, widx)


def algebra_grid_matrices(algebra: Algebra) -> list[np.ndarray]:
    """The n fixed grid matrices that reproduce an algebra's left pattern:
    A_i[r, c] = sign(r, c) where the pattern's weight index is i."""
    p = left_pattern(algebra)
    n = algebra.n
    grids = np.zeros((n, n, n))
    r, c = np.nonzero(p.signs)
    grids[p.weight_indices[r, c], r, c] = p.signs[r, c]
    return list(grids)


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

    Terms run on coefficient-major copies (a contiguous row per coefficient)
    with a column loop's IEEE operations, in order: same bits, NaN signs aside.
    """
    nd = max(x.ndim, y.ndim)
    xt, yt = (v.reshape((1,) * (nd - v.ndim) + v.shape).transpose(-1, *range(nd - 1)).copy()
              for v in (x, y))  # padded to nd axes, the coefficient axis moved first
    out = xt[:1] * yt
    term = np.empty(out.shape[1:], out.dtype)
    r, c = np.nonzero(a.signs[1:])  # the terms with i >= 1, in (i, j) order
    terms = zip(*(v.tolist() for v in (r + 1, c, a.signs[1:][r, c], a.indices[1:][r, c])))
    for i, j, s, k in terms:
        np.multiply(xt[i], yt[j], out=term)
        if s > 0:
            out[k] += term
        else:
            out[k] -= term
    return out.transpose(*range(1, nd), 0).copy()


# -----------------------------------------------------------------------------
# property verification


def _basis_and_pair_sums(n):
    """The n basis vectors, then e_i + e_j and e_i - e_j for each i < j."""
    eye = np.eye(n)
    i, j = np.triu_indices(n, 1)
    pairs = np.stack([eye[i] + eye[j], eye[i] - eye[j]], axis=1).reshape(-1, n)
    return np.concatenate([eye, pairs])


def _combinations(*row_sets):
    """Every choice of one row from each set, as aligned arrays; the first
    set varies slowest."""
    picks = np.indices([len(rows) for rows in row_sets]).reshape(len(row_sets), -1)
    return [rows[p] for rows, p in zip(row_sets, picks)]


def _random_units(rng, count, n):
    v = rng.standard_normal((count, n))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _powers(m, x):
    """x^3 and x^4 under every parenthesisation, each against the first."""
    x2 = m(x, x)
    x3a, x3b = m(x2, x), m(x, x2)
    x4 = m(x3a, x)
    return [(x3a, x3b)] + [(v, x4) for v in (m(x3b, x), m(x, x3a), m(x, x3b), m(x2, x2))]


#: property -> (the row set each argument ranges over in the exact pass,
#: the (lhs, rhs) pairs the law equates, given the product m).  A law that
#: is quadratic in an argument takes it over two-term sums as well as the
#: basis, so that polarised cases are decided exactly too.
_LAWS = {
    "commutative": ((np.eye, np.eye), lambda m, x, y: [(m(x, y), m(y, x))]),
    "associative": ((np.eye,) * 3, lambda m, x, y, z: [(m(m(x, y), z), m(x, m(y, z)))]),
    "alternative": ((_basis_and_pair_sums, np.eye),
                    lambda m, x, y: [(m(m(x, x), y), m(x, m(x, y))),
                                     (m(m(y, x), x), m(y, m(x, x)))]),
    "power_associative": ((_basis_and_pair_sums,), _powers),
}


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
    float64); they are complemented by ``samples`` seeded random tuples
    compared to ``tol``.  With ``samples=0`` the exact pass decides.
    """
    if prop not in PROPERTIES:
        raise ConfigError(f"unknown property {prop!r}, expected one of {PROPERTIES}")
    rng = np.random.Generator(np.random.PCG64(seed))
    row_sets, law = _LAWS[prop]
    mul = lambda x, y: multiply_arrays(a, x, y)
    exact = _combinations(*(rows(a.n) for rows in row_sets))
    if not all(np.array_equal(lhs, rhs) for lhs, rhs in law(mul, *exact)):
        return False
    drawn = [_random_units(rng, samples, a.n) for _ in row_sets]
    return all(np.max(np.abs(lhs - rhs), initial=0.0) <= tol for lhs, rhs in law(mul, *drawn))


def check_properties(a: Algebra, **kwargs) -> dict:
    """All four property flags, in the canonical reporting order."""
    return {p: check_property(a, p, **kwargs) for p in PROPERTIES}


# -----------------------------------------------------------------------------
# zero divisors


def find_zero_divisor(a: Algebra, budget: int = 100_000):
    """Search for nonzero x, y with x * y = 0 among one- and two-term
    basis combinations.  Returns the first such pair or None.

    ``budget`` caps the number of candidate pairs examined: only the
    first ceil(budget / m) of the m candidate rows are multiplied out.
    """
    if budget < 0:
        raise ConfigError(f"budget={budget}: must not be negative")
    n = a.n
    cands = _basis_and_pair_sums(n)
    m = len(cands)
    rows = -(-budget // m)
    prods = multiply_arrays(a, cands[:rows, None, :], cands[None, :, :])
    hits = np.flatnonzero(np.all(prods == 0.0, axis=2))
    if len(hits) == 0 or hits[0] >= budget:
        return None
    xi, yi = divmod(int(hits[0]), m)
    return a.element(cands[xi]), a.element(cands[yi])

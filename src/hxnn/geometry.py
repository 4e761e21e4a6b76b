"""Quaternion rotations, dual-quaternion rigid transforms, and an
empirical equivariance test harness.

Quaternion products are ``algebra.multiply_arrays`` on the quaternion
structure table, applied to whole (..., 4) coefficient arrays, so the
one-rotation API and batched callers such as the window encoders share
one code path.  A 3-vector v rotates as q (0, v) conj(q).  A unit dual
quaternion packs a 6-DoF rigid transform: the rotation in the real part
and the translation in the dual part via q_d = (1/2) t q_r.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import builtin, multiply_arrays
from .errors import ConfigError, DegenerateAxis, NormalizationError, ShapeError

UNIT_TOL = 1e-9
QUATERNION = builtin("quaternion")


def dot_rows(u, v) -> np.ndarray:
    """Dot products of matching (..., m) rows, each the BLAS dot that
    ``u @ v`` runs on one pair of vectors, so batched and one-at-a-time
    callers agree bit for bit (``einsum`` and ``sum(axis=-1)`` do not)."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def quat_conj(q) -> np.ndarray:
    return np.asarray(q, dtype=np.float64) * [1.0, -1.0, -1.0, -1.0]


def pure_quaternions(v) -> np.ndarray:
    """(..., 3) vectors as pure quaternions (0, v)."""
    v = np.asarray(v, dtype=np.float64)
    return np.concatenate([np.zeros_like(v[..., :1]), v], axis=-1)


def _checked_unit(c: np.ndarray) -> np.ndarray:
    """``c`` if every (..., 4) row has norm within UNIT_TOL of 1, else
    NormalizationError; a row with a non-finite coefficient fails too."""
    err = np.abs(np.sqrt(dot_rows(c, c)) - 1.0)
    if not np.all(err <= UNIT_TOL):
        raise NormalizationError(f"norm departs from 1 by {np.max(err):.12g} > {UNIT_TOL}")
    return c


def unit_quaternions(coeffs) -> np.ndarray:
    """(..., 4) rows divided by their norms, each checked as the
    UnitQuaternion constructor checks one."""
    c = np.asarray(coeffs, dtype=np.float64)
    nrm = np.sqrt(dot_rows(c, c))[..., None]
    if not np.all(np.isfinite(nrm) & (nrm > 0.0)):
        raise NormalizationError("cannot normalize a zero or non-finite quaternion")
    return _checked_unit(c / nrm)


@dataclass(frozen=True, eq=False)
class UnitQuaternion:
    """A rotation as a unit (w, x, y, z) quaternion."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.float64)
        if c.shape != (4,):
            raise ShapeError(f"quaternion needs 4 coefficients, got {c.shape}")
        object.__setattr__(self, "coeffs", _checked_unit(c))

    @classmethod
    def normalize(cls, coeffs) -> "UnitQuaternion":
        return cls(unit_quaternions(coeffs))

    @classmethod
    def identity(cls) -> "UnitQuaternion":
        return cls(np.array([1.0, 0.0, 0.0, 0.0]))

    def conjugate(self) -> "UnitQuaternion":
        return UnitQuaternion(quat_conj(self.coeffs))

    def __mul__(self, other: "UnitQuaternion") -> "UnitQuaternion":
        return UnitQuaternion.normalize(multiply_arrays(QUATERNION, self.coeffs, other.coeffs))


def quat_from_axis_angle(axis, angle: float) -> UnitQuaternion:
    axis = np.asarray(axis, dtype=np.float64)
    nrm = np.linalg.norm(axis)
    if nrm == 0.0:
        raise DegenerateAxis("rotation axis has zero length")
    half = 0.5 * angle
    return UnitQuaternion(
        np.concatenate([[np.cos(half)], np.sin(half) * axis / nrm])
    )


def quat_rotate(q: UnitQuaternion, v) -> np.ndarray:
    """Rotate (..., 3) vectors: imaginary part of q * (0, v) * conj(q)."""
    turned = multiply_arrays(QUATERNION, multiply_arrays(QUATERNION, q.coeffs, pure_quaternions(v)),
                             quat_conj(q.coeffs))
    return np.ascontiguousarray(turned[..., 1:])


@dataclass(frozen=True, eq=False)
class RigidTransform:
    """Rotate-then-translate map p -> R p + t."""

    rotation: UnitQuaternion
    translation: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.translation, dtype=np.float64)
        if t.shape != (3,):
            raise ShapeError(f"translation needs 3 components, got {t.shape}")
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(UnitQuaternion.identity(), np.zeros(3))

    def apply(self, p) -> np.ndarray:
        return quat_rotate(self.rotation, p) + self.translation


@dataclass(frozen=True, eq=False)
class DualQuaternion:
    """q_r + eps * q_d on the basis (1, i, j, k, eps, eps i, eps j, eps k)."""

    q_r: np.ndarray
    q_d: np.ndarray

    def __post_init__(self):
        for nm in ("q_r", "q_d"):
            c = np.asarray(getattr(self, nm), dtype=np.float64)
            if c.shape != (4,):
                raise ShapeError(f"{nm} needs 4 coefficients, got {c.shape}")
            object.__setattr__(self, nm, c)

    @property
    def coeffs(self) -> np.ndarray:
        return np.concatenate([self.q_r, self.q_d])

    def is_unit(self, tol: float = UNIT_TOL) -> bool:
        return (
            abs(np.linalg.norm(self.q_r) - 1.0) <= tol
            and abs(float(self.q_r @ self.q_d)) <= tol
        )

    def normalized(self) -> "DualQuaternion":
        nrm = np.linalg.norm(self.q_r)
        if nrm == 0.0:
            raise NormalizationError("real part is zero; no unit form exists")
        qr = self.q_r / nrm
        qd = self.q_d / nrm
        qd = qd - (qr @ qd) * qr  # project out the norm-violating component
        return DualQuaternion(qr, qd)


def dq_coeffs(rotation, translation) -> np.ndarray:
    """(..., 8) dual-quaternion coefficients (q_r, (1/2) t q_r) of the
    motions that turn by the unit quaternions ``rotation`` (..., 4), then
    shift by ``translation`` (..., 3)."""
    qd = 0.5 * multiply_arrays(QUATERNION, pure_quaternions(translation), rotation)
    return np.concatenate([rotation, qd], axis=-1)


def dq_from_rt(t: RigidTransform) -> DualQuaternion:
    """Encode a rigid transform; the dual part is (1/2) t q_r."""
    return DualQuaternion(*np.split(dq_coeffs(t.rotation.coeffs, t.translation), 2))


def dq_to_rt(dq: DualQuaternion, tol: float = UNIT_TOL) -> RigidTransform:
    if not dq.is_unit(tol):
        raise NormalizationError("dual quaternion is not unit within tolerance")
    qr = UnitQuaternion.normalize(dq.q_r)
    t = 2.0 * multiply_arrays(QUATERNION, dq.q_d, quat_conj(qr.coeffs))[1:]
    return RigidTransform(qr, t)


def dq_multiply(a: DualQuaternion, b: DualQuaternion) -> DualQuaternion:
    """Compose via the 8-dimensional dual-quaternion structure table."""
    prod = multiply_arrays(builtin("dual_quaternion"), a.coeffs, b.coeffs)
    return DualQuaternion(prod[:4], prod[4:])


def dq_apply(dq: DualQuaternion, p, tol: float = UNIT_TOL) -> np.ndarray:
    """Apply the rigid transform encoded by a unit dual quaternion."""
    return dq_to_rt(dq, tol).apply(p)


# -----------------------------------------------------------------------------
# empirical equivariance testing


@dataclass(frozen=True)
class EquivarianceRow:
    magnitude: float
    mse_base: float
    mse_transformed: float
    ratio: float


def equivariance_report(predict, transform_family, inputs, targets, magnitudes,
                        axis=(0.0, 0.0, 1.0)):
    """Measure how prediction error degrades under input+target transforms.

    ``predict`` maps point windows (N, w, 3) to predicted points (N, 3).
    Translation adds the scalar magnitude to every coordinate; rotation
    turns all points by the magnitude (radians) about ``axis``.
    Returns one :class:`EquivarianceRow` per magnitude; its ratio is
    mse_transformed / mse_base, or, when mse_base is 0, 1.0 if
    mse_transformed is 0 too and inf if not.
    """
    if transform_family not in ("translation", "rotation"):
        raise ConfigError(f"unknown transform family {transform_family!r}")
    inputs = np.asarray(inputs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    base_mse = float(np.mean((predict(inputs) - targets) ** 2))
    rows = []
    for m in magnitudes:
        if transform_family == "translation":
            ti, tt = inputs + m, targets + m
        else:
            q = quat_from_axis_angle(axis, m)
            ti, tt = quat_rotate(q, inputs), quat_rotate(q, targets)
        mse = float(np.mean((predict(ti) - tt) ** 2))
        ratio = mse / base_mse if base_mse else (1.0 if mse == 0.0 else np.inf)
        rows.append(EquivarianceRow(float(m), base_mse, mse, ratio))
    return rows

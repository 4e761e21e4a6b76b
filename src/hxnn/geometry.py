"""Quaternion rotations, dual-quaternion rigid transforms, and an
empirical equivariance test harness.

A 3-vector rotates through the sandwich of two Hamilton products with
the unit quaternion and its conjugate.  A unit dual quaternion packs a
6-DoF rigid transform: the rotation in the real part and the translation
in the dual part via q_d = (1/2) t q_r.  Dual-quaternion products run
through the dual-quaternion structure table of :mod:`hxnn.algebra` so the
two representations stay consistent by construction.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import builtin, multiply
from .errors import DegenerateAxis, NormalizationError

UNIT_TOL = 1e-9


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product on (w, x, y, z) coefficient arrays."""
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return np.array([
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    ])


def quat_conj(q: np.ndarray) -> np.ndarray:
    return np.array([q[0], -q[1], -q[2], -q[3]])


@dataclass(frozen=True, eq=False)
class UnitQuaternion:
    """A rotation as a unit (w, x, y, z) quaternion."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.float64)
        if c.shape != (4,):
            raise ValueError(f"quaternion needs 4 coefficients, got {c.shape}")
        if abs(np.linalg.norm(c) - 1.0) > UNIT_TOL:
            raise NormalizationError(
                f"norm {np.linalg.norm(c):.12g} departs from 1 beyond {UNIT_TOL}"
            )
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def normalize(cls, coeffs) -> "UnitQuaternion":
        c = np.asarray(coeffs, dtype=np.float64)
        nrm = np.linalg.norm(c)
        if nrm == 0.0:
            raise NormalizationError("cannot normalize the zero quaternion")
        return cls(c / nrm)

    @classmethod
    def identity(cls) -> "UnitQuaternion":
        return cls(np.array([1.0, 0.0, 0.0, 0.0]))

    def conjugate(self) -> "UnitQuaternion":
        return UnitQuaternion(quat_conj(self.coeffs))

    def __mul__(self, other: "UnitQuaternion") -> "UnitQuaternion":
        return UnitQuaternion.normalize(quat_mul(self.coeffs, other.coeffs))


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
    """Rotate a 3-vector: imaginary part of q * (0, v) * conj(q)."""
    v = np.asarray(v, dtype=np.float64)
    pure = np.concatenate([[0.0], v])
    return quat_mul(quat_mul(q.coeffs, pure), quat_conj(q.coeffs))[1:]


@dataclass(frozen=True, eq=False)
class RigidTransform:
    """Rotate-then-translate map p -> R p + t."""

    rotation: UnitQuaternion
    translation: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.translation, dtype=np.float64)
        if t.shape != (3,):
            raise ValueError(f"translation needs 3 components, got {t.shape}")
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
                raise ValueError(f"{nm} needs 4 coefficients, got {c.shape}")
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


def dq_from_rt(t: RigidTransform) -> DualQuaternion:
    """Encode a rigid transform; the dual part is (1/2) t q_r."""
    qr = t.rotation.coeffs
    pure = np.concatenate([[0.0], t.translation])
    return DualQuaternion(qr, 0.5 * quat_mul(pure, qr))


def dq_to_rt(dq: DualQuaternion, tol: float = UNIT_TOL) -> RigidTransform:
    if not dq.is_unit(tol):
        raise NormalizationError("dual quaternion is not unit within tolerance")
    qr = UnitQuaternion.normalize(dq.q_r)
    t = 2.0 * quat_mul(dq.q_d, quat_conj(qr.coeffs))[1:]
    return RigidTransform(qr, t)


def dq_multiply(a: DualQuaternion, b: DualQuaternion) -> DualQuaternion:
    """Compose via the 8-dimensional dual-quaternion structure table."""
    alg = builtin("dual_quaternion")
    prod = multiply(alg, alg.element(a.coeffs), alg.element(b.coeffs)).coeffs
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


def _translate(points: np.ndarray, m: float) -> np.ndarray:
    return points + m


def _rotate(points: np.ndarray, m: float, axis) -> np.ndarray:
    q = quat_from_axis_angle(axis, m)
    flat = points.reshape(-1, 3)
    out = np.array([quat_rotate(q, p) for p in flat])
    return out.reshape(points.shape)


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
        raise ValueError(f"unknown transform family {transform_family!r}")
    inputs = np.asarray(inputs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    base_mse = float(np.mean((predict(inputs) - targets) ** 2))
    rows = []
    for m in magnitudes:
        if transform_family == "translation":
            ti, tt = _translate(inputs, m), _translate(targets, m)
        else:
            ti, tt = _rotate(inputs, m, axis), _rotate(targets, m, axis)
        mse = float(np.mean((predict(ti) - tt) ** 2))
        ratio = mse / base_mse if base_mse else (1.0 if mse == 0.0 else np.inf)
        rows.append(EquivarianceRow(float(m), base_mse, mse, ratio))
    return rows

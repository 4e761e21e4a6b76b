import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hxnn import geometry as G
from hxnn.errors import DegenerateAxis, NormalizationError


def rng(seed=0xC0FFEE):
    return np.random.Generator(np.random.PCG64(seed))


def rotation_matrix(q):
    """Independent oracle: the standard quaternion-to-matrix conversion."""
    w, x, y, z = q.coeffs
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def homogeneous_matrix(rt):
    """Independent oracle: 4x4 rigid-transform matrix."""
    m = np.eye(4)
    m[:3, :3] = rotation_matrix(rt.rotation)
    m[:3, 3] = rt.translation
    return m


def random_unit_quat(r):
    return G.UnitQuaternion.normalize(r.standard_normal(4))


def random_rt(r):
    return G.RigidTransform(random_unit_quat(r), r.standard_normal(3) * 3.0)


def test_axis_angle_basics():
    q = G.quat_from_axis_angle([0, 0, 1], 0.0)
    assert np.array_equal(q.coeffs, [1.0, 0.0, 0.0, 0.0])
    q = G.quat_from_axis_angle([0, 0, 2.0], np.pi / 2)
    assert np.max(np.abs(q.coeffs - [np.sqrt(2) / 2, 0, 0, np.sqrt(2) / 2])) < 1e-15
    with pytest.raises(DegenerateAxis):
        G.quat_from_axis_angle([0, 0, 0], 1.0)


def test_full_turn_is_minus_identity_but_same_rotation():
    q = G.quat_from_axis_angle([0, 0, 1], 2 * np.pi)
    assert np.max(np.abs(q.coeffs - [-1.0, 0, 0, 0])) < 1e-12
    v = np.array([1.0, 2.0, 3.0])
    assert np.max(np.abs(G.quat_rotate(q, v) - v)) < 1e-12


def test_quat_rotate_quarter_turn():
    q = G.quat_from_axis_angle([0, 0, 1], np.pi / 2)
    got = G.quat_rotate(q, [1.0, 0.0, 0.0])
    assert np.max(np.abs(got - [0.0, 1.0, 0.0])) < 1e-15


def test_quat_rotate_identity():
    v = rng().standard_normal(3)
    assert np.array_equal(G.quat_rotate(G.UnitQuaternion.identity(), v), v)


def test_quat_rotate_matches_matrix_oracle():
    r = rng()
    for _ in range(1000):
        q = random_unit_quat(r)
        v = r.standard_normal(3)
        assert np.max(np.abs(G.quat_rotate(q, v) - rotation_matrix(q) @ v)) < 1e-12


def test_quat_rotate_preserves_norm():
    r = rng(1)
    for _ in range(200):
        q = random_unit_quat(r)
        v = r.standard_normal(3)
        assert abs(np.linalg.norm(G.quat_rotate(q, v)) - np.linalg.norm(v)) < 1e-12


def test_rotation_composition():
    r = rng(2)
    for _ in range(200):
        p, q = random_unit_quat(r), random_unit_quat(r)
        v = r.standard_normal(3)
        lhs = G.quat_rotate(p * q, v)
        rhs = G.quat_rotate(p, G.quat_rotate(q, v))
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_double_cover():
    r = rng(3)
    q = random_unit_quat(r)
    neg = G.UnitQuaternion(-q.coeffs)
    v = r.standard_normal(3)
    assert np.max(np.abs(G.quat_rotate(q, v) - G.quat_rotate(neg, v))) < 1e-15


def test_non_unit_quaternion_rejected():
    with pytest.raises(NormalizationError):
        G.UnitQuaternion(np.array([1.0, 1.0, 0.0, 0.0]))


def test_dq_roundtrip_identity_and_translation():
    dq = G.dq_from_rt(G.RigidTransform.identity())
    assert np.array_equal(dq.coeffs, [1, 0, 0, 0, 0, 0, 0, 0])
    t = G.RigidTransform(G.UnitQuaternion.identity(), np.array([1.0, 2.0, 3.0]))
    dq = G.dq_from_rt(t)
    assert np.max(np.abs(dq.q_d - [0.0, 0.5, 1.0, 1.5])) < 1e-15
    assert np.max(np.abs(G.dq_apply(dq, np.zeros(3)) - [1.0, 2.0, 3.0])) < 1e-15


def test_dq_unit_invariants_for_any_transform():
    r = rng(4)
    for _ in range(200):
        dq = G.dq_from_rt(random_rt(r))
        assert dq.is_unit()


def test_dq_roundtrip_exact():
    r = rng(5)
    for _ in range(200):
        rt = random_rt(r)
        back = G.dq_to_rt(G.dq_from_rt(rt))
        assert np.max(np.abs(back.rotation.coeffs - rt.rotation.coeffs)) < 1e-12
        assert np.max(np.abs(back.translation - rt.translation)) < 1e-12


def test_dq_apply_matches_homogeneous_oracle():
    r = rng(6)
    for _ in range(1000):
        rt = random_rt(r)
        dq = G.dq_from_rt(rt)
        p = r.standard_normal(3)
        expect = (homogeneous_matrix(rt) @ np.concatenate([p, [1.0]]))[:3]
        assert np.max(np.abs(G.dq_apply(dq, p) - expect)) < 1e-10


def test_dq_multiply_composes_transforms():
    r = rng(7)
    for _ in range(300):
        a, b = G.dq_from_rt(random_rt(r)), G.dq_from_rt(random_rt(r))
        p = r.standard_normal(3)
        lhs = G.dq_apply(G.dq_multiply(a, b).normalized(), p)
        rhs = G.dq_apply(a, G.dq_apply(b, p))
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_dq_multiply_matches_homogeneous_composition():
    r = rng(8)
    for _ in range(200):
        ra, rb = random_rt(r), random_rt(r)
        prod = G.dq_multiply(G.dq_from_rt(ra), G.dq_from_rt(rb))
        m = homogeneous_matrix(ra) @ homogeneous_matrix(rb)
        back = G.dq_to_rt(prod.normalized())
        assert np.max(np.abs(homogeneous_matrix(back) - m)) < 1e-10


def test_dq_unit_drift_under_products():
    r = rng(9)
    dq = G.dq_from_rt(random_rt(r))
    for _ in range(50):
        dq = G.dq_multiply(dq, G.dq_from_rt(random_rt(r)))
        assert abs(np.linalg.norm(dq.q_r) - 1.0) < 1e-9
        assert abs(float(dq.q_r @ dq.q_d)) < 1e-9
        dq = dq.normalized()


def test_dq_apply_rejects_non_unit():
    bad = G.DualQuaternion(np.array([2.0, 0, 0, 0]), np.zeros(4))
    with pytest.raises(NormalizationError):
        G.dq_apply(bad, np.zeros(3))


def test_dq_apply_sandwich_equivalence():
    # the conversion route agrees with the classical sandwich
    # q * (1 + eps p) * conj-dual(q)
    r = rng(10)
    alg_eps = 1e-10
    for _ in range(100):
        rt = random_rt(r)
        dq = G.dq_from_rt(rt)
        p = r.standard_normal(3)
        point = G.DualQuaternion(np.array([1.0, 0, 0, 0]), np.concatenate([[0.0], p]))
        conj = G.DualQuaternion(G.quat_conj(dq.q_r), -G.quat_conj(dq.q_d))
        moved = G.dq_multiply(G.dq_multiply(dq, point), conj)
        assert np.max(np.abs(moved.q_d[1:] - rt.apply(p))) < alg_eps


def test_equivariance_report_zero_magnitude():
    predict = lambda w: w[:, -1, :]
    inputs = rng(11).standard_normal((20, 4, 3))
    targets = rng(12).standard_normal((20, 3))
    rows = G.equivariance_report(predict, "translation", inputs, targets, [0.0])
    assert rows[0].mse_transformed == rows[0].mse_base
    assert rows[0].ratio == 1.0


def test_equivariance_report_exact_translation_equivariant_model():
    # predicting last point + mean displacement is translation equivariant
    def predict(w):
        return w[:, -1, :] + np.mean(np.diff(w, axis=1), axis=1)

    r = rng(13)
    inputs = r.standard_normal((50, 5, 3))
    targets = inputs[:, -1, :] + r.standard_normal((50, 3)) * 0.1
    rows = G.equivariance_report(predict, "translation", inputs, targets, [1.0, 10.0])
    for row in rows:
        assert abs(row.ratio - 1.0) < 1e-9


def test_equivariance_report_rotation_family():
    predict = lambda w: w[:, -1, :]
    r = rng(14)
    inputs = r.standard_normal((30, 4, 3))
    targets = r.standard_normal((30, 3))
    rows = G.equivariance_report(predict, "rotation", inputs, targets, [0.0, np.pi / 3])
    assert rows[0].ratio == 1.0
    assert rows[1].mse_transformed > 0.0


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_rotation_isometry_property(seed):
    r = np.random.Generator(np.random.PCG64(seed))
    q = random_unit_quat(r)
    u, v = r.standard_normal(3), r.standard_normal(3)
    # rotations preserve inner products
    assert abs(G.quat_rotate(q, u) @ G.quat_rotate(q, v) - u @ v) < 1e-10


def test_equivariance_report_zero_base_error():
    # a model exact on the base set: ratio 1 while it stays exact, inf once it is not
    inputs = rng(15).standard_normal((10, 4, 3))
    targets = inputs[:, -1, :] + inputs[:, -1, :] ** 2
    exact = lambda w: w[:, -1, :] + w[:, -1, :] ** 2
    rows = G.equivariance_report(exact, "translation", inputs, targets, [0.0, 2.0])
    assert rows[0].mse_base == 0.0
    assert rows[0].ratio == 1.0
    assert rows[1].mse_transformed > 0.0
    assert rows[1].ratio == np.inf

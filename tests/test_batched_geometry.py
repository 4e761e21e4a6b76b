"""Byte-equality oracles for the array-at-a-time quaternion code.

The reference functions below are the hand-written Hamilton product and
the one-window, one-point and one-trajectory loops that the array code
replaced, with their arithmetic unchanged.  Every comparison is on
``tobytes()``: the array code must reproduce the loops bit for bit,
signed zeros included.
"""
import hashlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hxnn import experiments as ex
from hxnn import geometry as G
from hxnn import training as tr
from hxnn.algebra import builtin, multiply_arrays
from hxnn.errors import ConfigError, NormalizationError
from oracle_ops import lorenz_rhs, rk4_step

QUATERNION = builtin("quaternion")
IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


# -----------------------------------------------------------------------------
# reference implementations


def quat_mul_ref(a, b):
    """Hamilton product on (w, x, y, z) coefficient arrays."""
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return np.array([
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    ])


def quat_conj_ref(q):
    return np.array([q[0], -q[1], -q[2], -q[3]])


def normalize_ref(c):
    c = np.asarray(c, dtype=np.float64)
    nrm = np.linalg.norm(c)
    if nrm == 0.0:
        raise NormalizationError("cannot normalize the zero quaternion")
    out = c / nrm
    if abs(np.linalg.norm(out) - 1.0) > G.UNIT_TOL:
        raise NormalizationError("norm departs from 1")
    return out


def rotation_between_ref(u, v):
    w = 1.0 + float(u @ v)
    if w < 1e-12:  # antiparallel: half-turn about any perpendicular axis
        axis = np.cross(u, [1.0, 0.0, 0.0])
        if np.linalg.norm(axis) < 1e-12:
            axis = np.cross(u, [0.0, 1.0, 0.0])
        return normalize_ref(np.concatenate([[0.0], axis]))
    return normalize_ref(np.concatenate([[w], np.cross(u, v)]))


def encode_dual_quaternion_ref(windows):
    n, w, _ = windows.shape
    out = np.zeros((n, w - 1, 8))
    for i in range(n):
        disps = np.diff(windows[i], axis=0)
        norms = np.linalg.norm(disps, axis=1)
        prev_dir = None
        for t in range(w - 1):
            if norms[t] < 1e-12:
                rot = IDENTITY
            elif prev_dir is None:
                rot = IDENTITY
                prev_dir = disps[t] / norms[t]
            else:
                cur = disps[t] / norms[t]
                rot = rotation_between_ref(prev_dir, cur)
                prev_dir = cur
            pure = np.concatenate([[0.0], disps[t]])
            out[i, t] = np.concatenate([rot, 0.5 * quat_mul_ref(pure, rot)])
    return np.swapaxes(out, 1, 2).reshape(n, -1)


def rotate_ref(points, q):
    flat = points.reshape(-1, 3)
    out = np.array([
        quat_mul_ref(quat_mul_ref(q, np.concatenate([[0.0], p])), quat_conj_ref(q))[1:]
        for p in flat
    ])
    return out.reshape(points.shape)


def lorenz_ref(seed, count, steps, dt=0.01, sample_every=10, window=8,
               burn_in=500, test_fraction=0.25):
    """One trajectory at a time on (3,) state arrays; ``ConfigError`` if
    any state after burn-in is not finite."""
    rng = np.random.Generator(np.random.PCG64(seed))
    all_inputs, all_targets, owners = [], [], []
    for traj in range(count):
        y = rng.uniform(-12.0, 12.0, size=3) + np.array([0.0, 0.0, 24.0])
        recorded = np.empty((steps, 3))
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(burn_in):
                y = rk4_step(lorenz_rhs, y, dt)
            for s in range(steps):
                y = rk4_step(lorenz_rhs, y, dt)
                recorded[s] = y
        if not np.isfinite(recorded).all():
            raise ConfigError(f"trajectory {traj} leaves the finite range")
        series = recorded[::sample_every]
        for start in range(len(series) - window):
            all_inputs.append(series[start : start + window])
            all_targets.append(series[start + window])
            owners.append(traj)
    owners = np.array(owners)
    n_test_traj = max(1, int(round(count * test_fraction)))
    test_mask = owners >= count - n_test_traj
    return (np.array(all_inputs), np.array(all_targets),
            np.flatnonzero(~test_mask), np.flatnonzero(test_mask))


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def with_signed_zeros(r, shape):
    x = r.standard_normal(shape)
    x[r.random(shape) < 0.3] = 0.0
    x[r.random(shape) < 0.3] = -0.0
    return x


def rng(seed=0xC0FFEE):
    return np.random.Generator(np.random.PCG64(seed))


# -----------------------------------------------------------------------------
# quaternion products


def test_table_product_matches_hamilton_formula_on_whole_arrays():
    r = rng(1)
    x, y = with_signed_zeros(r, (20000, 4)), with_signed_zeros(r, (20000, 4))
    assert same_bytes(multiply_arrays(QUATERNION, x, y), quat_mul_ref(x.T, y.T).T)
    # one operand broadcast against many
    assert same_bytes(multiply_arrays(QUATERNION, x[0], y), quat_mul_ref(x[0], y.T).T)


def test_table_product_matches_hamilton_formula_one_pair_at_a_time():
    r = rng(2)
    for _ in range(300):
        x, y = with_signed_zeros(r, 4), with_signed_zeros(r, 4)
        assert same_bytes(multiply_arrays(QUATERNION, x, y), quat_mul_ref(x, y))


def test_scalar_geometry_api_matches_reference():
    r = rng(3)
    for _ in range(200):
        p, q = G.UnitQuaternion.normalize(r.standard_normal(4)), G.UnitQuaternion.normalize(
            r.standard_normal(4))
        raw = r.standard_normal(4)
        assert same_bytes(G.UnitQuaternion.normalize(raw).coeffs, normalize_ref(raw))
        assert same_bytes((p * q).coeffs, normalize_ref(quat_mul_ref(p.coeffs, q.coeffs)))
        assert same_bytes(p.conjugate().coeffs, quat_conj_ref(p.coeffs))
        v = r.standard_normal(3)
        assert same_bytes(G.quat_rotate(q, v), rotate_ref(v, q.coeffs))
        t = r.standard_normal(3) * 3.0
        dq = G.dq_from_rt(G.RigidTransform(q, t))
        assert same_bytes(dq.q_r, q.coeffs)
        assert same_bytes(dq.q_d, 0.5 * quat_mul_ref(np.concatenate([[0.0], t]), q.coeffs))
        back = G.dq_to_rt(dq)
        qr = normalize_ref(dq.q_r)
        assert same_bytes(back.rotation.coeffs, qr)
        assert same_bytes(back.translation, 2.0 * quat_mul_ref(dq.q_d, quat_conj_ref(qr))[1:])


# -----------------------------------------------------------------------------
# rotated point clouds


@pytest.mark.parametrize("shape", [(3,), (50, 3), (40, 8, 3), (0, 3)])
@pytest.mark.parametrize("axis, angle", [((0.0, 0.0, 1.0), 0.7), ((0.3, -1.0, 2.0), -2.5),
                                         ((1.0, 0.0, 0.0), np.pi)])
def test_rotated_point_clouds_match_per_point_loop(shape, axis, angle):
    points = with_signed_zeros(rng(4), shape) * 10.0
    q = G.quat_from_axis_angle(axis, angle)
    got = G.quat_rotate(q, points)
    assert got.flags.c_contiguous
    assert same_bytes(got, rotate_ref(points, q.coeffs))


def test_rotation_equivariance_report_matches_per_point_loop():
    r = rng(5)
    inputs, targets = r.standard_normal((30, 8, 3)), r.standard_normal((30, 3))
    predict = lambda w: w[:, -1, :] + 0.5 * (w[:, -1, :] - w[:, -2, :])  # noqa: E731
    axis, mags = (0.2, 0.5, 1.0), [0.1, 1.0, 3.0]
    rows = G.equivariance_report(predict, "rotation", inputs, targets, mags, axis=axis)
    base = float(np.mean((predict(inputs) - targets) ** 2))
    for row, m in zip(rows, mags):
        q = G.quat_from_axis_angle(axis, m).coeffs
        mse = float(np.mean((predict(rotate_ref(inputs, q)) - rotate_ref(targets, q)) ** 2))
        assert (row.mse_base, row.mse_transformed, row.ratio) == (base, mse, mse / base)


# -----------------------------------------------------------------------------
# Lorenz datasets


_LORENZ = ex.LorenzConfig()


@pytest.mark.parametrize("seed, count, steps, sample_every, window", [
    (_LORENZ.seed, _LORENZ.trajectories, _LORENZ.steps, _LORENZ.sample_every, _LORENZ.window),
    (1001, 8, 1200, 10, 8),  # the lorenz_train benchmark workload
    (5, 4, 400, 10, 8),
    (6, 2, 300, 10, 8),
    (7, 3, 97, 7, 5),
    (11, 5, 64, 1, 3),
    (2, 4, 400, 13, 1),
    (9, 2, 90, 10, 8),  # exactly one window per trajectory
])
def test_lorenz_datasets_match_per_trajectory_loop(seed, count, steps, sample_every, window):
    ds = tr.lorenz_trajectories(seed, count=count, steps=steps, sample_every=sample_every,
                                window=window)
    inputs, targets, train_idx, test_idx = lorenz_ref(seed, count, steps,
                                                      sample_every=sample_every, window=window)
    assert same_bytes(ds.inputs, inputs)
    assert same_bytes(ds.targets, targets)
    assert same_bytes(ds.train_idx, train_idx)
    assert same_bytes(ds.test_idx, test_idx)
    assert ds.inputs.flags.c_contiguous and ds.targets.flags.c_contiguous


# sha256 of inputs.tobytes() and targets.tobytes() at the default dt,
# sample_every and window, taken from the integrator that stepped all
# trajectories as one (3, count) state array: the LorenzConfig default
# and the lorenz_train benchmark size
LORENZ_SHA256 = {
    (0, 12, 1600): ("bcb0f82b5c742b25e6a5debeefe0d0120d92f91d735aa5c80b9f2b1fc7171575",
                    "4f438fde6e0b65e6723811c026ab46b97217767a83d2075f6cb8a7c33e7a0422"),
    (1001, 8, 1200): ("020825617c0812d19109048e2353843f4bc6cec80da55d7c50bd2238c2e8b6c1",
                      "0141199bd73ca59268006c7512a744c7ec66e57102b0757dd9ee6e56f8726d29"),
}


@pytest.mark.parametrize("seed, count, steps", sorted(LORENZ_SHA256))
def test_lorenz_datasets_match_their_sha256_pins(seed, count, steps):
    ds = tr.lorenz_trajectories(seed, count=count, steps=steps)
    assert tuple(hashlib.sha256(a.tobytes()).hexdigest()
                 for a in (ds.inputs, ds.targets)) == LORENZ_SHA256[seed, count, steps]


def lorenz_matches_ref(seed, count, steps, dt, sample_every, window, burn_in):
    """``lorenz_trajectories`` raises ``ConfigError`` where ``lorenz_ref``
    does, and returns its bytes elsewhere."""
    assume(len(range(0, steps, sample_every)) > window)  # else the sizes are rejected
    kwargs = dict(dt=dt, sample_every=sample_every, window=window, burn_in=burn_in)
    try:
        ref = lorenz_ref(seed, count, steps, **kwargs)
    except ConfigError:
        with pytest.raises(ConfigError, match="leave the finite range"):
            tr.lorenz_trajectories(seed, count, steps, **kwargs)
        return
    ds = tr.lorenz_trajectories(seed, count, steps, **kwargs)
    for got, want in zip((ds.inputs, ds.targets, ds.train_idx, ds.test_idx), ref):
        assert same_bytes(got, want)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 20), count=st.integers(2, 6), steps=st.integers(2, 160),
       dt=st.floats(0.0, 0.02, exclude_min=True), sample_every=st.integers(1, 12),
       window=st.integers(1, 6), burn_in=st.integers(0, 300))
def test_lorenz_datasets_match_the_array_rk4_oracle(seed, count, steps, dt, sample_every,
                                                    window, burn_in):
    lorenz_matches_ref(seed, count, steps, dt, sample_every, window, burn_in)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 20), count=st.integers(2, 6), steps=st.integers(2, 40),
       dt=st.floats(0.02, 0.4), sample_every=st.integers(1, 8), window=st.integers(1, 4),
       burn_in=st.integers(0, 20))
def test_lorenz_blow_ups_raise_config_error_where_the_oracle_does(seed, count, steps, dt,
                                                                  sample_every, window, burn_in):
    lorenz_matches_ref(seed, count, steps, dt, sample_every, window, burn_in)


def test_a_blow_up_after_the_last_sample_raises_config_error():
    # the kept states (steps 0 and 4) are finite; trajectory 0 overflows at step 5
    with pytest.raises(ConfigError, match="dt=0.15"):
        tr.lorenz_trajectories(0, count=4, steps=6, dt=0.15, sample_every=4, window=1,
                               burn_in=0)


# -----------------------------------------------------------------------------
# dual-quaternion window features


def test_dual_quaternion_features_of_lorenz_dataset_match_per_window_loop():
    ds = tr.lorenz_trajectories(_LORENZ.seed, count=_LORENZ.trajectories, steps=_LORENZ.steps)
    assert same_bytes(tr.encode_windows_dual_quaternion(ds.inputs),
                      encode_dual_quaternion_ref(ds.inputs))


def _edge_windows():
    """Windows that reach every branch: still steps, a first move,
    antiparallel turns with and without the fallback axis, a turn whose
    dot is within 1e-12 of -1, and the shortest window."""
    return [
        np.array([[0, 0, 0], [0, 0, 0], [1, 2, 3], [1, 2, 3], [2, 2, 3]], float),
        np.array([[0, 0, 0], [1, 1, 1], [-1, -1, -1], [3, 3, 3], [3, 3, 3]], float),
        np.array([[0, 0, 0], [1, 0, 0], [-1, 0, 0], [1, 0, 0], [1, 0, 0]], float),
        np.array([[0, 0, 0], [2, 0, 0], [2, 0, 0], [0, 0, 0], [0, 1e-6, 0]], float),
        np.array([[5, 5, 5], [6, 5, 5], [5, 5 + 1e-6, 5], [5, 5, 5], [6, 5, 5]], float),
        np.array([[0, 0, 0], [0, 0, 4], [0, 1e-7, 0], [0, 1e-7, 4], [1, 1, 1]], float),
    ]


def test_dual_quaternion_features_on_edge_windows_match_per_window_loop():
    windows = np.stack(_edge_windows())
    assert same_bytes(tr.encode_windows_dual_quaternion(windows),
                      encode_dual_quaternion_ref(windows))
    for w in (windows[:, :2], windows[:, 1:3], windows[:1]):  # w = 2 and a single window
        w = np.ascontiguousarray(w)
        assert same_bytes(tr.encode_windows_dual_quaternion(w), encode_dual_quaternion_ref(w))


STEP_KINDS = ("still", "random", "along_x", "reverse", "near_reverse")


@st.composite
def window_batches(draw):
    """Integer-valued windows, so that each step is exact and a reversed
    step is exactly antiparallel; near reversals tilt by eps, putting the
    dot within about eps**2 / 2 of -1."""
    w = draw(st.integers(2, 9))
    n = draw(st.integers(1, 6))
    coord = st.integers(-40, 40).map(float)
    out = np.empty((n, w, 3))
    for i in range(n):
        p = np.array(draw(st.tuples(coord, coord, coord)))
        last = np.array([1.0, 0.0, 0.0])
        out[i, 0] = p
        for t in range(1, w):
            kind = draw(st.sampled_from(STEP_KINDS))
            if kind == "still":
                step = np.zeros(3)
            elif kind == "random":
                step = np.array(draw(st.tuples(*[st.integers(-9, 9).map(float)] * 3)))
            elif kind == "along_x":
                step = np.array([draw(st.sampled_from([-3.0, -1.0, 1.0, 2.0])), 0.0, 0.0])
            elif kind == "reverse":
                step = -draw(st.sampled_from([1.0, 2.0, 4.0])) * last
            else:
                eps = draw(st.sampled_from([1e-9, 1e-7, 1e-6, 1.4e-6, 3e-6]))
                perp = np.cross(last, [0.0, 0.0, 1.0])
                if not perp.any():
                    perp = np.cross(last, [0.0, 1.0, 0.0])
                step = -last + eps * np.linalg.norm(last) * perp / np.linalg.norm(perp)
            p = p + step
            out[i, t] = p
            if step.any():
                last = step
    return out


@settings(max_examples=200, deadline=None)
@given(window_batches())
def test_dual_quaternion_features_match_per_window_loop(windows):
    assert same_bytes(tr.encode_windows_dual_quaternion(windows),
                      encode_dual_quaternion_ref(windows))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 9), st.integers(1, 40))
def test_dual_quaternion_features_of_gaussian_windows_match_per_window_loop(seed, w, n):
    windows = rng(seed).standard_normal((n, w, 3)) * 5.0
    assert same_bytes(tr.encode_windows_dual_quaternion(windows),
                      encode_dual_quaternion_ref(windows))

"""Non-finite quaternions and windows, and Lorenz datasets too small to
train on, fail with the package's own errors instead of passing silently."""
import numpy as np
import pytest

from hxnn import geometry as G
from hxnn import training as tr
from hxnn.errors import ConfigError, NormalizationError, ShapeError

NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("make", [
    lambda: G.UnitQuaternion([NAN, 0.0, 0.0, 0.0]),
    lambda: G.UnitQuaternion([1.0, NAN, 0.0, 0.0]),
    lambda: G.UnitQuaternion.normalize([INF, 0.0, 0.0, 0.0]),
    lambda: G.UnitQuaternion.normalize([1.0, NAN, 0.0, 0.0]),
    lambda: G.quat_from_axis_angle([NAN, 0.0, 1.0], 1.0),
    lambda: G.quat_from_axis_angle([0.0, 0.0, 1.0], NAN),
])
def test_non_finite_quaternion_raises_normalization_error(make):
    with pytest.raises(NormalizationError):
        make()


def test_batched_normalization_checks_every_row():
    rows = np.array([[1.0, 2.0, 0.0, 0.0], [0.0, 0.0, 3.0, 4.0]])
    assert np.allclose(np.linalg.norm(G.unit_quaternions(rows), axis=1), 1.0)
    for bad in ([NAN, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]):
        with pytest.raises(NormalizationError):
            G.unit_quaternions(np.vstack([rows, bad]))


@pytest.mark.parametrize("value", [NAN, INF, -INF])
def test_non_finite_window_raises_normalization_error_naming_it(value):
    windows = np.random.default_rng(0).standard_normal((6, 8, 3))
    windows[4, 2, 1] = value
    with pytest.raises(NormalizationError, match="window 4"):
        tr.encode_windows_dual_quaternion(windows)


@pytest.mark.parametrize("kwargs", [
    dict(count=1),
    dict(count=0),
    dict(count=4, test_fraction=0.9),  # every trajectory held out
    dict(sample_every=0),
    dict(sample_every=-2),
    dict(window=0),
    dict(steps=50),  # 5 samples: too few for one window of 8
    dict(steps=80),  # 8 samples: still no target after the window
    dict(steps=0),
    dict(dt=0.0),
])
def test_degenerate_lorenz_dataset_raises_config_error(kwargs):
    args = dict(count=4, steps=400) | kwargs
    with pytest.raises(ConfigError):
        tr.lorenz_trajectories(0, **args)


def test_smallest_lorenz_dataset_is_legal():
    ds = tr.lorenz_trajectories(0, count=2, steps=90, window=8)  # 9 samples, 1 window each
    assert ds.inputs.shape == (2, 8, 3)
    assert len(ds.train_idx) == 1 and len(ds.test_idx) == 1


def test_train_on_empty_split_raises_shape_error():
    ds = tr.lorenz_trajectories(0, count=4, steps=400)
    empty = tr.Dataset(ds.inputs, ds.targets, [], ds.test_idx)
    f = tr.lorenz_forecaster("real", seed=0)
    data = tr.Dataset(f.features(empty.inputs), empty.targets, empty.train_idx, empty.test_idx)
    with pytest.raises(ShapeError, match="training split is empty"):
        tr.train(f.net, data, tr.TrainConfig(epochs=1))
    metrics = tr.train(f.net, data, tr.TrainConfig(epochs=0))
    assert metrics.losses == [] and metrics.scores == []

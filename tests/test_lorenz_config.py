"""``LorenzConfig`` rejects, at construction, a run that would report
nothing (no seed, no model, no offset) or fail only after training (an
unknown model, a non-finite offset, a window too short for a model).
The Lorenz data maker rejects a ``dt`` whose integrated states leave the
finite range, before any model trains."""
import numpy as np
import pytest

from hxnn import experiments as ex
from hxnn import training as tr
from hxnn.cli import main
from hxnn.errors import ConfigError

NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("num_seeds", [0, -2])
def test_lorenz_config_rejects_fewer_than_one_seed(num_seeds):
    with pytest.raises(ConfigError, match=f"num_seeds={num_seeds}"):
        ex.LorenzConfig(num_seeds=num_seeds)


@pytest.mark.parametrize("models", [(), ("real", "bogus"), ("Real",)])
def test_lorenz_config_rejects_no_model_or_an_unknown_one(models):
    with pytest.raises(ConfigError, match="models=") as info:
        ex.LorenzConfig(models=models)
    assert all(kind in str(info.value) for kind in tr.LORENZ_FORECASTERS)


@pytest.mark.parametrize("offsets", [(), (NAN,), (1.0, INF), (-INF, 5.0)])
def test_lorenz_config_rejects_no_offset_or_a_non_finite_one(offsets):
    with pytest.raises(ConfigError, match="offsets="):
        ex.LorenzConfig(offsets=offsets)


def test_lorenz_config_still_checks_epochs():
    with pytest.raises(ConfigError, match="epochs=0"):
        ex.LorenzConfig(epochs=0, models=("real",))


@pytest.mark.parametrize("kind", list(tr.LORENZ_FORECASTERS))
def test_lorenz_config_accepts_each_forecaster_and_finite_offsets(kind):
    cfg = ex.LorenzConfig(num_seeds=1, models=(kind,), offsets=(0.0, -3.5, 1e6))
    assert cfg.models == (kind,)


@pytest.mark.parametrize("section, line, shown", [("train", "num_seeds = 0", "num_seeds=0"),
                                                  ("data", "offsets = 1, nan", "offsets="),
                                                  ("data", "window = 1", "window=1")])
def test_cli_lorenz_experiment_that_would_do_nothing_or_fail_late_exits_one(
        section, line, shown, monkeypatch, capsys, tmp_path):
    def no_data(*args, **kwargs):
        raise AssertionError("the Lorenz data was made")

    monkeypatch.setattr(tr, "lorenz_trajectories", no_data)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"[{section}]\n{line}\n")
    assert main(["experiment", "lorenz", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert shown in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("window, models, short", [
    (1, tuple(tr.LORENZ_FORECASTERS), "dual_quaternion"),  # drops one step
    (0, ("phm",), "phm"),
    (-3, ("quaternion",), "quaternion"),
    (0, ("dual_quaternion", "real"), "dual_quaternion"),
])
def test_lorenz_config_rejects_a_window_too_short_for_a_model(window, models, short):
    with pytest.raises(ConfigError, match=f"window={window}: too short for model '{short}'"):
        ex.LorenzConfig(window=window, models=models)


@pytest.mark.parametrize("kind", list(tr.LORENZ_FORECASTERS))
def test_the_shortest_window_the_config_accepts_builds_a_working_forecaster(kind):
    window = tr.LORENZ_FORECASTERS[kind][2] + 1
    assert ex.LorenzConfig(window=window, models=(kind,)).window == window
    with pytest.raises(ConfigError, match="window="):
        ex.LorenzConfig(window=window - 1, models=(kind,))
    windows = np.random.Generator(np.random.PCG64(0)).normal(size=(5, window, 3))
    assert tr.lorenz_forecaster(kind, 0, window=window).predict(windows).shape == (5, 3)


@pytest.mark.parametrize("dt", [NAN, INF, 0.3])
def test_lorenz_data_rejects_a_dt_whose_states_leave_the_finite_range(dt):
    with pytest.raises(ConfigError, match=f"dt={dt}"):
        tr.lorenz_trajectories(0, count=4, steps=200, dt=dt)


@pytest.mark.parametrize("dt", [0.01, 0.1])
def test_lorenz_data_accepts_a_dt_that_stays_finite(dt):
    ds = tr.lorenz_trajectories(0, count=4, steps=200, dt=dt)
    assert np.isfinite(ds.inputs).all() and np.isfinite(ds.targets).all()


@pytest.mark.parametrize("command, text", [
    (["experiment", "lorenz"], "[data]\ncount = 4\nsteps = 200\ndt = nan\n"),
    (["train"], "[model]\nalgebra = phm\nn = 2\nhidden = 8\n"
                "[data]\ndataset = lorenz\ncount = 4\nsteps = 200\ndt = nan\n"
                "[train]\nepochs = 1\n"),
], ids=["experiment", "train"])
def test_cli_on_lorenz_data_with_a_nan_dt_exits_one_before_training(
        command, text, monkeypatch, capsys, tmp_path):
    def no_training(*args, **kwargs):
        raise AssertionError("a model was trained")

    monkeypatch.setattr(tr, "train", no_training)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert main([*command, str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "dt=nan" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()

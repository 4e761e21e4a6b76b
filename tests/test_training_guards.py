"""A diverging run, a negative ``Narrow`` slice, negative conv padding, a
learning rate or Adam ``eps`` that is not a finite positive number, an
Adam ``beta1`` or ``beta2`` outside [0, 1), a NaN
``early_stop_train_loss`` (no loss is below it, so it would turn early
stopping off) and a blobs split with no train or no test sample fail
with the package's own errors instead of passing silently.  An
experiment config builds its ``TrainConfig`` when it is constructed, so
its training settings fail before any data is made."""
import dataclasses

import numpy as np
import pytest

from hxnn import experiments as ex
from hxnn import serialize as S
from hxnn import tensor as T
from hxnn import training as tr
from hxnn.algebra import builtin
from hxnn.cli import main
from hxnn.errors import ConfigError, FormatError, ShapeError, TrainingDiverged
from hxnn.layers import HConv2DLayer, HFCLayer
from hxnn.phlayers import PHCLayer
from test_serialize import file_with_cfg


def test_sgd_at_huge_lr_raises_training_diverged():
    ds = tr.lorenz_trajectories(0, count=4, steps=400)
    f = tr.lorenz_forecaster("real", seed=0)
    enc = tr.Dataset(f.features(ds.inputs), f.train_targets(ds.inputs, ds.targets),
                     ds.train_idx, ds.test_idx)
    cfg = tr.TrainConfig(seed=0, epochs=5, batch_size=32, lr=1e30, optimizer="sgd")
    with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as info:
        tr.train(f.net, enc, cfg)
    assert 1 <= info.value.epoch <= cfg.epochs
    assert not np.isfinite(info.value.loss)
    assert f"epoch {info.value.epoch}" in str(info.value)
    assert isinstance(info.value, ValueError)


def sgd_forecaster_run(lr, epochs, count=12, steps=1600):
    """The real forecaster trained with SGD, batch 128, on Lorenz data."""
    ds = tr.lorenz_trajectories(0, count=count, steps=steps)
    f = tr.lorenz_forecaster("real", seed=0)
    enc = tr.Dataset(f.features(ds.inputs), f.train_targets(ds.inputs, ds.targets),
                     ds.train_idx, ds.test_idx)
    cfg = tr.TrainConfig(seed=0, epochs=epochs, batch_size=128, lr=lr, optimizer="sgd")
    return tr.train(f.net, enc, cfg)


@pytest.mark.parametrize("count, steps", [(4, 400), (12, 1600)])
def test_a_finite_blow_up_raises_training_diverged(count, steps):
    # epoch losses grow by dozens of orders of magnitude and stay finite
    with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as info:
        sgd_forecaster_run(1e3, 4, count, steps)
    assert info.value.epoch == 2
    assert np.isfinite(info.value.loss) and info.value.loss > 1e20


def test_a_run_that_recovers_from_a_huge_first_epoch_does_not_raise():
    losses = sgd_forecaster_run(1.0, 3).losses
    assert losses[0] > 1e13 and losses[0] > losses[1] > losses[2]


def test_a_run_with_zero_first_epoch_loss_does_not_raise():
    ds = tr.Dataset(np.zeros((40, 4)), np.zeros((40, 2)), np.arange(32), np.arange(32, 40))
    net = tr.Network([HFCLayer(builtin("real"), 4, 2, activation="none")])
    assert tr.train(net, ds, tr.TrainConfig(epochs=3, batch_size=8)).losses == [0.0] * 3


@pytest.mark.parametrize("start, length", [(0, -1), (0, 0), (-1, 2), (-2, -1)])
def test_narrow_layer_rejects_negative_start_or_short_length(start, length):
    with pytest.raises(ConfigError):
        tr.Narrow(start, length)


@pytest.mark.parametrize("old, new", [(b"length=2\n", b"length=-1\n"),
                                      (b"length=2\n", b"length=0\n"),
                                      (b"start=0\n", b"start=-1\n")])
def test_narrow_layer_with_bad_slice_in_a_file_raises_format_error(old, new, tmp_path):
    with pytest.raises(FormatError, match=r"layer 0 \("):
        S.load_model(file_with_cfg(tmp_path, tr.Narrow(0, 2), old, new))


def test_tensor_narrow_rejects_negative_length():
    x = T.Tensor(np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        T.narrow(x, 1, 0, -1)
    assert T.narrow(x, 1, 1, 0).data.shape == (2, 0)


@pytest.mark.parametrize("build", [
    lambda: HConv2DLayer(builtin("real"), 2, 2, 3, padding=-1),
    lambda: HConv2DLayer(builtin("quaternion"), 4, 4, 3, padding=-2),
    lambda: PHCLayer(2, 4, 4, 3, padding=-1),
])
def test_conv_rejects_negative_padding(build):
    with pytest.raises(ConfigError, match="padding"):
        build()


@pytest.mark.parametrize("layer", [
    HConv2DLayer(builtin("quaternion"), 4, 8, 3, padding=1),
    PHCLayer(2, 4, 4, 3, padding=1),
])
def test_conv_with_negative_padding_in_a_file_raises_format_error(layer, tmp_path):
    with pytest.raises(FormatError, match=r"layer 0 \("):
        S.load_model(file_with_cfg(tmp_path, layer, b"padding=1\n", b"padding=-1\n"))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0])
@pytest.mark.parametrize("key", ["lr", "eps"])
def test_train_config_rejects_an_lr_or_eps_that_is_not_finite_and_positive(key, value):
    with pytest.raises(ConfigError, match=f"{key}="):
        tr.TrainConfig(**{key: value})


@pytest.mark.parametrize("value", [1.0, 1.5, -0.1, float("nan"), float("inf")])
@pytest.mark.parametrize("key", ["beta1", "beta2"])
def test_train_config_rejects_an_adam_beta_outside_zero_to_one(key, value):
    with pytest.raises(ConfigError, match=f"{key}="):
        tr.TrainConfig(**{key: value})


def test_train_config_accepts_the_edges_of_the_adam_ranges():
    cfg = tr.TrainConfig(beta1=0.0, beta2=0.0, eps=5e-324)
    assert (cfg.beta1, cfg.beta2, cfg.eps) == (0.0, 0.0, 5e-324)


@pytest.mark.parametrize("line, shown", [("eps = 0", "eps=0.0"), ("beta1 = 1", "beta1=1.0"),
                                         ("beta2 = 1", "beta2=1.0"), ("beta1 = nan", "beta1=nan")])
def test_cli_train_with_a_bad_adam_constant_exits_one_before_any_data_is_made(
        line, shown, monkeypatch, capsys, tmp_path):
    def no_data(*args, **kwargs):
        raise AssertionError("the Lorenz data was made")

    monkeypatch.setattr(tr, "lorenz_trajectories", no_data)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[model]\nkind = mlp\n[data]\ndataset = lorenz\ncount = 4\nsteps = 200\n"
                   f"[train]\nepochs = 1\n{line}\n")
    assert main(["train", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert shown in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, line, shown", [
    ("blobs", "lr = 0", "lr=0.0"),
    ("lorenz", "batch_size = 0", "batch_size=0"),
    ("blobs", "early_stop_train_loss = nan", "early_stop_train_loss=nan"),
])
def test_cli_experiment_with_a_bad_training_setting_exits_one_before_making_data(
        name, line, shown, capsys, monkeypatch, tmp_path):
    made = []
    for maker in ("make_rgb_blobs", "linear_probe_accuracy", "lorenz_trajectories"):
        monkeypatch.setattr(tr, maker, lambda *a, **k: made.append(a))
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"[train]\nepochs = 1\n{line}\n")
    assert main(["experiment", name, str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert shown in capsys.readouterr().err
    assert made == [] and not (tmp_path / "out").exists()


def test_train_config_rejects_a_nan_early_stop_train_loss():
    with pytest.raises(ConfigError, match="early_stop_train_loss=nan"):
        tr.TrainConfig(early_stop_train_loss=float("nan"))


@pytest.mark.parametrize("value", [None, 0.0, -1.0, float("inf"), -float("inf")])
def test_train_config_keeps_an_early_stop_train_loss_that_is_not_nan(value):
    assert tr.TrainConfig(early_stop_train_loss=value).early_stop_train_loss == value


def test_blobs_experiment_with_a_nan_early_stop_raises_before_making_data(monkeypatch):
    made = []
    for maker in ("make_rgb_blobs", "linear_probe_accuracy"):
        monkeypatch.setattr(tr, maker, lambda *a, **k: made.append(a))
    with pytest.raises(ConfigError, match="early_stop_train_loss=nan"):
        ex.experiment_blobs(ex.BlobsConfig(epochs=1, early_stop_train_loss=float("nan")))
    assert made == []


def test_cli_train_with_a_nan_early_stop_exits_one_before_any_data_is_made(
        monkeypatch, capsys, tmp_path):
    made = []
    monkeypatch.setattr(tr, "lorenz_trajectories", lambda *a, **k: made.append(a))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[model]\nkind = mlp\n[data]\ndataset = lorenz\ncount = 4\nsteps = 200\n"
                   "[train]\nepochs = 2\nearly_stop_train_loss = nan\n")
    assert main(["train", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "early_stop_train_loss=nan" in capsys.readouterr().err
    assert made == [] and not (tmp_path / "out").exists()


@pytest.mark.parametrize("cls", [ex.BlobsConfig, ex.LorenzConfig])
def test_an_experiment_config_keeps_its_train_config_in_step(cls):
    config = cls()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.lr = 0.5
    assert dataclasses.replace(config, lr=0.5, seed=7).train == dataclasses.replace(
        config.train, lr=0.5, seed=7)


def test_lorenz_experiment_with_a_nan_lr_raises_instead_of_reporting_nan():
    # rejected where the config is built, before any data is made
    with pytest.raises(ConfigError, match="lr=nan"):
        ex.experiment_lorenz_equivariance(
            ex.LorenzConfig(num_seeds=1, epochs=1, trajectories=4, steps=200, lr=float("nan")))


@pytest.mark.parametrize("samples_per_class, train_fraction", [(0, 5 / 6), (1, 5 / 6),
                                                               (6, 1.0), (6, 0.1)])
def test_make_rgb_blobs_rejects_an_empty_split(samples_per_class, train_fraction):
    with pytest.raises(ConfigError, match=f"samples_per_class={samples_per_class}"):
        tr.make_rgb_blobs(0, samples_per_class=samples_per_class, train_fraction=train_fraction)


def test_make_rgb_blobs_keeps_one_sample_on_each_side():
    ds = tr.make_rgb_blobs(0, samples_per_class=2, size=4)
    assert len(ds.train_idx) == len(ds.test_idx) == 4


def test_blobs_experiment_with_one_sample_per_class_raises_config_error():
    with pytest.raises(ConfigError, match="0 train"):
        ex.experiment_blobs(ex.BlobsConfig(samples_per_class=1))

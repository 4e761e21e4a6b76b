"""A layer width that the model's algebra dimension n does not divide,
or that is below 1, fails with the layers' own ``DivisibilityError`` or
``ConfigError``, and a command rejects it before it makes any data.

``config.read_model`` runs the layers' check on the widths a config
fixes, under the key's name: the convnet's 3 image channels and
``[model] channels``, and an mlp's input width (``3 * [data] window``
for the flat Lorenz encoding) and each ``[model] hidden`` width (a PHM
``n`` below 1 fails first).  ``config.read_run`` then builds the model,
so every other check a layer constructor makes, such as an unknown
activation, also fails before any data.  ``BlobsConfig`` checks
``channels`` against the n = 3 of its PHC classifier.
"""
import re

import pytest

from hxnn import config as C
from hxnn import experiments as ex
from hxnn import training as tr
from hxnn.cli import main
from hxnn.errors import ConfigError, DivisibilityError
from test_blobs_size import cli_args

MAKERS = ("make_rgb_blobs", "linear_probe_accuracy", "lorenz_trajectories")


@pytest.fixture
def made(monkeypatch):
    """The calls to the data makers, each replaced by a recorder."""
    calls = []
    for maker in MAKERS:
        monkeypatch.setattr(tr, maker, lambda *a, **k: calls.append(a))
    return calls


def convnet_cfg(algebra="algebra = phm\nn = 3", channels=6):
    return (f"[model]\n{algebra}\nchannels = {channels}\n"
            "[data]\ndataset = blobs\nsamples_per_class = 24\n[train]\nepochs = 1\n")


def mlp_cfg(algebra="algebra = phm\nn = 3", hidden="6", data=""):
    return (f"[model]\n{algebra}\nhidden = {hidden}\n"
            f"[data]\ndataset = lorenz\ncount = 4\nsteps = 200\n{data}[train]\nepochs = 1\n")


@pytest.mark.parametrize("channels, error, message", [
    (0, ConfigError, "channels=0 must be at least 1"),
    (-3, ConfigError, "channels=-3 must be at least 1"),
    (5, DivisibilityError, "channels=5 is not divisible by n=3"),
    (8, DivisibilityError, "channels=8 is not divisible by n=3"),
])
def test_blobs_config_rejects_channels_its_phc_layers_cannot_take(channels, error, message):
    with pytest.raises(error, match=message):
        ex.BlobsConfig(channels=channels)


@pytest.mark.parametrize("channels", [3, 6, 24])
def test_blobs_config_keeps_a_positive_multiple_of_three(channels):
    assert ex.BlobsConfig(channels=channels).channels == channels


@pytest.mark.parametrize("channels", ["0", "5"])
def test_cli_experiment_blobs_with_bad_channels_exits_one_before_making_data(channels, made,
                                                                            capsys, tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"[model]\nchannels = {channels}\n[data]\nsamples_per_class = 24\n"
                   "size = 8\n[train]\nepochs = 1\n")
    assert main(["experiment", "blobs", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert f"channels={channels}" in capsys.readouterr().err
    assert made == [] and not (tmp_path / "out").exists()


@pytest.mark.parametrize("cfg_text, message", [
    (convnet_cfg(channels=5), "model.channels=5 is not divisible by n=3"),
    (convnet_cfg(channels=0), "model.channels=0 must be at least 1"),
    (convnet_cfg("algebra = quaternion"), "image channels=3 is not divisible by n=4"),
    (convnet_cfg("algebra = phm\nn = 0"), "model.n=0 must be at least 1"),
    (mlp_cfg(hidden="8"), "model.hidden=8 is not divisible by n=3"),
    (mlp_cfg(hidden="6, 4"), "model.hidden=4 is not divisible by n=3"),
    (mlp_cfg(hidden="0"), "model.hidden=0 must be at least 1"),
    (mlp_cfg("algebra = quaternion", "6"), "model.hidden=6 is not divisible by n=4"),
    (mlp_cfg("algebra = phm\nn = -2"), "model.n=-2 must be at least 1"),
    # window 8 gives 24 flat input features
    (mlp_cfg("algebra = phm\nn = 5", "10"),
     "mlp input width (3 * data.window=8)=24 is not divisible by n=5"),
    (mlp_cfg("algebra = quaternion", "8", "window = 6\n"),
     "mlp input width (3 * data.window=6)=18 is not divisible by n=4"),
    (mlp_cfg(data="window = 0\n"), "mlp input width (3 * data.window=0)=0 must be at least 1"),
])
@pytest.mark.parametrize("command", ["train", "eval"])
def test_cli_with_a_width_n_does_not_divide_exits_one_before_making_data(
        command, cfg_text, message, made, capsys, tmp_path):
    with pytest.raises(ValueError, match=re.escape(message)):
        C.read_run(C.parse_config(cfg_text))
    assert main(cli_args(command, cfg_text, tmp_path)) == 1
    assert message in capsys.readouterr().err
    assert made == [] and not (tmp_path / "out").exists()


@pytest.mark.parametrize("cfg_text", [convnet_cfg(), convnet_cfg("algebra = real", 5),
                                      mlp_cfg(), mlp_cfg(hidden="6, 9"),
                                      mlp_cfg("algebra = quaternion", "8, 4"),
                                      mlp_cfg(hidden=""),
                                      mlp_cfg("algebra = phm\nn = 5", "10", "window = 5\n")])
def test_read_run_keeps_widths_n_divides(cfg_text):
    C.read_run(C.parse_config(cfg_text))


@pytest.mark.parametrize("cfg_text, message", [
    (mlp_cfg("algebra = phm\nn = 3\nactivation = tanh"), "unknown activation 'tanh'"),
    (convnet_cfg("algebra = phm\nn = 3\nactivation = tanh"), "unknown activation 'tanh'"),
])
@pytest.mark.parametrize("command", ["train", "eval"])
def test_cli_with_a_model_its_layers_reject_exits_one_before_making_data(
        command, cfg_text, message, made, capsys, tmp_path):
    with pytest.raises(ConfigError, match=re.escape(message)):
        C.read_run(C.parse_config(cfg_text))
    assert main(cli_args(command, cfg_text, tmp_path)) == 1
    assert message in capsys.readouterr().err
    assert made == [] and not (tmp_path / "out").exists()

"""A layer width that the model's algebra dimension n does not divide,
or that is below 1, fails with the layers' own ``DivisibilityError`` or
``ConfigError``, and a command rejects it before it makes any data.

``config.read_model`` runs the layers' check on the widths a config
fixes: the convnet's 3 image channels and ``[model] channels``, and
each ``[model] hidden`` width of an mlp (a PHM ``n`` below 1 fails
first).  ``BlobsConfig`` checks ``channels`` against the n = 3 of its
PHC classifier.  The mlp's input width (``3 * window`` for the flat
Lorenz encoding) depends on the data and is still checked only when
the model is built, after the data is made.
"""
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
    return (f"[model]\nkind = convnet\n{algebra}\nchannels = {channels}\n"
            "[data]\ndataset = blobs\nsamples_per_class = 24\n"
            "[train]\nepochs = 1\ntask = classification\n")


def mlp_cfg(algebra="algebra = phm\nn = 3", hidden="6"):
    return (f"[model]\nkind = mlp\n{algebra}\nhidden = {hidden}\n"
            "[data]\ndataset = lorenz\ncount = 4\nsteps = 200\n[train]\nepochs = 1\n")


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
])
@pytest.mark.parametrize("command", ["train", "eval"])
def test_cli_with_a_width_n_does_not_divide_exits_one_before_making_data(
        command, cfg_text, message, made, capsys, tmp_path):
    with pytest.raises(ValueError, match=message):
        C.read_run(C.parse_config(cfg_text))
    assert main(cli_args(command, cfg_text, tmp_path)) == 1
    assert message in capsys.readouterr().err
    assert made == [] and not (tmp_path / "out").exists()


@pytest.mark.parametrize("cfg_text", [convnet_cfg(), convnet_cfg("algebra = real", 5),
                                      mlp_cfg(), mlp_cfg(hidden="6, 9"),
                                      mlp_cfg("algebra = quaternion", "8, 4"),
                                      mlp_cfg(hidden="")])
def test_read_run_keeps_widths_n_divides(cfg_text):
    C.read_run(C.parse_config(cfg_text))


def test_cli_train_checks_the_mlp_input_width_once_the_data_is_made(capsys, tmp_path):
    # window 8 gives 24 flat input features, which n = 5 does not divide
    cfg = mlp_cfg("algebra = phm\nn = 5", "10")
    assert main(cli_args("train", cfg, tmp_path)) == 1
    assert "input features d=24 is not divisible by n=5" in capsys.readouterr().err

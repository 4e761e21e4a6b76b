"""A blobs image size the task cannot use fails with ``ConfigError``, and
the experiment rejects it before it makes any data.

``make_rgb_blobs`` needs images at least one pixel wide.  The blobs
experiment's convnet pools twice by 2x2, so its ``image_size`` must be a
positive multiple of 4.  A ``hxnn train`` or ``hxnn eval`` config
follows the same rule: ``config.read_run`` rejects a convnet whose
``[data] size`` breaks it, or whose dataset is not blobs, and an mlp on
blobs, whose images it cannot size.
"""
import pytest

from hxnn import config as C
from hxnn import experiments as ex
from hxnn import serialize as S
from hxnn import training as tr
from hxnn.cli import main
from hxnn.errors import ConfigError


def convnet_cfg(size=None, dataset="blobs", task="classification", kind="convnet"):
    """A tiny PHC convnet config, every key of it read by ``read_run``."""
    data = f"dataset = {dataset}\n" + ("samples_per_class = 24\n" if dataset == "blobs" else "")
    data += "" if size is None else f"size = {size}\n"
    model = "algebra = phm\nn = 3\nchannels = 6\n" if kind == "convnet" else ""
    return f"[model]\nkind = {kind}\n{model}[data]\n{data}[train]\nepochs = 1\ntask = {task}\n"


@pytest.mark.parametrize("size", [0, -4])
def test_make_rgb_blobs_rejects_an_image_without_pixels(size):
    with pytest.raises(ConfigError, match=f"size={size}"):
        tr.make_rgb_blobs(0, samples_per_class=2, size=size)


@pytest.mark.parametrize("size", [0, -4, 2, 3, 6, 18])
def test_blobs_config_rejects_a_size_the_convnet_cannot_pool(size):
    with pytest.raises(ConfigError, match=f"image_size={size}"):
        ex.BlobsConfig(image_size=size)


@pytest.mark.parametrize("size", [4, 8, 16])
def test_blobs_config_keeps_a_positive_multiple_of_four(size):
    assert ex.BlobsConfig(image_size=size).image_size == size


@pytest.mark.parametrize("size", ["6", "0"])
def test_cli_experiment_blobs_with_a_bad_size_exits_one_before_making_data(size, capsys,
                                                                           monkeypatch, tmp_path):
    made = []
    monkeypatch.setattr(tr, "make_rgb_blobs", lambda *a, **k: made.append(a))
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"[model]\nchannels = 6\n[data]\nsamples_per_class = 24\nsize = {size}\n"
                   "[train]\nepochs = 1\n")
    assert main(["experiment", "blobs", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert f"image_size={size}" in capsys.readouterr().err
    assert made == [] and not (tmp_path / "out").exists()


@pytest.mark.parametrize("size", [0, -4, 2, 3, 6, 18])
def test_read_run_rejects_a_convnet_size_the_pools_cannot_tile(size):
    with pytest.raises(ConfigError, match=f"data.size={size}: the convnet needs a positive multiple of 4"):
        C.read_run(C.parse_config(convnet_cfg(size)))


@pytest.mark.parametrize("size", [None, 4, 8, 16])
def test_read_run_keeps_a_convnet_on_a_positive_multiple_of_four(size):
    make_dataset, _, _ = C.read_run(C.parse_config(convnet_cfg(size)))
    assert make_dataset.keywords["size"] == (16 if size is None else size)


def test_read_run_rejects_a_convnet_on_a_dataset_other_than_blobs():
    cfg = C.parse_config(convnet_cfg(dataset="lorenz", task="regression"))
    with pytest.raises(ConfigError, match="convnet needs dataset = blobs, not lorenz"):
        C.read_run(cfg)


def test_read_run_rejects_an_mlp_on_blobs_before_the_pools_check():
    cfg = C.parse_config(convnet_cfg(6, kind="mlp"))
    with pytest.raises(ConfigError, match="mlp needs dataset = lorenz, not blobs"):
        C.read_run(cfg)


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("size, dataset, task, message", [
    (6, "blobs", "classification", "data.size=6"),
    (0, "blobs", "classification", "data.size=0"),
    (None, "lorenz", "regression", "needs dataset = blobs"),
])
def test_cli_with_a_convnet_on_data_it_cannot_take_exits_one_before_making_data(
        command, size, dataset, task, message, capsys, monkeypatch, tmp_path):
    made = []
    for maker in ("make_rgb_blobs", "lorenz_trajectories"):
        monkeypatch.setattr(tr, maker, lambda *a, **k: made.append(a))
    assert main(cli_args(command, convnet_cfg(size, dataset, task), tmp_path)) == 1
    assert message in capsys.readouterr().err
    assert made == [] and not (tmp_path / "out").exists()


def cli_args(command, cfg_text, tmp_path):
    """``hxnn train`` or ``hxnn eval`` argv on ``cfg_text``; eval gets a
    valid model file, so only the config can fail."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(cfg_text)
    if command == "train":
        return ["train", str(cfg), "--out", str(tmp_path / "out")]
    model = tmp_path / "model.hxnn"
    S.save_model(tr.blobs_classifier("phc", 0, channels=6), model)
    return ["eval", str(model), str(cfg)]


@pytest.mark.parametrize("command", ["train", "eval"])
def test_cli_with_an_mlp_on_blobs_exits_one_before_making_data(command, capsys, monkeypatch,
                                                               tmp_path):
    made = []
    for maker in ("make_rgb_blobs", "lorenz_trajectories"):
        monkeypatch.setattr(tr, maker, lambda *a, **k: made.append(a))
    assert main(cli_args(command, convnet_cfg(kind="mlp"), tmp_path)) == 1
    assert "needs dataset = lorenz" in capsys.readouterr().err
    assert made == [] and not (tmp_path / "out").exists()

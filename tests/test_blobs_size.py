"""A blobs image size the task cannot use fails with ``ConfigError``, and
the experiment rejects it before it makes any data.

``make_rgb_blobs`` needs images at least one pixel wide.  The blobs
experiment's convnet pools twice by 2x2, so its ``image_size`` must be a
positive multiple of 4.
"""
import pytest

from hxnn import experiments as ex
from hxnn import training as tr
from hxnn.cli import main
from hxnn.errors import ConfigError


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

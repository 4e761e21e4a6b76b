from types import SimpleNamespace

import numpy as np
import pytest

from hxnn import config as C
from hxnn import experiments as ex
from hxnn import serialize as S
from hxnn import training as tr
from hxnn.algebra import builtin
from hxnn.cli import main
from hxnn.errors import ConfigError, FormatError
from hxnn.layers import HAttBlock, HConv2DLayer, HFCLayer, HGraphConvLayer
from hxnn.phlayers import PHAttBlock, PHCLayer, PHGraphLayer, PHMLayer, collapse_to_algebra

BLOBS_CFG = """
[model]
kind = convnet
algebra = phm
n = 3
channels = 6
classes = 4

[data]
dataset = blobs
samples_per_class = 24

[train]
seed = 5
epochs = 1
batch_size = 32
lr = 0.003
task = classification
"""


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


# --- config files -------------------------------------------------------------


def test_config_parse_and_fixed_point():
    cfg = C.parse_config(BLOBS_CFG)
    assert cfg["model"]["kind"] == "convnet"
    assert cfg["train"]["epochs"] == "1"


def test_config_rejects_unknown_key_and_section():
    with pytest.raises(ConfigError, match="unknown key"):
        C.parse_config("[train]\nepochz = 3\n")
    with pytest.raises(ConfigError, match="unknown section"):
        C.parse_config("[optimizer]\nlr = 1\n")
    with pytest.raises(ConfigError, match="duplicate"):
        C.parse_config("[train]\nseed = 1\nseed = 2\n")
    with pytest.raises(ConfigError, match="outside"):
        C.parse_config("seed = 1\n")


def test_config_comments_ignored():
    cfg = C.parse_config("# top\n[train]\nseed = 9  # trailing\n")
    assert cfg["train"]["seed"] == "9"


# --- model files ----------------------------------------------------------------


def roundtrip(net, tmp_path):
    path = tmp_path / "m.hxnn"
    S.save_model(net, path)
    return S.load_model(path)


def assert_params_equal(a, b):
    pa = [p for layer in a.layers for p in S._describe(layer)[2]]
    pb = [p for layer in b.layers for p in S._describe(layer)[2]]
    assert len(pa) == len(pb)
    for x, y in zip(pa, pb):
        assert np.array_equal(x.data, y.data)


def test_roundtrip_mixed_network(tmp_path):
    q = builtin("quaternion")
    net = tr.Network([
        HConv2DLayer(q, 4, 8, 3, padding=1, rng=rng(1)),
        tr.AvgPool(2),
        tr.GlobalAvgPool(),
        HFCLayer(q, 8, 4, activation="none", rng=rng(2)),
        tr.Narrow(1, 3),
    ])
    back = roundtrip(net, tmp_path)
    assert_params_equal(net, back)
    x = rng(3).standard_normal((2, 4, 4, 4))
    from hxnn import tensor as T
    assert np.array_equal(net(T.Tensor(x)).data, back(T.Tensor(x)).data)


def test_roundtrip_ph_layers_with_frozen_flags(tmp_path):
    phm = PHMLayer(4, 8, 8, rng=rng(4))
    collapse_to_algebra(phm, builtin("quaternion"))
    net = tr.Network([phm, PHCLayer(2, 2, 4, 3, rng=rng(5)),
                      PHGraphLayer(2, 4, 4, rng=rng(6))])
    back = roundtrip(net, tmp_path)
    assert_params_equal(net, back)
    assert not back.layers[0].a.requires_grad
    assert back.layers[1].a.requires_grad


def test_roundtrip_attention_blocks(tmp_path):
    net = tr.Network([
        HAttBlock(builtin("quaternion"), 4, kernel=3, rng=rng(7)),
        PHAttBlock(2, 4, heads=2, mode="pure", rng=rng(8)),
        HGraphConvLayer(builtin("complex"), 4, 4, rng=rng(9)),
    ])
    back = roundtrip(net, tmp_path)
    assert_params_equal(net, back)
    assert back.layers[1].heads == 2
    assert back.layers[1].mode == "pure"


def test_bad_magic_rejected(tmp_path):
    p = tmp_path / "bad.hxnn"
    p.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(FormatError, match="magic"):
        S.load_model(p)


def test_version_bump_rejected(tmp_path):
    net = tr.Network([HFCLayer(builtin("real"), 2, 2, rng=rng(10))])
    p = tmp_path / "m.hxnn"
    S.save_model(net, p)
    blob = bytearray(p.read_bytes())
    blob[4] = 99
    p.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="version 99"):
        S.load_model(p)


def test_truncated_file_rejected(tmp_path):
    net = tr.Network([HFCLayer(builtin("real"), 2, 2, rng=rng(11))])
    p = tmp_path / "m.hxnn"
    S.save_model(net, p)
    blob = p.read_bytes()
    p.write_bytes(blob[: len(blob) - 5])
    with pytest.raises(FormatError, match="truncated"):
        S.load_model(p)


def test_trailing_bytes_rejected(tmp_path):
    net = tr.Network([HFCLayer(builtin("real"), 2, 2, rng=rng(12))])
    p = tmp_path / "m.hxnn"
    S.save_model(net, p)
    p.write_bytes(p.read_bytes() + b"xx")
    with pytest.raises(FormatError, match="trailing"):
        S.load_model(p)


# --- CLI ------------------------------------------------------------------------


def test_cli_algebra_check_order(capsys):
    assert main(["algebra", "check", "quaternion"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == ("commutative=false associative=true "
                   "alternative=true power_associative=true")
    assert main(["algebra", "check", "tessarine"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == ("commutative=true associative=true "
                   "alternative=true power_associative=true")


def test_cli_algebra_table_format(capsys):
    assert main(["algebra", "table", "complex"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["0 0 1 0", "0 1 1 1", "1 0 1 1", "1 1 -1 0"]


def test_cli_zerodiv(capsys):
    assert main(["algebra", "zerodiv", "quaternion"]) == 0
    assert capsys.readouterr().out.strip() == "none"
    assert main(["algebra", "zerodiv", "sedenion"]) == 0
    assert "x = " in capsys.readouterr().out


def test_cli_unknown_algebra_exits_one(capsys):
    assert main(["algebra", "check", "nope"]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_lets_a_name_error_from_a_command_propagate(monkeypatch):
    def broken(a):
        raise NameError("name 'undefined' is not defined")

    monkeypatch.setattr("hxnn.algebra.check_properties", broken)
    with pytest.raises(NameError, match="undefined"):
        main(["algebra", "check", "quaternion"])


def test_cli_paramtable(capsys, tmp_path):
    assert main(["layers", "paramtable", "fc:64:64", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "fc:64:64,quaternion,1024,4096,0.25" in out
    assert (tmp_path / "paramtable.csv").read_text() == out


def test_cli_train_eval_roundtrip(capsys, tmp_path):
    cfg = tmp_path / "blobs.cfg"
    cfg.write_text(BLOBS_CFG)
    out_dir = tmp_path / "out"
    assert main(["train", str(cfg), "--out", str(out_dir)]) == 0
    train_out = capsys.readouterr().out
    assert "epoch=1" in train_out
    assert (out_dir / "train.csv").exists()
    assert main(["eval", str(out_dir / "model.hxnn"), str(cfg)]) == 0
    eval_out = capsys.readouterr().out
    final_metric = train_out.strip().splitlines()[-2].split("test_metric=")[1]
    assert f"test_metric={final_metric}" in eval_out


LORENZ_MLP_CFG = """
[model]
kind = mlp
algebra = quaternion
hidden = 8
[data]
dataset = lorenz
count = 4
steps = 400
[train]
epochs = 1
"""


UNREAD_KEYS = [  # (config, edit from, edit to, the key no reader reads)
    (BLOBS_CFG, "[model]\n", "[model]\nhidden = 8\n", "[model] hidden"),
    (BLOBS_CFG, "[train]\n", "[train]\nnum_seeds = 5\n", "[train] num_seeds"),
    (BLOBS_CFG, "algebra = phm\n", "algebra = real\n", "[model] n"),
    (BLOBS_CFG, "[data]\n", "[data]\noffsets = 1,2\n", "[data] offsets"),
    (BLOBS_CFG, "[data]\n", "[data]\ncount = 3\n", "[data] count"),
    (LORENZ_MLP_CFG, "[model]\n", "[model]\nchannels = 6\n", "[model] channels"),
    (LORENZ_MLP_CFG, "[data]\n", "[data]\nsize = 8\n", "[data] size"),
]


@pytest.mark.parametrize("text, old, new, key", UNREAD_KEYS, ids=[c[3] for c in UNREAD_KEYS])
@pytest.mark.parametrize("command", ["train", "eval"])
def test_cli_train_and_eval_reject_a_key_they_do_not_read(text, old, new, key, command,
                                                          capsys, monkeypatch, tmp_path):
    generated = []
    monkeypatch.setattr(tr, "make_rgb_blobs", lambda *a, **k: generated.append(a))
    monkeypatch.setattr(tr, "lorenz_trajectories", lambda *a, **k: generated.append(a))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text.replace(old, new, 1))
    model = tmp_path / "model.hxnn"
    S.save_model(tr.Network([HFCLayer(builtin("real"), 2, 2)]), model)
    argv = ["train", str(cfg), "--out", str(tmp_path / "out")] if command == "train" else \
        ["eval", str(model), str(cfg)]
    assert main(argv) == 1
    assert key in capsys.readouterr().err
    assert generated == [] and not (tmp_path / "out").exists()


def test_cli_train_and_eval_share_a_lorenz_mlp_config(capsys, tmp_path):
    cfg = tmp_path / "lorenz.cfg"
    cfg.write_text(LORENZ_MLP_CFG)
    assert main(["train", str(cfg), "--out", str(tmp_path / "out")]) == 0
    metric = capsys.readouterr().out.strip().splitlines()[-2].split("test_metric=")[1]
    assert main(["eval", str(tmp_path / "out" / "model.hxnn"), str(cfg)]) == 0
    assert capsys.readouterr().out == f"test_metric={metric}\n"


def test_cli_train_bad_config_exits_one(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[train]\nepochz = 1\n")
    assert main(["train", str(cfg)]) == 1
    assert "unknown key" in capsys.readouterr().err


def test_cli_train_on_blobs_without_the_classification_task_exits_one(capsys, tmp_path):
    cfg = tmp_path / "blobs.cfg"
    cfg.write_text(BLOBS_CFG.replace("task = classification\n", ""))
    assert main(["train", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "train.task" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_train_has_no_seed_flag(capsys, tmp_path):
    # the file's [train] seed seeds the data, the model and the batches alike
    cfg = tmp_path / "lorenz.cfg"
    cfg.write_text(LORENZ_MLP_CFG)
    with pytest.raises(SystemExit) as exc:
        main(["train", str(cfg), "--seed", "1", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_missing_file_exits_two(capsys, tmp_path):
    assert main(["train", str(tmp_path / "none.cfg")]) == 2
    assert "i/o error" in capsys.readouterr().err


def test_cli_gradcheck_exit_zero(capsys):
    assert main(["gradcheck"]) == 0
    assert "worst=" in capsys.readouterr().out


def experiment_configs(monkeypatch, tmp_path, argv):
    """Run ``hxnn experiment ...`` with the experiments stubbed out and
    return the config objects the CLI built."""
    seen = []

    def stub(cfg):
        seen.append(cfg)
        return SimpleNamespace(summary="", csv="")

    monkeypatch.setattr(ex, "experiment_blobs", stub)
    monkeypatch.setattr(ex, "experiment_lorenz_equivariance", stub)
    assert main(["experiment", *argv, "--out", str(tmp_path / "out")]) == 0
    return seen


def test_cli_experiment_defaults_are_the_config_dataclasses(monkeypatch, tmp_path):
    assert experiment_configs(monkeypatch, tmp_path, ["blobs"]) == [ex.BlobsConfig()]
    assert experiment_configs(monkeypatch, tmp_path, ["lorenz"]) == [ex.LorenzConfig()]


def test_cli_experiment_config_file_and_seed_override(monkeypatch, tmp_path):
    blobs, lorenz = tmp_path / "blobs.cfg", tmp_path / "lorenz.cfg"
    blobs.write_text("[model]\nchannels = 6\n[data]\nsize = 8\n"
                     "[train]\nseed = 3\nepochs = 2\nlr = 0.01\n")
    lorenz.write_text("[data]\ncount = 3\noffsets = 2,4\n"
                      "[train]\nseed = 3\nepochs = 2\nlr = 0.01\n")
    assert experiment_configs(monkeypatch, tmp_path, ["blobs", str(blobs)]) == [
        ex.BlobsConfig(seed=3, image_size=8, channels=6, epochs=2, lr=0.01)]
    assert experiment_configs(monkeypatch, tmp_path, ["lorenz", str(lorenz), "--seed", "9"]) == [
        ex.LorenzConfig(seed=9, trajectories=3, epochs=2, lr=0.01, offsets=(2.0, 4.0))]


@pytest.mark.parametrize("name, section, key, value", [
    ("lorenz", "train", "optimizer", "sgd"),
    ("lorenz", "train", "early_stop_train_loss", "0.5"),
    ("lorenz", "model", "kind", "mlp"),
    ("lorenz", "model", "channels", "6"),
    ("blobs", "data", "count", "3"),
    ("blobs", "train", "optimizer", "adam"),
])
def test_cli_experiment_rejects_a_key_it_does_not_read(name, section, key, value, capsys,
                                                       monkeypatch, tmp_path):
    ran = []
    monkeypatch.setattr(ex, "experiment_blobs", ran.append)
    monkeypatch.setattr(ex, "experiment_lorenz_equivariance", ran.append)
    cfg = tmp_path / "exp.cfg"
    # a key the experiment reads, then the one it does not
    cfg.write_text(f"[train]\nseed = 4\n[{section}]\n{key} = {value}\n")
    assert main(["experiment", name, str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert f"[{section}] {key}" in capsys.readouterr().err
    assert ran == [] and not (tmp_path / "out").exists()


def test_cli_experiment_bad_value_exits_one(capsys, tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[train]\nepochs = many\n")
    assert main(["experiment", "blobs", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "epochs" in capsys.readouterr().err


def test_cli_experiment_blobs_with_an_empty_train_split_exits_one(capsys, tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[model]\nchannels = 6\n[data]\nsamples_per_class = 1\nsize = 8\n"
                   "[train]\nepochs = 1\n")
    assert main(["experiment", "blobs", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "samples_per_class=1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["blobs", "lorenz"])
def test_cli_experiment_with_zero_epochs_exits_one_before_running(name, capsys, tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[train]\nepochs = 0\n")
    assert main(["experiment", name, str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "epochs=0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cls", [ex.BlobsConfig, ex.LorenzConfig])
@pytest.mark.parametrize("epochs", [0, -3])
def test_experiment_configs_reject_fewer_than_one_epoch(cls, epochs):
    with pytest.raises(ConfigError, match=f"epochs={epochs}"):
        cls(epochs=epochs)


def test_cli_experiment_blobs_reads_early_stop_train_loss(monkeypatch, tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[train]\nearly_stop_train_loss = 0.5\n")
    assert experiment_configs(monkeypatch, tmp_path, ["blobs", str(cfg)]) == [
        ex.BlobsConfig(early_stop_train_loss=0.5)]

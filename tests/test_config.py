"""Config files build the same models and train configs as the library's
own builders and dataclass defaults."""
import pytest

from hxnn import config as C
from hxnn import training as tr
from hxnn.errors import ConfigError


@pytest.mark.parametrize("model, kind", [
    ({"algebra": "real"}, "real"),
    ({"algebra": "phm", "n": "3"}, "phc"),
])
def test_config_convnet_is_the_blobs_classifier(model, kind):
    cfg = {"model": {"kind": "convnet", "channels": "6", **model}, "train": {"seed": "17"}}
    built = C.read_model(cfg)(None, None)
    reference = tr.blobs_classifier(kind, seed=17, channels=6)
    assert [type(l) for l in built.layers] == [type(l) for l in reference.layers]
    assert [p.data.tobytes() for p in built.parameters()] == [
        p.data.tobytes() for p in reference.parameters()]


def test_train_config_defaults_are_the_dataclass_defaults():
    assert C.train_config_from({}) == tr.TrainConfig()


def test_train_config_reads_the_file():
    cfg = {"train": {"seed": "3", "lr": "0.5", "optimizer": "sgd",
                     "early_stop_train_loss": "0.25"}}
    assert C.train_config_from(cfg) == tr.TrainConfig(
        seed=3, lr=0.5, optimizer="sgd", early_stop_train_loss=0.25)


@pytest.mark.parametrize("key, value", [("epochs", "ten"), ("early_stop_train_loss", "low"),
                                        ("optimizer", "adamw")])
def test_bad_train_value_is_a_config_error(key, value):
    with pytest.raises(ConfigError, match=key if key != "optimizer" else "adamw"):
        C.train_config_from({"train": {key: value}})


@pytest.mark.parametrize("dataset, train", [("blobs", {}), ("blobs", {"task": "regression"}),
                                            ("lorenz", {"task": "classification"})])
def test_a_task_the_dataset_does_not_fit_is_a_config_error(dataset, train):
    kind = {"blobs": "convnet", "lorenz": "mlp"}[dataset]  # the model kind the dataset takes
    cfg = {"model": {"kind": kind}, "data": {"dataset": dataset}, "train": train}
    with pytest.raises(ConfigError, match="train.task") as exc:
        C.read_run(cfg)
    assert f"task = {C.DATASET_TASKS[dataset]}" in str(exc.value)

"""Config text with odd values (``nan``, ``-1``, ``""``, ``1,,2``, unknown
names and keys) lets only the package's own errors escape, and makes no
data: through ``parse_config``, through ``read_run``, which builds the
model, and through the experiment key tables into ``LorenzConfig`` and
``BlobsConfig``.

Each text is a working config with one key of ``ALLOWED_KEYS``, and
maybe one more, set or removed; every key gets its own draws, and about
one draw in four gets past the key checks to the build.  Widths stay at
most 64 and ``n`` at most 8, so every model built stays small (a PHM
layer's grids hold n**3 entries).
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hxnn import config as C
from hxnn import errors
from hxnn import experiments as ex
from hxnn import training as tr
from hxnn.algebra import BUILTIN_NAMES
from hxnn.cli import EXPERIMENT_KEYS

# working configs: the console-script checks' PHM mlp and PHC convnet,
# and their blobs and Lorenz experiments
RUNS = [
    {"model": {"algebra": "phm", "n": "2", "hidden": "8"},
     "data": {"dataset": "lorenz", "count": "4", "steps": "200"}, "train": {"epochs": "1"}},
    {"model": {"algebra": "phm", "n": "3", "channels": "6"},
     "data": {"dataset": "blobs", "samples_per_class": "24"}, "train": {"epochs": "1"}},
]
EXPERIMENTS = {
    ex.BlobsConfig: {"model": {"channels": "6"}, "data": {"samples_per_class": "24", "size": "8"},
                     "train": {"epochs": "1"}},
    ex.LorenzConfig: {"data": {"count": "4", "steps": "200"},
                      "train": {"epochs": "1", "num_seeds": "1"}},
}

ints = lambda lo, hi: st.integers(lo, hi).map(str)
ODD = st.sampled_from(["nan", "-1", "", "1,,2", "0", "inf", "-inf", "1e400", "x", "8,16"])
NUMBER = st.one_of(ints(-3, 3), ints(-3, 3000), st.floats().map(repr))
VALUES = {
    "algebra": st.sampled_from([*BUILTIN_NAMES, "phm", "quat"]),
    "dataset": st.sampled_from(["lorenz", "blobs", "mnist"]),
    "activation": st.sampled_from(["relu", "sigmoid", "none", "tanh", "Relu"]),
    "optimizer": st.sampled_from(["adam", "sgd", "adamw"]),
    "n": ints(-1, 8),
    "window": ints(-1, 21),  # 3 * window input features
    "channels": ints(-1, 64),
    "hidden": st.lists(ints(-1, 64), max_size=3).map(",".join),
}
KEYS = [(section, key) for section in C.SECTIONS for key in sorted(C.ALLOWED_KEYS[section])]
# unknown keys, the ones the dataset fixes among them
UNKNOWN = [("train", "epochz"), ("model", "width"), ("optimizer", "lr"), ("model", "kind"),
           ("model", "classes"), ("train", "task")]


def render(cfg):
    return "".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for section, keys in cfg.items())


@st.composite
def config_text(draw, base, first):
    """``base`` as text, with the key ``first`` and maybe one more set to
    a drawn value or removed."""
    cfg = {section: dict(keys) for section, keys in base.items()}
    for section, key in [first] + draw(st.lists(st.sampled_from(KEYS + UNKNOWN), max_size=1)):
        value = draw(st.one_of(st.none(), VALUES.get(key, NUMBER), ODD))
        if value is None:
            cfg.get(section, {}).pop(key, None)
        else:
            cfg.setdefault(section, {})[key] = value
    return render(cfg)


@pytest.fixture(scope="module", autouse=True)
def no_data():
    def made(*args, **kwargs):
        raise AssertionError("data was made")

    with pytest.MonkeyPatch.context() as mp:
        for maker in ("make_rgb_blobs", "linear_probe_accuracy", "lorenz_trajectories"):
            mp.setattr(tr, maker, made)
        yield


def outcome(call):
    """``call()``'s result, or the name of the package error it raised;
    any other error fails the test."""
    try:
        return call()
    except ValueError as exc:  # every package error is a ValueError
        assert type(exc).__module__ == errors.__name__, repr(exc)
        return type(exc).__name__


@pytest.mark.parametrize("key", KEYS, ids=".".join)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_read_run_on_odd_config_text_raises_only_package_errors(key, data):
    text = data.draw(st.sampled_from(RUNS).flatmap(lambda base: config_text(base, key)))
    outcome(lambda: C.read_run(C.parse_config(text)))


@pytest.mark.parametrize("key", KEYS, ids=".".join)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_experiment_configs_on_odd_config_text_raise_only_package_errors(key, data):
    cls = data.draw(st.sampled_from(list(EXPERIMENTS)))
    text = data.draw(config_text(EXPERIMENTS[cls], key))

    def read():
        cfg = C.Reads(C.parse_config(text))
        config = C.dataclass_from(cls, cfg, EXPERIMENT_KEYS[cls])
        cfg.reject_unread("experiment")
        return config

    outcome(read)


@pytest.mark.parametrize("base", RUNS)
def test_the_working_run_configs_build_their_models(base):
    _, _, model = C.read_run(C.parse_config(render(base)))
    assert isinstance(model, tr.Network)


@pytest.mark.parametrize("cls", list(EXPERIMENTS))
def test_the_working_experiment_configs_read(cls):
    cfg = C.parse_config(render(EXPERIMENTS[cls]))
    assert isinstance(C.dataclass_from(cls, cfg, EXPERIMENT_KEYS[cls]), cls)

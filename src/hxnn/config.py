"""Plain-text experiment configs: ``key = value`` lines under [model],
[data], [train] sections, '#' comments, and no silent typo tolerance.
A command reads its file through ``Reads``, which records the keys its
readers look up, and rejects every other key before building anything.
"""
from __future__ import annotations

import dataclasses
from functools import partial

import numpy as np

from .errors import ConfigError
from .algebra import BUILTIN_NAMES, Algebra, builtin
from .layers import _check_divisible
from .phlayers import linear_layer
from . import training as tr

SECTIONS = ("model", "data", "train")

ALLOWED_KEYS = {
    "model": {"kind", "algebra", "n", "hidden", "channels", "classes", "activation"},
    "data": {"dataset", "samples_per_class", "size", "count", "steps", "dt",
             "sample_every", "window", "offsets"},
    "train": {"seed", "epochs", "batch_size", "lr", "optimizer", "beta1", "beta2",
              "eps", "task", "early_stop_train_loss", "num_seeds"},
}


def parse_config(text: str) -> dict:
    """Parse to {section: {key: raw string value}}, validating section
    and key names."""
    out: dict = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in SECTIONS:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            out.setdefault(section, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in ALLOWED_KEYS[section]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{section}]")
        if key in out[section]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[section][key] = value
    return out


def load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


class Reads(dict):
    """A parsed config that records each (section, key) its readers look up."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.read = set()

    def reject_unread(self, reader: str):
        """Raise ``ConfigError`` naming every file key no reader looked up."""
        unread = [f"[{section}] {key}" for section in self for key in self[section]
                  if (section, key) not in self.read]
        if unread:
            raise ConfigError(f"{reader} does not read {', '.join(unread)}")


def _raw(cfg, section, key):
    """The raw string of ``key`` in [section], or None; ``Reads`` records
    the lookup."""
    if isinstance(cfg, Reads):
        cfg.read.add((section, key))
    return cfg.get(section, {}).get(key)


def _get(cfg, section, key, default=None, cast=str):
    value = _raw(cfg, section, key)
    if value is None:
        if default is None:
            raise ConfigError(f"missing required key {key!r} in [{section}]")
        return default
    try:
        return cast(value)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r} in [{section}]: {value!r}") from exc


def _int_list(value: str):
    return [int(v) for v in value.split(",") if v.strip()]


def dataclass_from(cls, cfg: dict, keys: dict, seed=None):
    """The dataclass ``cls`` set from the parsed config file ``cfg``, then
    ``seed`` if given.  ``keys`` maps a field name to its "section.key";
    fields the file leaves out keep the dataclass defaults, and a value
    takes the type of its default (a ``None`` default reads as float)."""
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    values = {}
    for name, path in keys.items():
        section, key = path.split(".")
        raw = _raw(cfg, section, key)
        if raw is None:
            continue
        default = defaults[name]
        try:
            if isinstance(default, tuple):
                values[name] = tuple(type(default[0])(v) for v in raw.split(","))
            else:
                values[name] = (float if default is None else type(default))(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r} in [{section}]: {raw!r}") from exc
    if seed is not None:
        values["seed"] = seed
    return cls(**values)


def train_config_from(cfg: dict) -> tr.TrainConfig:
    keys = {f.name: f"train.{f.name}" for f in dataclasses.fields(tr.TrainConfig)}
    return dataclass_from(tr.TrainConfig, cfg, keys)


def read_dataset(cfg: dict):
    """Read the dataset keys of ``cfg``; returns the function that
    generates the dataset."""
    kind = _get(cfg, "data", "dataset")
    if kind == "blobs":
        return partial(
            tr.make_rgb_blobs,
            _get(cfg, "train", "seed", 0, int),
            samples_per_class=_get(cfg, "data", "samples_per_class", 600, int),
            size=_get(cfg, "data", "size", 16, int),
        )
    if kind == "lorenz":
        return partial(
            _flat_lorenz,
            _get(cfg, "train", "seed", 0, int),
            count=_get(cfg, "data", "count", 12, int),
            steps=_get(cfg, "data", "steps", 1600, int),
            dt=_get(cfg, "data", "dt", 0.01, float),
            sample_every=_get(cfg, "data", "sample_every", 10, int),
            window=_get(cfg, "data", "window", 8, int),
        )
    raise ConfigError(f"unknown dataset {kind!r}")


def _flat_lorenz(seed, **kwargs) -> tr.Dataset:
    """Lorenz windows in the flat supervised view of generic training."""
    ds = tr.lorenz_trajectories(seed, **kwargs)
    return tr.Dataset(tr.encode_windows_flat(ds.inputs), ds.targets, ds.train_idx, ds.test_idx)


def read_model(cfg: dict):
    """Read the model keys of ``cfg``; returns the function of
    (feature_dim, target_dim) that builds the network.  The widths the
    file fixes (a PHM ``n``, the convnet's channels, the mlp's hidden
    widths) go through the layers' own check here, before any data is
    made; the mlp's input width comes from the data, so building checks it."""
    kind = _get(cfg, "model", "kind")
    algebra_name = _get(cfg, "model", "algebra", "real")
    seed = _get(cfg, "train", "seed", 0, int)
    rng = lambda: np.random.Generator(np.random.PCG64(seed))
    activation = _get(cfg, "model", "activation", "relu")
    if algebra_name == "phm":
        family = _get(cfg, "model", "n", 3 if kind == "convnet" else 2, int)
    elif algebra_name in BUILTIN_NAMES:
        family = builtin(algebra_name)
    else:
        raise ConfigError(f"unknown algebra {algebra_name!r}")
    n = family.n if isinstance(family, Algebra) else _check_divisible(family, 1, "model.n")
    if kind == "convnet":
        channels = _get(cfg, "model", "channels", 24, int)
        classes = _get(cfg, "model", "classes", 4, int)
        for what, width in (("image channels", 3), ("model.channels", channels)):
            _check_divisible(width, n, what)
        return lambda feature_dim, target_dim: tr.convnet(family, channels, classes,
                                                          activation, rng())
    if kind == "mlp":
        hidden = _get(cfg, "model", "hidden", [32], _int_list)
        for width in hidden:
            _check_divisible(width, n, "model.hidden")

        def mlp(feature_dim, target_dim):
            if feature_dim is None or target_dim is None:
                raise ConfigError("mlp models need a dataset to size input/output")
            dims, r = [feature_dim] + hidden, rng()
            layers = [linear_layer(family, di, do, activation, rng=r)
                      for di, do in zip(dims[:-1], dims[1:])]
            # real readout so the target width need not divide n
            layers.append(linear_layer(builtin("real"), dims[-1], target_dim, "none", rng=r))
            return tr.Network(layers)

        return mlp
    raise ConfigError(f"unknown model kind {kind!r}")


# The one training task each dataset's targets fit, and the one dataset
# each model kind takes.
DATASET_TASKS = {"blobs": "classification", "lorenz": "regression"}
KIND_DATASETS = {"convnet": "blobs", "mlp": "lorenz"}


def read_run(cfg: dict):
    """Read the config of ``hxnn train`` and ``hxnn eval``: (dataset
    maker, ``TrainConfig``, model builder).  Every key is read before
    anything is built, and a key none of the three reads, a model on
    data it cannot take (not its kind's dataset, or an image size the
    convnet's pools do not tile) or a task the dataset's targets do not
    fit raises ``ConfigError``, so one file serves both commands."""
    reads = Reads(cfg)
    run = read_dataset(reads), train_config_from(reads), read_model(reads)
    reads.reject_unread("train and eval")
    dataset, task, kind = _get(cfg, "data", "dataset"), run[1].task, _get(cfg, "model", "kind")
    if dataset != KIND_DATASETS[kind]:
        raise ConfigError(f"model.kind = {kind} needs dataset = {KIND_DATASETS[kind]}, "
                          f"not {dataset}")
    if kind == "convnet":
        tr.check_convnet_size(run[0].keywords["size"], "data.size")
    if task != DATASET_TASKS[dataset]:
        raise ConfigError(f"train.task = {task} does not fit dataset {dataset}: "
                          f"set task = {DATASET_TASKS[dataset]} in [train]")
    return run

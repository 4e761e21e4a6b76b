"""Plain-text experiment configs: ``key = value`` lines under [model],
[data], [train] sections, '#' comments, and no silent typo tolerance.
Through ``Reads``, a command rejects every key its readers do not look
up, and a run builds its model from the file alone, before any data.
``[data] dataset`` alone picks the run: ``blobs`` trains a convnet to
classify the images, ``lorenz`` an mlp to regress the next state.
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
LORENZ_WINDOW = 8  # the default [data] window, read by the Lorenz data and the mlp

ALLOWED_KEYS = {
    "model": {"algebra", "n", "hidden", "channels", "activation"},
    "data": {"dataset", "samples_per_class", "size", "count", "steps", "dt",
             "sample_every", "window", "offsets"},
    "train": {"seed", "epochs", "batch_size", "lr", "optimizer", "beta1", "beta2",
              "eps", "early_stop_train_loss", "num_seeds"},
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
    """The [train] keys of ``cfg``; the task keeps its default, since the
    dataset fixes it (``read_run``)."""
    keys = {f.name: f"train.{f.name}" for f in dataclasses.fields(tr.TrainConfig)
            if f.name in ALLOWED_KEYS["train"]}
    return dataclass_from(tr.TrainConfig, cfg, keys)


def _is_blobs(cfg: dict) -> bool:
    """Whether ``[data] dataset`` is blobs; the only other one is lorenz."""
    dataset = _get(cfg, "data", "dataset")
    if dataset not in ("blobs", "lorenz"):
        raise ConfigError(f"unknown dataset {dataset!r}")
    return dataset == "blobs"


def read_dataset(cfg: dict):
    """Read the dataset keys of ``cfg``; returns the function that
    generates the dataset.  A blobs image size must be one the convnet's
    pools tile."""
    blobs, seed = _is_blobs(cfg), train_config_from(cfg).seed
    if blobs:
        size = _get(cfg, "data", "size", 16, int)
        tr.check_convnet_size(size, "data.size")
        return partial(tr.make_rgb_blobs, seed,
                       samples_per_class=_get(cfg, "data", "samples_per_class", 600, int),
                       size=size)
    return partial(_flat_lorenz, seed,
                   count=_get(cfg, "data", "count", 12, int),
                   steps=_get(cfg, "data", "steps", 1600, int),
                   dt=_get(cfg, "data", "dt", 0.01, float),
                   sample_every=_get(cfg, "data", "sample_every", 10, int),
                   window=_get(cfg, "data", "window", LORENZ_WINDOW, int))


def _flat_lorenz(seed, **kwargs) -> tr.Dataset:
    """Lorenz windows in the flat supervised view of generic training."""
    ds = tr.lorenz_trajectories(seed, **kwargs)
    return tr.Dataset(tr.encode_windows_flat(ds.inputs), ds.targets, ds.train_idx, ds.test_idx)


def read_model(cfg: dict):
    """Read the model keys of ``cfg``; returns the function of no
    arguments that builds the network the dataset takes: a convnet
    classifying the blobs images, or an mlp regressing the next state
    from ``_flat_lorenz``'s windows.  The widths (a PHM ``n``, the
    convnet's channels, the mlp's input and hidden widths) go through the
    layers' own check here, named by their keys, before any data is made."""
    blobs, seed = _is_blobs(cfg), train_config_from(cfg).seed
    algebra_name = _get(cfg, "model", "algebra", "real")
    rng = lambda: np.random.Generator(np.random.PCG64(seed))
    activation = _get(cfg, "model", "activation", "relu")
    if algebra_name == "phm":
        family = _get(cfg, "model", "n", 3 if blobs else 2, int)
    elif algebra_name in BUILTIN_NAMES:
        family = builtin(algebra_name)
    else:
        raise ConfigError(f"unknown algebra {algebra_name!r}")
    n = family.n if isinstance(family, Algebra) else _check_divisible(family, 1, "model.n")
    if blobs:
        channels = _get(cfg, "model", "channels", 24, int)
        for what, width in (("image channels", 3), ("model.channels", channels)):
            _check_divisible(width, n, what)
        return lambda: tr.convnet(family, channels, activation, rng())
    window = _get(cfg, "data", "window", LORENZ_WINDOW, int)
    dims = [3 * window] + _get(cfg, "model", "hidden", [32], _int_list)
    _check_divisible(dims[0], n, f"mlp input width (3 * data.window={window})")
    for width in dims[1:]:
        _check_divisible(width, n, "model.hidden")

    def mlp():
        r = rng()
        layers = [linear_layer(family, di, do, activation, rng=r)
                  for di, do in zip(dims[:-1], dims[1:])]
        # real readout so the 3 Lorenz coordinates need not divide n
        layers.append(linear_layer(builtin("real"), dims[-1], 3, "none", rng=r))
        return tr.Network(layers)

    return mlp


def read_run(cfg: dict):
    """Read the config of ``hxnn train`` and ``hxnn eval`` (one file serves
    both): (dataset maker, ``TrainConfig``, model), the model built last.
    The dataset fixes the task: classification on blobs, regression on
    lorenz.  Before the build, a key none of the three reads is a
    ``ConfigError``."""
    reads = Reads(cfg)
    make_dataset, tcfg, build = read_dataset(reads), train_config_from(reads), read_model(reads)
    reads.reject_unread("train and eval")
    task = "classification" if _is_blobs(cfg) else "regression"
    return make_dataset, dataclasses.replace(tcfg, task=task), build()

"""The two desk-scale experiments and the parameter-count table.

Both experiments are deterministic functions of their config dataclass:
rerunning with the same config reproduces the CSV output byte for byte.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import geometry as G
from . import tensor as T
from . import training as tr
from .algebra import builtin
from .errors import ConfigError, DivisibilityError
from .layers import Graph, HAttBlock, HConv2DLayer, HFCLayer, HGraphConvLayer, _check_divisible
from .phlayers import (PHAttBlock, PHCLayer, PHGraphLayer, PHMLayer, conv_layer, grid_owners,
                       linear_layer)


def _fmt(v):
    if isinstance(v, float):
        return repr(v)
    return str(v)


def to_csv(header, rows) -> str:
    """Comma-separated, '.' decimal, LF line endings, repr'd floats."""
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


class _Epochs:  # base of the experiment configs: a run trains at least one epoch
    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs={self.epochs}: an experiment trains at least one epoch")


# -----------------------------------------------------------------------------
# parameter-count table


def experiment_param_table(specs) -> list[tuple]:
    """Weight-only free/dense counts for algebra-bound and parameterized
    variants of the same shapes.

    Each spec is "fc:<d>:<s>" or "conv:<in>:<out>:<k>"; variants whose
    divisibility constraint fails are skipped.
    """
    rows = []
    for spec in specs:
        kind, *sizes = spec.split(":")
        if len(sizes) != {"fc": 2, "conv": 3}.get(kind) or not all(v.isdecimal() for v in sizes):
            raise ConfigError(f"bad layer spec {spec!r} (want fc:d:s or conv:in:out:k)")
        sizes = [int(v) for v in sizes]
        if kind == "fc":
            names, prefix = ("real", "complex", "quaternion", "octonion"), "phm"
            build = lambda family: linear_layer(family, *sizes, "none", bias=False)
        else:
            names, prefix = ("real", "quaternion"), "phc"
            build = lambda family: conv_layer(family, *sizes, 0, "none", bias=False)
        variants = [(name, builtin(name)) for name in names]
        variants += [(f"{prefix}_n{n}", n) for n in (2, 3, 4, 8)]
        for name, family in variants:
            try:
                free, dense = build(family).param_count()
            except DivisibilityError:
                continue
            rows.append((spec, name, free, dense, free / dense))
    return rows


def param_table_csv(rows) -> str:
    return to_csv(("spec", "model", "free_weights", "dense_weights", "ratio"), rows)


# -----------------------------------------------------------------------------
# finite-difference verification of every layer type


def gradcheck_all(seed=0xC0FFEE):
    """Max relative error of analytic vs central-difference gradients for
    one small instance of every layer type, at a generic point (grid
    matrices and biases jittered off the relu kinks)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    q = builtin("quaternion")

    def smooth(layer):
        for sub in grid_owners(layer):
            sub.a.data[...] = rng.standard_normal(sub.a.data.shape)
            if sub.bias is not None:
                sub.bias.data[...] = 0.1 * rng.standard_normal(sub.bias.data.shape)
        return layer

    graph = Graph(3, [(0, 1), (1, 2)], rng.standard_normal((3, 4)))
    x2 = T.Tensor(rng.standard_normal((3, 4)))
    x4 = T.Tensor(rng.standard_normal((1, 4, 3, 3)))
    x3 = T.Tensor(rng.standard_normal((1, 3, 4)))
    cases = [
        ("hfc", HFCLayer(q, 4, 4, rng=rng), lambda l: l(x2)),
        ("hconv2d", HConv2DLayer(q, 4, 4, 2, padding=1, rng=rng), lambda l: l(x4)),
        ("hatt", HAttBlock(q, 4, kernel=3, rng=rng), lambda l: l(x4)),
        ("hgraph", HGraphConvLayer(q, 4, 4, rng=rng), lambda l: l.forward_graph(graph)),
        ("phm", smooth(PHMLayer(2, 4, 4, activation="relu", rng=rng)), lambda l: l(x2)),
        ("phc", smooth(PHCLayer(2, 4, 4, 2, padding=1, activation="relu", rng=rng)),
         lambda l: l(x4)),
        ("phatt", smooth(PHAttBlock(2, 4, rng=rng)), lambda l: l(x3)),
        ("phgraph", smooth(PHGraphLayer(2, 4, 4, rng=rng)), lambda l: l.forward_graph(graph)),
    ]
    results = []
    for name, layer, fwd in cases:
        probe = T.Tensor(rng.standard_normal(fwd(layer).data.shape))
        loss = lambda: T.sum_(T.mul(fwd(layer), probe))
        worst = 0.0
        for p in layer.parameters():
            worst = max(worst, T.grad_check(lambda _: loss(), p))
        results.append((name, worst))
    return results


# -----------------------------------------------------------------------------
# RGB texture classification (parameter-reduction demonstration)


@dataclass(frozen=True)  # so the TrainConfig built from its fields stays theirs
class BlobsConfig(_Epochs):
    seed: int = 42
    samples_per_class: int = 600
    image_size: int = 16
    channels: int = 24
    epochs: int = 20
    batch_size: int = 64
    lr: float = 3e-3
    early_stop_train_loss: float = 0.02

    def __post_init__(self):  # before any data is made: the convnet pools twice by 2x2
        super().__post_init__()
        tr.check_convnet_size(self.image_size, "image_size")
        _check_divisible(self.channels, tr.BLOBS_FAMILIES["phc"], "channels")  # real's n is 1
        object.__setattr__(self, "train", tr.TrainConfig(
            seed=self.seed, epochs=self.epochs, batch_size=self.batch_size, lr=self.lr,
            task="classification", early_stop_train_loss=self.early_stop_train_loss))


@dataclass
class BlobsReport:
    probe_accuracy: float
    results: dict  # kind -> dict(test_accuracy, epochs_run, conv_weights, free, dense)
    curves: list   # (model, epoch, train_loss, test_accuracy)

    @property
    def csv(self) -> str:
        return to_csv(("model", "epoch", "train_loss", "test_accuracy"), self.curves)

    @property
    def summary(self) -> str:
        lines = [f"linear probe accuracy: {self.probe_accuracy}"]
        for kind, r in self.results.items():
            lines.append(
                f"{kind}: test_accuracy={r['test_accuracy']} "
                f"epochs={r['epochs_run']} conv_weights={r['conv_weights']} "
                f"free_params={r['free']} dense_params={r['dense']}"
            )
        pr = self.results["phc"]["conv_weights"] / self.results["real"]["conv_weights"]
        lines.append(f"phc/real conv weight ratio: {pr}")
        return "\n".join(lines) + "\n"


def experiment_blobs(config: BlobsConfig = BlobsConfig()) -> BlobsReport:
    """Train the n=3 parameterized conv net and its dense twin on the
    synthetic striped-texture task."""
    ds = tr.make_rgb_blobs(config.seed, samples_per_class=config.samples_per_class,
                           size=config.image_size)
    probe = tr.linear_probe_accuracy(ds)
    results, curves = {}, []
    for kind in ("phc", "real"):
        net = tr.blobs_classifier(kind, seed=config.seed, channels=config.channels)
        metrics = tr.train(net, ds, config.train)
        free, dense = net.param_count()
        results[kind] = {
            "test_accuracy": metrics.scores[-1],
            "epochs_run": len(metrics.losses),
            "conv_weights": tr.conv_weight_count(net),
            "free": free,
            "dense": dense,
        }
        curves += [(kind, e + 1, loss, score)
                   for e, (loss, score) in enumerate(zip(metrics.losses, metrics.scores))]
    return BlobsReport(probe, results, curves)


# -----------------------------------------------------------------------------
# Lorenz forecasting (translation-equivariance demonstration)


@dataclass(frozen=True)  # so the TrainConfig built from its fields stays theirs
class LorenzConfig(_Epochs):
    seed: int = 0
    num_seeds: int = 5
    trajectories: int = 12
    steps: int = 1600
    dt: float = 0.01
    sample_every: int = 10
    window: int = 8
    epochs: int = 400
    batch_size: int = 128
    lr: float = 5e-3
    offsets: tuple = (1.0, 5.0, 10.0)
    models: tuple = ("real", "quaternion", "phm", "dual_quaternion")

    def __post_init__(self):  # reject a run that would report nothing or fail after training
        super().__post_init__()
        if self.num_seeds < 1:
            raise ConfigError(f"num_seeds={self.num_seeds}: an experiment runs at least one seed")
        kinds = tuple(tr.LORENZ_FORECASTERS)
        if not self.models or not set(self.models) <= set(kinds):
            raise ConfigError(f"models={self.models!r}: expected one or more of {kinds}")
        for model in self.models:  # each forecaster reads window minus the steps it drops
            if self.window - tr.LORENZ_FORECASTERS[model][2] < 1:
                raise ConfigError(f"window={self.window}: too short for model {model!r}")
        if not self.offsets or not np.isfinite(np.asarray(self.offsets, dtype=float)).all():
            raise ConfigError(f"offsets={self.offsets!r}: expected one or more finite offsets")
        object.__setattr__(self, "train", tr.TrainConfig(
            seed=self.seed, epochs=self.epochs, batch_size=self.batch_size, lr=self.lr,
            task="regression"))


@dataclass
class LorenzReport:
    rows: list  # (seed, model, free_params, offset, mse_base, mse_translated, ratio)

    @property
    def csv(self) -> str:
        return to_csv(
            ("seed", "model", "free_params", "offset", "mse_base", "mse_translated", "ratio"),
            self.rows,
        )

    def ratios(self, model, offset) -> list[float]:
        return [r[6] for r in self.rows if r[1] == model and r[3] == offset]

    @property
    def summary(self) -> str:
        lines = ["translated/untranslated MSE ratio by model (per seed):"]
        offsets = sorted({r[3] for r in self.rows})
        models = list(dict.fromkeys(r[1] for r in self.rows))
        for model in models:
            for off in offsets:
                vals = ", ".join(repr(v) for v in self.ratios(model, off))
                lines.append(f"  {model} offset={off}: {vals}")
        return "\n".join(lines) + "\n"


def experiment_lorenz_equivariance(config: LorenzConfig = LorenzConfig()) -> LorenzReport:
    """Train matched-capacity forecasters on chaotic trajectories and
    measure how a constant coordinate offset on the test set degrades
    each one."""
    report = LorenzReport(rows=[])
    for k in range(config.num_seeds):
        seed = config.seed + k
        cfg = replace(config.train, seed=seed)
        ds = tr.lorenz_trajectories(seed, count=config.trajectories, steps=config.steps,
                                    dt=config.dt, sample_every=config.sample_every,
                                    window=config.window)
        for kind in config.models:
            f = tr.lorenz_forecaster(kind, seed=seed, window=config.window)
            enc = tr.Dataset(f.features(ds.inputs),
                             f.train_targets(ds.inputs, ds.targets),
                             ds.train_idx, ds.test_idx)
            tr.train(f.net, enc, cfg)
            free, _ = f.net.param_count()
            rows = G.equivariance_report(f.predict, "translation",
                                         ds.test_inputs, ds.test_targets,
                                         list(config.offsets))
            for row in rows:
                report.rows.append((seed, kind, free, row.magnitude,
                                    row.mse_base, row.mse_transformed, row.ratio))
    return report

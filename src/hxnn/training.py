"""Optimizers, losses, dataset generators, and the training loop.

Everything is seeded through explicit numpy Generators: the same config
and seed reproduce the same trajectory bit for bit.

``mse`` and ``cross_entropy`` are one graph node each (see
:mod:`hxnn.tensor` for why the hot chains are fused).  The Adam state
owns the parameter storage: ``adam_step``'s first call packs every
parameter into one buffer and rebinds each ``p.data`` to its view, so
later steps update all parameters in one pass.  ``train``
raises ``TrainingDiverged`` when an epoch's mean loss is not finite or
exceeds ``DIVERGENCE_FACTOR`` times the first epoch's.
``lorenz_trajectories`` integrates one trajectory at a time in Python
floats, at a cost linear in their count, and the dual-quaternion
encoder turns all windows at once through the array geometry of
:mod:`hxnn.geometry`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry as G
from . import tensor as T
from .algebra import builtin
from .errors import ConfigError, NormalizationError, ShapeError, TrainingDiverged
from .layers import HFCLayer, KronConv2D, Layer
from .phlayers import conv_layer, linear_layer

LORENZ_SIGMA, LORENZ_RHO, LORENZ_BETA = 10.0, 28.0, 8.0 / 3.0
BLOBS_FAMILIES = {"phc": 3, "real": builtin("real")}  # blobs_classifier's convs by kind

# An epoch loss above this multiple of epoch 1's has diverged; the
# ``TrainingDiverged`` docstring gives the measurements behind it.
DIVERGENCE_FACTOR = 1e3


# -----------------------------------------------------------------------------
# configs, datasets, metrics


@dataclass
class TrainConfig:
    seed: int = 0
    epochs: int = 10
    batch_size: int = 64
    lr: float = 1e-3
    optimizer: str = "adam"  # or "sgd"
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    task: str = "regression"  # or "classification"
    early_stop_train_loss: float | None = None

    def __post_init__(self):
        if self.optimizer not in ("adam", "sgd"):
            raise ConfigError(f"optimizer {self.optimizer!r}: expected 'adam' or 'sgd'")
        if self.task not in ("regression", "classification"):
            raise ConfigError(f"task {self.task!r}: expected 'regression' or 'classification'")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size={self.batch_size}: must be at least 1")
        if self.epochs < 0:
            raise ConfigError(f"epochs={self.epochs}: must not be negative")
        for key, value in (("lr", self.lr), ("eps", self.eps)):
            if not (value > 0 and math.isfinite(value)):
                raise ConfigError(f"{key}={value!r}: must be a finite positive number")
        for key, value in (("beta1", self.beta1), ("beta2", self.beta2)):
            if not 0 <= value < 1:  # NaN fails too
                raise ConfigError(f"{key}={value!r}: must be in [0, 1)")
        if self.early_stop_train_loss is not None and math.isnan(self.early_stop_train_loss):
            raise ConfigError("early_stop_train_loss=nan: no loss is below it, so it never stops")


@dataclass
class Dataset:
    inputs: np.ndarray
    targets: np.ndarray
    train_idx: np.ndarray
    test_idx: np.ndarray

    def __post_init__(self):
        self.train_idx = np.asarray(self.train_idx, dtype=np.intp)
        self.test_idx = np.asarray(self.test_idx, dtype=np.intp)
        if np.intersect1d(self.train_idx, self.test_idx).size:
            raise ConfigError("train/test splits overlap")

    @property
    def train_inputs(self):
        return self.inputs[self.train_idx]

    @property
    def train_targets(self):
        return self.targets[self.train_idx]

    @property
    def test_inputs(self):
        return self.inputs[self.test_idx]

    @property
    def test_targets(self):
        return self.targets[self.test_idx]


@dataclass
class Metrics:
    losses: list = field(default_factory=list)
    scores: list = field(default_factory=list)  # test accuracy or test MSE per epoch


# -----------------------------------------------------------------------------
# optimizers


def sgd_step(params, lr):
    for p in params:
        if p.grad is not None:
            p.data -= lr * p.grad


def adam_step(params, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One bias-corrected Adam update of every parameter in one pass.

    The first call, with an empty ``state``, packs the parameters into
    one float64 buffer: each value is copied in and ``p.data`` is rebound
    to its view, so from then on the state owns the parameter storage.
    The moments (``state["m"]``, ``state["v"]``, per-parameter views) and
    a gradient buffer share that allocation.  Each step gathers the
    gradients (``None`` reads as zero) and applies the textbook update
    once to the whole buffer, with the operands in the textbook order, so
    the results are bit-identical to updating each tensor on its own.
    A parameter whose ``data`` no longer is its packed view raises
    ``ConfigError`` rather than have the update miss it.
    """
    if not state:
        _pack(params, state)
    if len(params) != len(state["data"]):
        raise ConfigError(f"adam_step: {len(params)} parameters, state holds {len(state['data'])}")
    for p, view, grad in zip(params, state["data"], state["g"]):
        if p.data is not view:
            raise ConfigError(f"adam_step: parameter of shape {p.data.shape} is not "
                              "the view packed on the first step (was .data rebound?)")
        grad[...] = p.grad if p.grad is not None else 0.0
    data, m, v, g = state["buffer"]
    state["t"] += 1
    t = state["t"]
    m *= beta1
    m += (1 - beta1) * g
    v *= beta2
    v += (1 - beta2) * g * g
    data -= lr * (m / (1 - beta1**t)) / (np.sqrt(v / (1 - beta2**t)) + eps)
    return state


def _pack(params, state):
    """Move ``params`` into one (4, total) buffer of values, first and
    second moments and gradients, and rebind each ``p.data`` to its view."""
    if len({id(p) for p in params}) != len(params):
        raise ConfigError("adam_step: a parameter is listed more than once")
    bounds = np.cumsum([0] + [p.data.size for p in params])
    buffer = np.zeros((4, bounds[-1]))
    data, m, v, g = (
        [row[a:b].reshape(p.data.shape) for a, b, p in zip(bounds, bounds[1:], params)]
        for row in buffer
    )
    for p, view in zip(params, data):
        view[...] = p.data
        p.data = view
    state.update(t=0, buffer=buffer, data=data, m=m, v=v, g=g)


def zero_grads(params):
    for p in params:
        p.grad = None


# -----------------------------------------------------------------------------
# losses


def mse(pred: T.Tensor, target) -> T.Tensor:
    """Mean squared error, one node.  It performs the numpy operations of
    the chain mean((pred - target)^2) in the same order, so value and
    gradients are the same to the bit; a target that requires grad gets
    the negated prediction gradient, any other target None."""
    tgt = target if isinstance(target, T.Tensor) else T.Tensor(target)
    if pred.data.shape != tgt.data.shape:
        raise ShapeError(f"mse: shapes {pred.data.shape} and {tgt.data.shape}")
    if pred.data.size == 0:
        raise ShapeError(f"mse: empty batch of shape {pred.data.shape}")
    diff = pred.data + -tgt.data
    axes = tuple(range(diff.ndim))
    alpha = 1.0 / diff.size

    def vjp(g):
        half = (alpha * g) * diff
        gpred = half + half
        return gpred, (-gpred if tgt.requires_grad else None)

    return T._node(alpha * (diff * diff).sum(axis=axes), (pred, tgt), vjp)


def cross_entropy(logits: T.Tensor, labels) -> T.Tensor:
    """Mean negative log-likelihood from a stable log-softmax, one node.
    It performs the numpy operations of the chain it replaced (shift by
    the row max, exp, row sum, log, one-hot pick, two means) in the same
    order, so value and gradient are the same to the bit."""
    labels = np.asarray(labels)
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy: logits of shape {logits.data.shape}, "
                         "want (batch, classes)")
    b, c = logits.data.shape
    if labels.shape != (b,):
        raise ShapeError(f"cross_entropy: {b} logit rows but labels {labels.shape}")
    if labels.dtype.kind not in "iu":
        raise ShapeError(f"cross_entropy: labels must be integers, got {labels.dtype}")
    if b == 0:
        raise ShapeError("cross_entropy: empty batch")
    if not 0 <= labels.min() <= labels.max() < c:
        raise ShapeError(f"cross_entropy: labels {labels.min()}..{labels.max()} "
                         f"are not all in [0, {c})")
    z = logits.data + -logits.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    total = e.sum(axis=1)
    onehot = np.zeros((b, c))
    onehot[np.arange(b), labels] = 1.0
    picked = (z * onehot).sum(axis=(0, 1))
    loss = (1.0 / b) * np.log(total).sum(axis=(0,)) + (-1.0 / b) * picked

    def vjp(g):
        g_total = ((1.0 / b) * g) / total
        return (g_total[:, None] * e + ((-1.0 / b) * g) * onehot,)

    return T._node(loss, (logits,), vjp)


# -----------------------------------------------------------------------------
# dataset generators


def make_rgb_blobs(seed, classes=4, samples_per_class=600, size=16,
                   noise=0.3, period=4, train_fraction=5 / 6):
    """Synthetic 3-channel texture classification.

    Class c puts square-wave stripes (random phase, random amplitude)
    into one channel with one orientation: (channel, orientation) =
    (c % 2, c // 2).  Random phases make orientation invisible to any
    linear pixel model, while channel means still separate the channel
    pairs, so a linear probe lands near 50%.
    """
    if classes != 4:
        raise ConfigError("the stripe construction defines exactly 4 classes")
    if size < 1:
        raise ConfigError(f"size={size}: an image is at least one pixel wide")
    per_train = int(samples_per_class * train_fraction)
    if not 0 < per_train < samples_per_class:
        raise ConfigError(f"samples_per_class={samples_per_class} gives {per_train} train and "
                          f"{samples_per_class - per_train} test samples per class (need 1 each)")
    rng = np.random.Generator(np.random.PCG64(seed))
    n = classes * samples_per_class
    images = rng.normal(0.0, noise, size=(n, 3, size, size))
    labels = np.repeat(np.arange(classes), samples_per_class)
    coords = np.arange(size)
    for idx in range(n):
        c = labels[idx]
        channel, orientation = c % 2, c // 2
        phase = rng.integers(0, period)
        amp = rng.uniform(0.8, 1.2)
        wave = (((coords + phase) % period) < period // 2).astype(np.float64)
        stripes = np.tile(wave, (size, 1)) if orientation == 0 else np.tile(wave[:, None], (1, size))
        images[idx, channel] += amp * stripes
    train_idx, test_idx = [], []
    for c in range(classes):
        base = c * samples_per_class
        train_idx.extend(range(base, base + per_train))
        test_idx.extend(range(base + per_train, base + samples_per_class))
    return Dataset(images, labels, np.array(train_idx), np.array(test_idx))


def lorenz_trajectories(seed, count, steps, dt=0.01, sample_every=10,
                        window=8, burn_in=500, test_fraction=0.25):
    """Sliding windows over chaotic trajectories: ``window`` past points
    map to the next point.  Windows are spaced ``sample_every`` solver
    steps apart; train and test windows come from disjoint trajectories.
    Each trajectory integrates alone in Python floats, by RK4 written out
    per component with the IEEE operations of RK4 on state arrays in their
    order, so to the bit.  The cost is linear in ``count``: faster than a
    (3, count) state array up to about 40 trajectories, slower beyond.
    A ``dt`` whose states leave the finite range raises ``ConfigError``.
    """
    if dt <= 0 or sample_every < 1 or window < 1:
        raise ConfigError(f"need dt > 0, sample_every >= 1 and window >= 1, "
                          f"got {dt}, {sample_every}, {window}")
    samples = len(range(0, steps, sample_every))
    n_test_traj = max(1, int(round(count * test_fraction)))
    if samples <= window or n_test_traj >= count:
        raise ConfigError(f"steps={steps}, count={count} give {samples} samples per trajectory "
                          f"(need {window + 1}) and {count - n_test_traj} to train on (need 1)")
    rng = np.random.Generator(np.random.PCG64(seed))
    initial = rng.uniform(-12.0, 12.0, size=(count, 3)) + np.array([0.0, 0.0, 24.0])
    sig, rho, beta, h, d6 = LORENZ_SIGMA, LORENZ_RHO, LORENZ_BETA, 0.5 * dt, dt / 6.0
    kept, points = range(0, steps, sample_every), []  # points trajectory-major
    for x, y, z in initial.tolist():
        for i in range(-max(burn_in, 0), steps):  # burn-in steps count up to -1
            k1x, k1y, k1z = sig * (y - x), x * (rho - z) - y, x * y - beta * z
            ax, ay, az = x + h * k1x, y + h * k1y, z + h * k1z
            k2x, k2y, k2z = sig * (ay - ax), ax * (rho - az) - ay, ax * ay - beta * az
            ax, ay, az = x + h * k2x, y + h * k2y, z + h * k2z
            k3x, k3y, k3z = sig * (ay - ax), ax * (rho - az) - ay, ax * ay - beta * az
            ax, ay, az = x + dt * k3x, y + dt * k3y, z + dt * k3z
            k4x, k4y, k4z = sig * (ay - ax), ax * (rho - az) - ay, ax * ay - beta * az
            x, y, z = (x + d6 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x),
                       y + d6 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y),
                       z + d6 * (k1z + 2.0 * k2z + 2.0 * k3z + k4z))
            if i in kept:
                points.append((x, y, z))
        if not np.isfinite((x, y, z)).all():  # x + d6 * (...) stays non-finite once x is
            raise ConfigError(f"dt={dt}: the integrated trajectories leave the finite range")
    points = np.array(points)
    starts = (np.arange(count)[:, None] * samples + np.arange(samples - window)).ravel()
    inputs = points[starts[:, None] + np.arange(window)]
    targets = points[starts + window]
    test_mask = starts // samples >= count - n_test_traj  # test trajectories come last
    return Dataset(inputs, targets,
                   np.flatnonzero(~test_mask), np.flatnonzero(test_mask))


# -----------------------------------------------------------------------------
# model containers


class Network(Layer):
    def __init__(self, layers):
        self.layers = self.sublayers = list(layers)

    def forward(self, x):
        for layer in self.layers:
            x = layer(x)
        return x


class AvgPool(Layer):
    def __init__(self, window=2):
        if window < 1:
            raise ConfigError(f"window={window} must be at least 1")
        self.window = window

    def forward(self, x):
        return T.avg_pool2d(x, self.window)


class GlobalAvgPool(Layer):
    def forward(self, x):
        return T.mean(x, axis=(2, 3))


class Narrow(Layer):
    """Keep a contiguous slice of axis 1 (e.g. decode model outputs)."""

    def __init__(self, start, length):
        if start < 0 or length < 1:
            raise ConfigError(f"narrow start={start}, length={length}: start must not be "
                              "negative and length must be at least 1")
        self.start, self.length = start, length

    def forward(self, x):
        return T.narrow(x, 1, self.start, self.length)


# -----------------------------------------------------------------------------
# training loop


def _infer(model, inputs, batch_size) -> np.ndarray:
    """``model``'s outputs on ``inputs``, forwarded in batches of
    ``batch_size`` rows without recording a graph."""
    if len(inputs) == 0:
        raise ShapeError("no input rows to run the model on")
    with T.no_grad():
        return np.concatenate([model(T.Tensor(inputs[start : start + batch_size])).data
                               for start in range(0, len(inputs), batch_size)])


def evaluate(model, inputs, targets, task, batch_size=256) -> float:
    """Test metric: accuracy for classification, MSE for regression."""
    pred = _infer(model, inputs, batch_size)
    if task == "classification":
        return float(np.mean(pred.argmax(axis=1) == np.asarray(targets)))
    return float(np.mean((pred - targets) ** 2))


def train(model, dataset: Dataset, config: TrainConfig) -> Metrics:
    rng = np.random.Generator(np.random.PCG64(config.seed))
    params = model.parameters()
    state = {}
    loss_fn = cross_entropy if config.task == "classification" else mse
    metrics = Metrics()
    xs, ys = dataset.train_inputs, dataset.train_targets
    if config.epochs and len(xs) == 0:
        raise ShapeError("the training split is empty")
    if config.epochs and len(dataset.test_idx) == 0:
        raise ShapeError("the test split is empty")
    for epoch in range(1, config.epochs + 1):
        total, count = 0.0, 0
        order = rng.permutation(len(xs))
        for start in range(0, len(xs), config.batch_size):
            idx = order[start : start + config.batch_size]
            zero_grads(params)
            out = model(T.Tensor(xs[idx]))
            loss = loss_fn(out, ys[idx])
            T.backward(loss)
            if config.optimizer == "sgd":
                sgd_step(params, config.lr)
            elif config.optimizer == "adam":
                adam_step(params, state, config.lr, config.beta1, config.beta2, config.eps)
            else:
                raise ConfigError(f"unknown optimizer {config.optimizer!r}")
            total += loss.item() * len(idx)
            count += len(idx)
        metrics.losses.append(total / count)
        mean = metrics.losses[-1]
        if not np.isfinite(mean) or mean > DIVERGENCE_FACTOR * metrics.losses[0]:
            raise TrainingDiverged(epoch, mean)
        metrics.scores.append(
            evaluate(model, dataset.test_inputs, dataset.test_targets, config.task)
        )
        if (config.early_stop_train_loss is not None
                and metrics.losses[-1] < config.early_stop_train_loss):
            break
    return metrics


def linear_probe_accuracy(dataset: Dataset, ridge=1e-3) -> float:
    """Closed-form one-hot ridge regression on raw pixels; the floor any
    nonlinear model must clear to demonstrate it learned structure."""
    xs = dataset.train_inputs.reshape(len(dataset.train_idx), -1)
    ys = np.asarray(dataset.train_targets)
    classes = int(ys.max()) + 1
    onehot = np.eye(classes)[ys]
    xs1 = np.hstack([xs, np.ones((len(xs), 1))])
    w = np.linalg.solve(xs1.T @ xs1 + ridge * np.eye(xs1.shape[1]), xs1.T @ onehot)
    xt = dataset.test_inputs.reshape(len(dataset.test_idx), -1)
    pred = np.hstack([xt, np.ones((len(xt), 1))]) @ w
    return float(np.mean(pred.argmax(axis=1) == dataset.test_targets))


# -----------------------------------------------------------------------------
# model builders


def check_convnet_size(size, what):
    """Raise ``ConfigError`` unless ``size``, named ``what``, is a
    positive multiple of 4: the side of the images ``convnet``'s two 2x2
    pools can tile."""
    if size < 1 or size % 4:
        raise ConfigError(f"{what}={size}: the convnet needs a positive multiple of 4")


def convnet(family, channels, classes, activation, rng) -> Network:
    """Three 3x3 conv stages over ``family`` (see ``phlayers.conv_layer``)
    + pooled real linear head on 3-channel images."""
    conv = lambda ci, co: conv_layer(family, ci, co, 3, 1, activation, rng=rng)
    return Network([
        conv(3, channels),
        AvgPool(2),
        conv(channels, channels),
        AvgPool(2),
        conv(channels, channels),
        GlobalAvgPool(),
        HFCLayer(builtin("real"), channels, classes, activation="none", rng=rng),
    ])


def blobs_classifier(kind, seed, channels=24, classes=4):
    """The relu ``convnet``: ``kind`` is "phc" (n=3 parameterized convs)
    or "real" (dense convs of the same architecture)."""
    if kind not in BLOBS_FAMILIES:
        raise ConfigError(f"unknown classifier kind {kind!r}")
    return convnet(BLOBS_FAMILIES[kind], channels, classes, "relu",
                   np.random.Generator(np.random.PCG64(seed)))


def conv_weight_count(net: Network) -> int:
    """Free weight parameters of the convolutional layers (bias excluded)."""
    return sum(p.data.size for layer in net.layers if isinstance(layer, KronConv2D)
               for p in layer.parameters() if p is not layer.bias)


# --- Lorenz forecasters ------------------------------------------------------


def _component_major(vectors: np.ndarray) -> np.ndarray:
    """(N, count, dims) feature tensor -> (N, dims*count) laid out
    component-major, as the algebra-bound layers expect."""
    count, dims = vectors.shape[1:]
    return np.swapaxes(vectors, 1, 2).reshape(len(vectors), dims * count)


def encode_windows_flat(windows: np.ndarray) -> np.ndarray:
    return windows.reshape(len(windows), math.prod(windows.shape[1:]))


def encode_windows_pure_quaternion(windows: np.ndarray) -> np.ndarray:
    """Zero-pad each 3-point into a pure quaternion (0, x, y, z)."""
    return _component_major(G.pure_quaternions(windows))


def _rotation_between(u, v):
    """(m, 4) unit quaternions turning each direction u[r] into v[r]."""
    w = 1.0 + G.dot_rows(u, v)
    q = np.concatenate([w[:, None], np.cross(u, v)], axis=1)
    anti = w < 1e-12  # antiparallel: half-turn about any perpendicular axis
    axis = np.cross(u[anti], [1.0, 0.0, 0.0])
    along_x = np.sqrt(G.dot_rows(axis, axis)) < 1e-12
    axis[along_x] = np.cross(u[anti][along_x], [0.0, 1.0, 0.0])
    q[anti] = G.pure_quaternions(axis)
    return G.unit_quaternions(q)


def encode_windows_dual_quaternion(windows: np.ndarray) -> np.ndarray:
    """Per-step rigid motions as unit dual quaternions.

    Each of the window's w-1 steps contributes the rotation between
    consecutive direction vectors plus the step displacement.  Only
    displacements enter, so the encoding is translation-invariant and
    predictions built on it are translation-equivariant by construction.
    A step that moves turns from the window's last earlier moving step;
    still steps and each window's first moving step are the identity.
    """
    n, w, _ = windows.shape
    bad = np.flatnonzero(~np.isfinite(windows).all(axis=(1, 2)))
    if bad.size:
        raise NormalizationError(f"window {bad[0]} has non-finite coordinates")
    disps = np.diff(windows, axis=1)
    norms = np.linalg.norm(disps, axis=2)
    moving = norms >= 1e-12
    dirs = np.zeros_like(disps)
    dirs[moving] = disps[moving] / norms[moving][:, None]
    # each step's previous moving step in its window, or -1 if none
    last = np.maximum.accumulate(np.where(moving, np.arange(w - 1), -1), axis=1)
    prev = np.pad(last[:, :-1], ((0, 0), (1, 0)), constant_values=-1)
    win, t = np.nonzero(moving & (prev >= 0))
    rots = np.tile([1.0, 0.0, 0.0, 0.0], (n, w - 1, 1))
    rots[win, t] = _rotation_between(dirs[win, prev[win, t]], dirs[win, t])
    return _component_major(G.dq_coeffs(rots, disps))


@dataclass
class Forecaster:
    """A trained point forecaster: encode -> network -> decode."""

    name: str
    net: Network
    encode: callable
    predict_delta: bool = False  # network outputs a displacement from the last point

    def features(self, windows):
        return self.encode(windows)

    def train_targets(self, windows, targets):
        if self.predict_delta:
            return targets - windows[:, -1, :]
        return targets

    def predict(self, windows):
        pred = _infer(self.net, self.encode(windows), 512)
        if self.predict_delta:
            pred = pred + windows[:, -1, :]
        return pred


# kind: (family, encoder, window steps it drops, components per step and
# output width, hidden width, decoded (start, length) or None, predict_delta)
LORENZ_FORECASTERS = {
    "real": (builtin("real"), encode_windows_flat, 0, 3, 25, None, False),
    "quaternion": (builtin("quaternion"), encode_windows_pure_quaternion, 0, 4, 72, (1, 3), False),
    "phm": (4, encode_windows_pure_quaternion, 0, 4, 56, (1, 3), False),
    "dual_quaternion": (builtin("dual_quaternion"), encode_windows_dual_quaternion, 1, 8, 80,
                        (5, 3), True),
}


def lorenz_forecaster(kind, seed, window=8) -> Forecaster:
    """Matched-capacity forecasters (total free parameters within 10%).

    real: plain MLP on raw coordinates.
    quaternion: fixed Hamilton layers on zero-padded pure quaternions.
    phm: learned-grid layers (n=4) on the same encoding.
    dual_quaternion: fixed dual-quaternion layers on per-step rigid
    motions, predicting the next displacement.
    """
    if kind not in LORENZ_FORECASTERS:
        raise ConfigError(f"unknown forecaster kind {kind!r}")
    family, encode, dropped, width, hidden, decoded, delta = LORENZ_FORECASTERS[kind]
    rng = np.random.Generator(np.random.PCG64(seed))
    layers = [linear_layer(family, (window - dropped) * width, hidden, "relu", rng=rng),
              linear_layer(family, hidden, width, "none", rng=rng)]
    if decoded:
        layers.append(Narrow(*decoded))
    return Forecaster(kind, Network(layers), encode, predict_delta=delta)

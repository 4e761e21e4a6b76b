"""Parameterized hypercomplex (PHM-family) layers.

Instead of a fixed algebra, these layers learn the n x n grid matrices
A_i, held as one (n, n, n) tensor, alongside the weight blocks F_i.
They are thin constructors over the Kronecker-sum core in ``layers``
(``KronLinear``, ``KronConv2D`` and the ``KronGraph`` mixin), which the
algebra-bound layers share with constant grids.  Any integer n >= 1 is
legal (in particular n = 3 for RGB inputs).  Freezing the A_i to a built-in algebra's grid matrices
collapses the layer back to its algebra-bound counterpart exactly.
``linear_layer`` and ``conv_layer`` pick the layer class for a family:
an ``Algebra`` (algebra-bound) or an integer n (learned grids).
"""
from __future__ import annotations

import numpy as np

from . import tensor as T
from .algebra import Algebra
from .errors import AlgebraMismatch, ConfigError, DivisibilityError, ShapeError
from .layers import HConv2DLayer, HFCLayer, KronConv2D, KronGraph, KronLinear, Layer, _algebra_grids


def _init_a(rng, n):
    """Grid matrices start as random sign patterns, like a real algebra's:
    one (n, n, n) tensor."""
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    return T.Tensor(rng.integers(-1, 2, size=(n, n, n)).astype(np.float64), requires_grad=True)


class PHMLayer(KronLinear):
    """y = W x + b with W = sum_i A_i (x) F_i; no activation unless asked."""

    def __init__(self, n, d, s, activation="none", bias=True, rng=None):
        self.n = n
        rng = rng or np.random.default_rng(0)
        super().__init__(_init_a(rng, n), d, s, activation, bias, rng, fan_in=d / n)

    def weight(self) -> T.Tensor:
        return T.kron_sum(self.a, self.f)


class PHCLayer(KronConv2D):
    """Convolution whose bank is the Kronecker sum expanded over the
    (out-block, in-block) channel grid; spatial dims live in F only."""

    def __init__(self, n, in_channels, out_channels, kernel,
                 stride=1, padding=0, activation="none", bias=True, rng=None):
        self.n = n
        rng = rng or np.random.default_rng(0)
        super().__init__(_init_a(rng, n), in_channels, out_channels, kernel, stride,
                         padding, activation, bias, rng,
                         fan_in=in_channels * kernel * kernel / n)

    def weight(self) -> T.Tensor:
        return T.kron_sum(self.a, self.f)


def linear_layer(family, d, s, activation, bias=True, rng=None) -> KronLinear:
    """A (d -> s) fully connected layer: ``HFCLayer`` over an ``Algebra``
    family, ``PHMLayer`` over an integer n."""
    cls = HFCLayer if isinstance(family, Algebra) else PHMLayer
    return cls(family, d, s, activation, bias, rng)


def conv_layer(family, in_channels, out_channels, kernel, padding, activation,
               bias=True, rng=None) -> KronConv2D:
    """A stride-1 convolution: ``HConv2DLayer`` over an ``Algebra``
    family, ``PHCLayer`` over an integer n."""
    cls = HConv2DLayer if isinstance(family, Algebra) else PHCLayer
    return cls(family, in_channels, out_channels, kernel, 1, padding, activation, bias, rng)


class PHAttBlock(Layer):
    """Scaled-dot-product self-attention with PHM projections.

    Q, K, V = act(PHM(x)); att = softmax(Q K^T / sqrt(d_k)) V.
    ``mode`` is "gate" (y = att * x elementwise, the default) or "pure"
    (y = att).  With several heads the feature axis is split, heads are
    concatenated, and a final PHM mixes them.
    """

    def __init__(self, n, features, heads=1, activation="relu", mode="gate", rng=None):
        if mode not in ("gate", "pure"):
            raise ConfigError(f"unknown attention mode {mode!r}")
        if heads < 1:
            raise ConfigError(f"heads={heads} must be at least 1")
        if features % heads:
            raise DivisibilityError(f"features={features} not divisible by heads={heads}")
        rng = rng or np.random.default_rng(0)
        self.n, self.features, self.heads = n, features, heads
        self.mode = mode
        self.activation = activation
        self.d_k = features // heads
        self.q = PHMLayer(n, features, features, activation=activation, rng=rng)
        self.k = PHMLayer(n, features, features, activation=activation, rng=rng)
        self.v = PHMLayer(n, features, features, activation=activation, rng=rng)
        self.out = PHMLayer(n, features, features, rng=rng) if heads > 1 else None
        self.projections = [self.q, self.k, self.v] + ([self.out] if self.out else [])
        self.sublayers = self.projections

    def attention(self, x) -> T.Tensor:
        if x.data.ndim != 3 or x.data.shape[2] != self.features:
            raise ShapeError(
                f"expected (batch, tokens, {self.features}), got {x.data.shape}"
            )
        q, k, v = self.q(x), self.k(x), self.v(x)
        outs = []
        for h in range(self.heads):
            qh = T.narrow(q, 2, h * self.d_k, self.d_k)
            kh = T.narrow(k, 2, h * self.d_k, self.d_k)
            vh = T.narrow(v, 2, h * self.d_k, self.d_k)
            logits = T.scale(T.matmul(qh, T.swapaxes(kh, 1, 2)), 1.0 / np.sqrt(self.d_k))
            outs.append(T.matmul(T.softmax(logits, axis=-1), vh))
        att = outs[0] if len(outs) == 1 else T.concat(outs, axis=2)
        if self.out is not None:
            att = self.out(att)
        return att

    def forward(self, x):
        att = self.attention(x)
        return T.mul(att, x) if self.mode == "gate" else att


class PHGraphLayer(KronGraph, PHMLayer):
    """Graph aggregation with a learned Kronecker-sum weight."""

    def __init__(self, n, d, s, activation="relu", rng=None):
        super().__init__(n, d, s, activation, rng=rng)


def grid_owners(layer) -> list:
    """The PHM-family layers whose learned grid matrices ``layer`` holds,
    in parameter order: a ``PHMLayer`` (a ``PHGraphLayer`` too) or
    ``PHCLayer`` owns its grids, any other layer (a ``Network`` too)
    returns its sublayers' owners."""
    if isinstance(layer, (PHMLayer, PHCLayer)):
        return [layer]
    return [owner for sub in layer.sublayers for owner in grid_owners(sub)]


def collapse_to_algebra(layer, algebra: Algebra):
    """Freeze the grid matrices of every PHM-family layer in ``layer``
    (one layer or a whole ``Network``) to a built-in algebra's left
    pattern; each then equals its algebra-bound counterpart exactly.
    A layer's n grids are written and frozen together.  Every owner's n
    is checked before any grid changes.  Returns the layer for
    chaining."""
    owners = grid_owners(layer)
    if not owners:
        raise TypeError(f"{type(layer).__name__} has no learned grid matrices")
    for sub in owners:
        if sub.n != algebra.n:
            raise AlgebraMismatch(
                f"layer has n={sub.n} but algebra {algebra.name} has n={algebra.n}"
            )
    for sub in owners:
        sub.a.data[...] = _algebra_grids(algebra).data
        sub.a.requires_grad = False
        sub.a.grad = None
    return layer

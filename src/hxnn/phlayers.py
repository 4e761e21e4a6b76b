"""Parameterized hypercomplex layers.

Instead of a fixed algebra, these layers learn the n x n grid matrices
A_i alongside the weight blocks F_i; the effective weight is the
Kronecker sum  W = sum_i A_i (x) F_i, built by ``tensor.kron_sum`` just
as the algebra-bound layers build theirs.  Any integer n >= 1 is legal
(in particular n = 3 for RGB inputs).  Freezing the A_i to a built-in
algebra's grid matrices collapses the layer back to its algebra-bound
counterpart exactly.
"""
from __future__ import annotations

import numpy as np

from . import tensor as T
from .algebra import Algebra, algebra_grid_matrices
from .errors import AlgebraMismatch, DivisibilityError, ShapeError
from .layers import ACTIVATIONS, Layer, _check_divisible


def _init_a(rng, n):
    """Grid matrices start as random sign patterns, like a real algebra's."""
    return [
        T.Tensor(rng.integers(-1, 2, size=(n, n)).astype(np.float64), requires_grad=True)
        for _ in range(n)
    ]


def _init_f(rng, n, shape, fan_in):
    std = np.sqrt(2.0 / (fan_in / n))
    return [T.Tensor(rng.standard_normal(shape) * std, requires_grad=True) for _ in range(n)]


class PHMLayer(Layer):
    """y = W x + b with W = sum_i A_i (x) F_i; no activation unless asked."""

    def __init__(self, n, d, s, activation="none", bias=True, rng=None):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        self.n, self.d, self.s = n, d, s
        self.activation = activation
        d_blk = _check_divisible(d, n, "input features d")
        s_blk = _check_divisible(s, n, "output features s")
        rng = rng or np.random.default_rng(0)
        self.a = _init_a(rng, n)
        self.f = _init_f(rng, n, (s_blk, d_blk), d)
        self.a_frozen = [False] * n
        self.bias = T.Tensor(np.zeros(s), requires_grad=True) if bias else None

    def weight(self) -> T.Tensor:
        return T.kron_sum(self.a, self.f)

    def forward(self, x):
        squeeze = False
        if x.data.ndim == 3:  # (batch, tokens, features): fold tokens in
            b, t, feats = x.data.shape
            x = T.reshape(x, (b * t, feats))
            squeeze = (b, t)
        if x.data.ndim != 2 or x.data.shape[1] != self.d:
            raise ShapeError(f"expected (batch, {self.d}), got {x.data.shape}")
        y = T.matmul(x, T.transpose(self.weight()))
        if self.bias is not None:
            y = T.bias_add(y, self.bias)
        y = ACTIVATIONS[self.activation](y)
        if squeeze:
            y = T.reshape(y, (squeeze[0], squeeze[1], self.s))
        return y

    def parameters(self):
        ps = [a for a, fr in zip(self.a, self.a_frozen) if not fr]
        ps += self.f
        if self.bias is not None:
            ps.append(self.bias)
        return ps

    def param_count(self):
        n = self.n
        nb = self.s if self.bias is not None else 0
        grids = sum(a.data.size for a, fr in zip(self.a, self.a_frozen) if not fr)
        return grids + self.s * self.d // n + nb, self.s * self.d + nb


class PHCLayer(Layer):
    """Convolution whose bank is the Kronecker sum expanded over the
    (out-block, in-block) channel grid; spatial dims live in F only."""

    def __init__(self, n, in_channels, out_channels, kernel,
                 stride=1, padding=0, activation="none", bias=True, rng=None):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        self.n = n
        self.in_channels, self.out_channels = in_channels, out_channels
        self.kernel, self.stride, self.padding = kernel, stride, padding
        self.activation = activation
        ci = _check_divisible(in_channels, n, "in_channels")
        co = _check_divisible(out_channels, n, "out_channels")
        rng = rng or np.random.default_rng(0)
        self.a = _init_a(rng, n)
        self.f = _init_f(rng, n, (co, ci, kernel, kernel), in_channels * kernel * kernel)
        self.a_frozen = [False] * n
        self.bias = T.Tensor(np.zeros(out_channels), requires_grad=True) if bias else None

    def weight(self) -> T.Tensor:
        return T.kron_sum(self.a, self.f)

    def forward(self, x):
        if x.data.ndim != 4:
            raise ShapeError(f"expected NCHW input, got {x.data.shape}")
        if x.data.shape[1] != self.in_channels:
            raise ShapeError(
                f"expected {self.in_channels} channels, got {x.data.shape[1]}"
            )
        y = T.conv2d(x, self.weight(), stride=self.stride, padding=self.padding)
        if self.bias is not None:
            y = T.bias_add(y, self.bias)
        return ACTIVATIONS[self.activation](y)

    def parameters(self):
        ps = [a for a, fr in zip(self.a, self.a_frozen) if not fr]
        ps += self.f
        if self.bias is not None:
            ps.append(self.bias)
        return ps

    def param_count(self):
        n = self.n
        k2 = self.kernel * self.kernel
        nb = self.out_channels if self.bias is not None else 0
        dense = self.out_channels * self.in_channels * k2
        grids = sum(a.data.size for a, fr in zip(self.a, self.a_frozen) if not fr)
        return grids + dense // n + nb, dense + nb


class PHAttBlock(Layer):
    """Scaled-dot-product self-attention with PHM projections.

    Q, K, V = act(PHM(x)); att = softmax(Q K^T / sqrt(d_k)) V.
    ``mode`` is "gate" (y = att * x elementwise, the default) or "pure"
    (y = att).  With several heads the feature axis is split, heads are
    concatenated, and a final PHM mixes them.
    """

    def __init__(self, n, features, heads=1, activation="relu", mode="gate", rng=None):
        if mode not in ("gate", "pure"):
            raise ValueError(f"unknown attention mode {mode!r}")
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

    def parameters(self):
        ps = self.q.parameters() + self.k.parameters() + self.v.parameters()
        if self.out is not None:
            ps += self.out.parameters()
        return ps

    def param_count(self):
        parts = [self.q, self.k, self.v] + ([self.out] if self.out else [])
        frees, denses = zip(*(p.param_count() for p in parts))
        return sum(frees), sum(denses)


class PHGraphLayer(Layer):
    """Graph aggregation with a Kronecker-sum weight:
    H' = act(A_hat @ H @ W^T + b)."""

    def __init__(self, n, d, s, activation="relu", rng=None):
        self.inner = PHMLayer(n, d, s, rng=rng)
        self.n, self.d, self.s = n, d, s
        self.activation = activation

    def forward_graph(self, graph, features: T.Tensor | None = None):
        h = features if features is not None else T.Tensor(graph.features)
        if h.data.shape[1] != self.d:
            raise ShapeError(f"expected (nodes, {self.d}), got {h.data.shape}")
        mixed = T.matmul(h, T.transpose(self.inner.weight()))
        agg = T.matmul(T.Tensor(graph.normalized_adjacency), mixed)
        agg = T.bias_add(agg, self.inner.bias)
        return ACTIVATIONS[self.activation](agg)

    def forward(self, x):
        raise TypeError("graph layers are applied with forward_graph(graph)")

    def parameters(self):
        return self.inner.parameters()

    def param_count(self):
        return self.inner.param_count()


def collapse_to_algebra(layer, algebra: Algebra):
    """Freeze the grid matrices of a PHM-family layer to a built-in
    algebra's left pattern; the layer then equals its algebra-bound
    counterpart exactly.  Returns the layer for chaining."""
    inner = getattr(layer, "inner", layer)
    if isinstance(layer, PHAttBlock):
        for sub in (layer.q, layer.k, layer.v) + ((layer.out,) if layer.out else ()):
            collapse_to_algebra(sub, algebra)
        return layer
    if inner.n != algebra.n:
        raise AlgebraMismatch(
            f"layer has n={inner.n} but algebra {algebra.name} has n={algebra.n}"
        )
    for ai, mat in zip(inner.a, algebra_grid_matrices(algebra)):
        ai.data[...] = mat
        ai.requires_grad = False
        ai.grad = None
    inner.a_frozen = [True] * inner.n
    return layer

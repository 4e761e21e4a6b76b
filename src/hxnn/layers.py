"""Algebra-bound neural layers.

Every layer here stores n weight blocks F_i and builds its full weight
matrix (or filter bank) as the Kronecker sum W = sum_i A_i (x) F_i with
``tensor.kron_sum``, where the A_i are the algebra's fixed signed grid
matrices (``algebra.algebra_grid_matrices``).  W places +-F_i in every
cell of the left-multiplication pattern, so the free weight count is
exactly 1/n of the dense equivalent.  Input features are laid out
component-major: the first d/n features are the real parts, the next d/n
the first imaginary parts, and so on.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import tensor as T
from .algebra import Algebra, algebra_grid_matrices
from .errors import DivisibilityError, ShapeError

ACTIVATIONS = {
    "relu": T.relu,
    "sigmoid": T.sigmoid,
    "none": lambda t: t,
}


def _check_divisible(value, n, what):
    if value % n:
        raise DivisibilityError(f"{what}={value} is not divisible by n={n}")
    return value // n


def _he_blocks(rng, n, shape, fan_in):
    std = np.sqrt(2.0 / fan_in)
    return [T.Tensor(rng.standard_normal(shape) * std, requires_grad=True) for _ in range(n)]


class Layer:
    """Minimal layer protocol: parameters() and forward()."""

    def parameters(self):
        return []

    def forward(self, x):
        raise NotImplementedError

    def __call__(self, x):
        return self.forward(x)


@lru_cache(maxsize=None)
def _grid_tensors(algebra: Algebra) -> tuple:
    """The algebra's grid matrices as constant read-only tensors, built
    once per algebra and shared by every layer over it."""
    mats = algebra_grid_matrices(algebra)
    for m in mats:
        m.setflags(write=False)
    return tuple(T.Tensor(m) for m in mats)


class HFCLayer(Layer):
    """Fully connected layer over a fixed algebra: y = act(W x + b)
    with W the Kronecker sum of the algebra's grid matrices and the
    (s/n, d/n) weight blocks."""

    def __init__(self, algebra: Algebra, d, s, activation="relu", bias=True, rng=None):
        n = algebra.n
        self.algebra = algebra
        self.d, self.s = d, s
        self.activation = activation
        d_blk = _check_divisible(d, n, "input features d")
        s_blk = _check_divisible(s, n, "output features s")
        rng = rng or np.random.default_rng(0)
        self.blocks = _he_blocks(rng, n, (s_blk, d_blk), d)
        self.bias = T.Tensor(np.zeros(s), requires_grad=True) if bias else None

    def assembled(self) -> T.Tensor:
        return T.kron_sum(_grid_tensors(self.algebra), self.blocks)

    def forward(self, x):
        if x.data.ndim != 2 or x.data.shape[1] != self.d:
            raise ShapeError(f"expected (batch, {self.d}), got {x.data.shape}")
        y = T.matmul(x, T.transpose(self.assembled()))
        if self.bias is not None:
            y = T.bias_add(y, self.bias)
        return ACTIVATIONS[self.activation](y)

    def parameters(self):
        return self.blocks + ([self.bias] if self.bias is not None else [])

    def param_count(self):
        n = self.algebra.n
        nb = self.s if self.bias is not None else 0
        return self.s * self.d // n + nb, self.s * self.d + nb


class HConv2DLayer(Layer):
    """2-d convolution whose filter bank is the Kronecker sum of the
    algebra's grid matrices and the (out/n, in/n, k, k) blocks."""

    def __init__(self, algebra: Algebra, in_channels, out_channels, kernel,
                 stride=1, padding=0, activation="relu", bias=True, rng=None):
        n = algebra.n
        self.algebra = algebra
        self.in_channels, self.out_channels = in_channels, out_channels
        self.kernel, self.stride, self.padding = kernel, stride, padding
        self.activation = activation
        ci = _check_divisible(in_channels, n, "in_channels")
        co = _check_divisible(out_channels, n, "out_channels")
        rng = rng or np.random.default_rng(0)
        self.blocks = _he_blocks(
            rng, n, (co, ci, kernel, kernel), in_channels * kernel * kernel
        )
        self.bias = T.Tensor(np.zeros(out_channels), requires_grad=True) if bias else None

    def assembled(self) -> T.Tensor:
        return T.kron_sum(_grid_tensors(self.algebra), self.blocks)

    def forward(self, x):
        if x.data.ndim != 4:
            raise ShapeError(f"expected NCHW input, got {x.data.shape}")
        if x.data.shape[1] != self.in_channels:
            raise ShapeError(
                f"expected {self.in_channels} channels, got {x.data.shape[1]}"
            )
        y = T.conv2d(x, self.assembled(), stride=self.stride, padding=self.padding)
        if self.bias is not None:
            y = T.bias_add(y, self.bias)
        return ACTIVATIONS[self.activation](y)

    def parameters(self):
        return self.blocks + ([self.bias] if self.bias is not None else [])

    def param_count(self):
        n = self.algebra.n
        k2 = self.kernel * self.kernel
        nb = self.out_channels if self.bias is not None else 0
        dense = self.out_channels * self.in_channels * k2
        return dense // n + nb, dense + nb


class HAttBlock(Layer):
    """Self-attention block built from three inner convolutions.

    h = conv(x); a = conv_1x1(conv(concat(h, h))); y = gate(a) * x.
    ``gate`` is "sigmoid" (bounded gating, the default) or "none"
    (the literal product).
    """

    def __init__(self, algebra: Algebra, channels, kernel=3, gate="sigmoid", rng=None):
        if kernel % 2 == 0:
            raise ValueError("attention conv kernel must be odd to keep shape")
        if gate not in ("sigmoid", "none"):
            raise ValueError(f"unknown gate {gate!r}")
        rng = rng or np.random.default_rng(0)
        pad = kernel // 2
        self.algebra = algebra
        self.channels = channels
        self.gate = gate
        self.feature = HConv2DLayer(algebra, channels, channels, kernel,
                                    padding=pad, activation="relu", rng=rng)
        self.fuse = HConv2DLayer(algebra, 2 * channels, channels, kernel,
                                 padding=pad, activation="relu", rng=rng)
        self.proj = HConv2DLayer(algebra, channels, channels, 1,
                                 activation="none", rng=rng)

    def forward(self, x):
        h = self.feature(x)
        a = self.proj(self.fuse(T.concat([h, h], axis=1)))
        g = T.sigmoid(a) if self.gate == "sigmoid" else a
        return T.mul(g, x)

    def parameters(self):
        return self.feature.parameters() + self.fuse.parameters() + self.proj.parameters()

    def param_count(self):
        frees, denses = zip(*(l.param_count() for l in (self.feature, self.fuse, self.proj)))
        return sum(frees), sum(denses)


class Graph:
    """An undirected graph with node features and the symmetric
    self-loop-normalized adjacency D^(-1/2) (A + I) D^(-1/2)."""

    def __init__(self, num_nodes, edges, features):
        self.num_nodes = num_nodes
        self.edges = [tuple(e) for e in edges]
        feats = np.asarray(features, dtype=np.float64)
        if feats.shape[0] != num_nodes:
            raise ShapeError(
                f"features rows {feats.shape[0]} != node count {num_nodes}"
            )
        self.features = feats
        a = np.zeros((num_nodes, num_nodes))
        for u, v in self.edges:
            a[u, v] = 1.0
            a[v, u] = 1.0
        a += np.eye(num_nodes)
        dinv = 1.0 / np.sqrt(a.sum(axis=1))
        self.normalized_adjacency = a * dinv[:, None] * dinv[None, :]


class HGraphConvLayer(Layer):
    """Graph aggregation with an algebra-patterned weight:
    H' = act(A_hat @ H @ W^T + b)."""

    def __init__(self, algebra: Algebra, d, s, activation="relu", rng=None):
        self.inner = HFCLayer(algebra, d, s, activation="none", bias=True, rng=rng)
        self.algebra = algebra
        self.d, self.s = d, s
        self.activation = activation

    def forward_graph(self, graph: Graph, features: T.Tensor | None = None):
        h = features if features is not None else T.Tensor(graph.features)
        if h.data.shape[1] != self.d:
            raise ShapeError(f"expected (nodes, {self.d}), got {h.data.shape}")
        mixed = T.matmul(h, T.transpose(self.inner.assembled()))
        agg = T.matmul(T.Tensor(graph.normalized_adjacency), mixed)
        agg = T.bias_add(agg, self.inner.bias)
        return ACTIVATIONS[self.activation](agg)

    def forward(self, x):
        raise TypeError("graph layers are applied with forward_graph(graph)")

    def parameters(self):
        return self.inner.parameters()

    def param_count(self):
        return self.inner.param_count()


def pad_channels(x: T.Tensor, n: int) -> T.Tensor:
    """Explicitly zero-pad the channel axis of an NCHW tensor up to the
    next multiple of n.  Never applied implicitly."""
    c = x.data.shape[1]
    rem = (-c) % n
    if rem == 0:
        return x
    shape = list(x.data.shape)
    shape[1] = rem
    return T.concat([x, T.Tensor(np.zeros(shape))], axis=1)

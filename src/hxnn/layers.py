"""Kronecker-sum layers: W = sum_i A_i (x) F_i over n grid matrices
A_i (n, n), held as one (n, n, n) tensor, and n weight blocks F_i, held
as one (n, *block) tensor.  Conv layers build W with ``tensor.kron_sum``;
FC and graph layers apply it through ``tensor.kron_linear``, one node
that builds W^T itself.

``KronLayer`` holds that state; ``KronLinear`` and ``KronConv2D`` are
the one FC and conv forward of both layer families, and the ``KronGraph``
mixin makes an FC layer a graph layer.  The algebra-bound layers here
pass the algebra's fixed signed grid matrices as constants, so W places
+-F_i in every cell of the left-multiplication pattern and has 1/n of a
dense layer's free weights; the PHM family in ``phlayers`` passes
learned grids.  Features are laid out component-major: the first d/n
are the real parts, the next d/n the first imaginary parts, and so on.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import tensor as T
from .algebra import Algebra, algebra_grid_matrices
from .errors import ConfigError, DivisibilityError, ShapeError


def _check_divisible(value, n, what):
    if value < 1:
        raise ConfigError(f"{what}={value} must be at least 1")
    if value % n:
        raise DivisibilityError(f"{what}={value} is not divisible by n={n}")
    return value // n


def _activation(name):
    if name not in T.ACTIVATIONS:
        raise ConfigError(f"unknown activation {name!r}: expected one of {sorted(T.ACTIVATIONS)}")
    return name


class Layer:
    """Minimal layer protocol: parameters() and forward().

    A composite layer lists the layers it applies in ``sublayers``; its
    parameters and counts are theirs, collected in that order.  A leaf
    with tensors of its own (``KronLayer``) overrides both methods.
    """

    sublayers = ()

    def parameters(self):
        return [p for sub in self.sublayers for p in sub.parameters()]

    def param_count(self):
        """(free, dense): trainable entries, and those of the dense
        weights plus biases, summed over ``sublayers``."""
        counts = [sub.param_count() for sub in self.sublayers]
        return sum(f for f, _ in counts), sum(d for _, d in counts)

    def forward(self, x):
        raise NotImplementedError

    def __call__(self, x):
        return self.forward(x)


@lru_cache(maxsize=None)
def _algebra_grids(algebra: Algebra) -> T.Tensor:
    """The algebra's grid matrices as one constant (n, n, n) tensor over
    a read-only array: built once per algebra and shared by every layer
    over it."""
    stack = np.stack(algebra_grid_matrices(algebra))
    stack.setflags(write=False)
    return T.Tensor(stack)


class KronLayer(Layer):
    """Grid matrices ``a``, weight blocks ``f`` and an optional bias of
    ``out`` entries; the weight is W = sum_i a[i] (x) f[i].  ``a`` is one
    (n, n, n) tensor; ``f`` is one (n, *block) tensor, whose n blocks are
    He-initialised over ``fan_in`` inputs and drawn in block order.

    The grids are trained exactly when ``a`` requires grad: constant
    algebra grids and frozen learned grids do not.  Subclasses define
    ``weight()``, W as a ``kron_sum`` node, which the conv forward
    passes call; the FC and graph forwards take ``a`` and ``f``
    themselves.
    """

    def __init__(self, a, block, fan_in, out, bias, rng):
        rng = rng or np.random.default_rng(0)
        std = np.sqrt(2.0 / fan_in)
        self.a = a
        self.f = T.Tensor(rng.standard_normal((len(a.data), *block)) * std, requires_grad=True)
        self.bias = T.Tensor(np.zeros(out), requires_grad=True) if bias else None

    def parameters(self):
        ps = ([self.a] if self.a.requires_grad else []) + [self.f]
        if self.bias is not None:
            ps.append(self.bias)
        return ps

    def param_count(self):
        """(free, dense): the entries of ``parameters()``, and those of
        the dense weight W plus the bias."""
        nb = self.bias.data.size if self.bias is not None else 0
        return sum(p.data.size for p in self.parameters()), len(self.a.data) * self.f.data.size + nb


class KronLinear(KronLayer):
    """y = act(W x + b) with W of shape (s, d), from (s/n, d/n) blocks,
    as one ``kron_linear`` node that builds W^T from ``a`` and ``f``
    (``weight()`` is not called).  A (batch, tokens, d) input is folded
    to (batch * tokens, d) and unfolded after."""

    def __init__(self, a, d, s, activation, bias, rng, fan_in):
        d_blk = _check_divisible(d, len(a.data), "input features d")
        s_blk = _check_divisible(s, len(a.data), "output features s")
        self.d, self.s = d, s
        self.activation = _activation(activation)
        super().__init__(a, (s_blk, d_blk), fan_in, s, bias, rng)

    def forward(self, x):
        return T.kron_linear(x, self.a, self.f, self.bias, self.activation)


class KronConv2D(KronLayer):
    """2-d convolution whose filter bank is W, expanded over the
    (out-block, in-block) channel grid from (out/n, in/n, k, k) blocks;
    spatial dims live in F only."""

    def __init__(self, a, in_channels, out_channels, kernel, stride, padding,
                 activation, bias, rng, fan_in):
        ci = _check_divisible(in_channels, len(a.data), "in_channels")
        co = _check_divisible(out_channels, len(a.data), "out_channels")
        _check_divisible(kernel, 1, "kernel")
        _check_divisible(stride, 1, "stride")
        if padding < 0:
            raise ConfigError(f"padding={padding} must not be negative")
        self.in_channels, self.out_channels = in_channels, out_channels
        self.kernel, self.stride, self.padding = kernel, stride, padding
        self.activation = _activation(activation)
        super().__init__(a, (co, ci, kernel, kernel), fan_in, out_channels, bias, rng)

    def forward(self, x):
        if x.data.ndim != 4:
            raise ShapeError(f"expected NCHW input, got {x.data.shape}")
        if x.data.shape[1] != self.in_channels:
            raise ShapeError(
                f"expected {self.in_channels} channels, got {x.data.shape[1]}"
            )
        y = T.conv2d(x, self.weight(), stride=self.stride, padding=self.padding)
        return T.bias_act(y, self.bias, self.activation)


class HFCLayer(KronLinear):
    """Fully connected layer over a fixed algebra: y = act(W x + b)
    with W the Kronecker sum of the algebra's grid matrices and the
    (s/n, d/n) weight blocks ``f``."""

    def __init__(self, algebra: Algebra, d, s, activation="relu", bias=True, rng=None):
        self.algebra = algebra
        super().__init__(_algebra_grids(algebra), d, s, activation, bias, rng, fan_in=d)

    def assembled(self) -> T.Tensor:
        return T.kron_sum(self.a, self.f)

    def weight(self) -> T.Tensor:
        return self.assembled()


class HConv2DLayer(KronConv2D):
    """2-d convolution whose filter bank is the Kronecker sum of the
    algebra's grid matrices and the (out/n, in/n, k, k) blocks ``f``."""

    def __init__(self, algebra: Algebra, in_channels, out_channels, kernel,
                 stride=1, padding=0, activation="relu", bias=True, rng=None):
        self.algebra = algebra
        super().__init__(_algebra_grids(algebra), in_channels, out_channels, kernel,
                         stride, padding, activation, bias, rng,
                         fan_in=in_channels * kernel * kernel)

    def assembled(self) -> T.Tensor:
        return T.kron_sum(self.a, self.f)

    def weight(self) -> T.Tensor:
        return self.assembled()


class HAttBlock(Layer):
    """Self-attention block built from three inner convolutions.

    h = conv(x); a = conv_1x1(conv(concat(h, h))); y = gate(a) * x.
    ``gate`` is "sigmoid" (bounded gating, the default) or "none"
    (the literal product); it is the 1x1 projection's activation.

    The fuse filter W keeps its 2c input channels, but conv is linear in
    its input, so conv(concat(h, h), W) = conv(h, W[:, :c] + W[:, c:]):
    the fuse takes ``h`` once, through its two filter halves summed.
    """

    def __init__(self, algebra: Algebra, channels, kernel=3, gate="sigmoid", rng=None):
        if kernel % 2 == 0:
            raise ConfigError(f"kernel={kernel} must be odd to keep the attention block's shape")
        if gate not in ("sigmoid", "none"):
            raise ConfigError(f"unknown gate {gate!r}")
        rng = rng or np.random.default_rng(0)
        pad = kernel // 2
        self.algebra = algebra
        self.channels, self.kernel, self.gate = channels, kernel, gate
        self.feature = HConv2DLayer(algebra, channels, channels, kernel,
                                    padding=pad, activation="relu", rng=rng)
        self.fuse = HConv2DLayer(algebra, 2 * channels, channels, kernel,
                                 padding=pad, activation="relu", rng=rng)
        self.proj = HConv2DLayer(algebra, channels, channels, 1, activation=gate, rng=rng)
        self.sublayers = (self.feature, self.fuse, self.proj)

    def forward(self, x):
        h = self.feature(x)
        fuse, c, k = self.fuse, self.channels, self.kernel
        w = T.sum_(T.reshape(fuse.weight(), (c, 2, c, k, k)), axis=1)
        y = T.conv2d(h, w, stride=fuse.stride, padding=fuse.padding)
        return T.mul(self.proj(T.bias_act(y, fuse.bias, fuse.activation)), x)


class Graph:
    """An undirected graph with node features and the symmetric
    self-loop-normalized adjacency D^(-1/2) (A + I) D^(-1/2)."""

    def __init__(self, num_nodes, edges, features):
        self.num_nodes = num_nodes
        self.edges = [tuple(e) if isinstance(e, (tuple, list, np.ndarray)) else (e,)
                      for e in edges]
        for e in self.edges:
            if len(e) != 2 or not all(isinstance(v, (int, np.integer)) and 0 <= v < num_nodes
                                      for v in e):
                raise ShapeError(f"edge {e}: want a pair of node indices in [0, {num_nodes})")
        feats = np.asarray(features, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[0] != num_nodes:
            raise ShapeError(f"features of shape {feats.shape}: want ({num_nodes}, d)")
        self.features = feats
        a = np.zeros((num_nodes, num_nodes))
        for u, v in self.edges:
            a[u, v] = 1.0
            a[v, u] = 1.0
        a += np.eye(num_nodes)
        dinv = 1.0 / np.sqrt(a.sum(axis=1))
        self.normalized_adjacency = a * dinv[:, None] * dinv[None, :]


class KronGraph:
    """Graph convolution mixin for a ``KronLinear`` layer: H' = act(A_hat
    H W^T + b), the layer's own map applied to the aggregated features,
    as ``matmul`` and one ``kron_linear`` node.  The aggregation records
    a node only when the features require grad."""

    def forward_graph(self, graph: Graph, features: T.Tensor | None = None):
        h = features if features is not None else T.Tensor(graph.features)
        if h.data.shape != (graph.num_nodes, self.d):
            raise ShapeError(f"expected ({graph.num_nodes}, {self.d}) features, got {h.data.shape}")
        agg = T.matmul(T.Tensor(graph.normalized_adjacency), h)
        return T.kron_linear(agg, self.a, self.f, self.bias, self.activation)

    def forward(self, x):
        raise TypeError("graph layers are applied with forward_graph(graph)")


class HGraphConvLayer(KronGraph, HFCLayer):
    """Graph aggregation with an algebra-patterned weight."""

    def __init__(self, algebra: Algebra, d, s, activation="relu", rng=None):
        super().__init__(algebra, d, s, activation, rng=rng)

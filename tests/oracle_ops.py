"""Ops that the package itself no longer calls, kept as oracles for the
tests: tensor ops, each one autodiff node built with ``tensor._node``, and
the algebra product as a loop over (..., n) coefficient columns."""
import numpy as np

from hxnn import tensor as T


def add(a: T.Tensor, b: T.Tensor) -> T.Tensor:
    T._same_shape(a, b, "add")
    return T._node(a.data + b.data, (a, b), lambda g: (g, g))


def exp(a: T.Tensor) -> T.Tensor:
    y = np.exp(a.data)
    return T._node(y, (a,), lambda g: (g * y,))


def log(a: T.Tensor) -> T.Tensor:
    return T._node(np.log(a.data), (a,), lambda g: (g / a.data,))


def relu(a: T.Tensor) -> T.Tensor:
    return T.bias_act(a, None, "relu")


def multiply_arrays_loop(a, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``algebra.multiply_arrays`` before it ran on coefficient-major copies:
    one pass over the strided columns ``x[..., i]`` and ``y[..., j]`` per
    table entry, each coefficient starting from its e_0 * e_k term."""
    out = x[..., :1] * y
    for i in range(1, a.n):
        for j in range(a.n):
            s, k = a.signs[i, j], a.indices[i, j]
            if s > 0:
                out[..., k] += x[..., i] * y[..., j]
            elif s < 0:
                out[..., k] -= x[..., i] * y[..., j]
    return out

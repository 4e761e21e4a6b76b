"""Tensor ops that the package itself no longer calls, kept as oracles
for the tests: each is one autodiff node built with ``tensor._node``."""
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

"""Ops that the package itself no longer calls, kept as oracles and
fixtures for the tests: tensor ops, each one autodiff node built with
``tensor._node`` or over the package's own ops, algebra helpers, the
product as a loop over (..., n) coefficient columns among them, and the
Lorenz right-hand side with the RK4 step on state arrays."""
import numpy as np

from hxnn import algebra as alg
from hxnn import tensor as T
from hxnn.training import LORENZ_BETA, LORENZ_RHO, LORENZ_SIGMA


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


def sigmoid(a: T.Tensor) -> T.Tensor:
    return T.bias_act(a, None, "sigmoid")


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


def conjugate(a: alg.Algebra, x: alg.HNumber) -> alg.HNumber:
    """Negate every imaginary coefficient of ``x``, a member of ``a``."""
    alg._check_member(a, x)
    c = x.coeffs.copy()
    c[1:] = -c[1:]
    return alg.HNumber(a, c)


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


def lorenz_rhs(state):
    x, y, z = state
    return np.array([
        LORENZ_SIGMA * (y - x),
        x * (LORENZ_RHO - z) - y,
        x * y - LORENZ_BETA * z,
    ])


def rk4_step(f, y, dt):
    k1 = f(y)
    k2 = f(y + 0.5 * dt * k1)
    k3 = f(y + 0.5 * dt * k2)
    k4 = f(y + dt * k3)
    return y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

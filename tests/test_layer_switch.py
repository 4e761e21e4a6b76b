"""The layer-family switch: ``phlayers.linear_layer`` and ``conv_layer``
build exactly the layer a direct constructor call builds, and every model
builder that goes through them gives the same parameters, in the same
order, as the hand-written builders they replaced (sha256 pin)."""
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hxnn import config as C
from hxnn import experiments as ex
from hxnn import training as tr
from hxnn.algebra import BUILTIN_NAMES, builtin
from hxnn.errors import ConfigError, DivisibilityError
from hxnn.layers import HConv2DLayer, HFCLayer
from hxnn.phlayers import PHCLayer, PHMLayer, conv_layer, linear_layer

FAMILIES = [*BUILTIN_NAMES, 1, 2, 3, 4]


def rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def params(layer):
    return [(p.data.tobytes(), p.data.shape, p.requires_grad) for p in layer.parameters()]


family_sizes = st.sampled_from(FAMILIES).flatmap(lambda name: st.tuples(
    st.just(builtin(name) if isinstance(name, str) else name),
    st.integers(1, 3), st.integers(1, 3)))


@settings(max_examples=60, deadline=None)
@given(family_sizes, st.sampled_from(["none", "relu", "sigmoid"]), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_linear_layer_is_the_direct_constructor(family_sizes, activation, bias, seed):
    family, kd, ks = family_sizes
    n = family if isinstance(family, int) else family.n
    made = linear_layer(family, kd * n, ks * n, activation, bias=bias, rng=rng(seed))
    cls = PHMLayer if isinstance(family, int) else HFCLayer
    direct = cls(family, kd * n, ks * n, activation=activation, bias=bias, rng=rng(seed))
    assert type(made) is cls
    assert made.activation == activation
    assert params(made) == params(direct)


@settings(max_examples=60, deadline=None)
@given(family_sizes, st.integers(1, 3), st.integers(0, 2),
       st.sampled_from(["none", "relu", "sigmoid"]), st.booleans(), st.integers(0, 2**32 - 1))
def test_conv_layer_is_the_direct_constructor(family_sizes, kernel, padding, activation, bias,
                                              seed):
    family, kin, kout = family_sizes
    n = family if isinstance(family, int) else family.n
    made = conv_layer(family, kin * n, kout * n, kernel, padding, activation, bias=bias,
                      rng=rng(seed))
    cls = PHCLayer if isinstance(family, int) else HConv2DLayer
    direct = cls(family, kin * n, kout * n, kernel, padding=padding, activation=activation,
                 bias=bias, rng=rng(seed))
    assert type(made) is cls
    assert (made.kernel, made.stride, made.padding, made.activation) == (
        kernel, 1, padding, activation)
    assert params(made) == params(direct)


@pytest.mark.parametrize("make", [linear_layer, conv_layer])
@pytest.mark.parametrize("family", [builtin("quaternion"), 3])
def test_switch_keeps_the_divisibility_error(make, family):
    sizes = (6, 5) if make is linear_layer else (6, 5, 3, 1)
    with pytest.raises(DivisibilityError):
        make(family, *sizes, "relu")


# --- every builder's output, pinned ------------------------------------------


def _feed(h, net):
    for layer in net.layers:
        h.update(type(layer).__name__.encode())
    params = net.parameters()
    for p in params:
        h.update(p.data.tobytes())
    for p in params:  # one flag per element: blind to how elements group into tensors
        h.update(np.full(p.data.size, p.requires_grad).tobytes())


def builder_digest():
    """sha256 over the Lorenz forecasters (windows 3 and 8, with their
    predictions), both blobs classifiers, ``read_model`` for an mlp and a
    convnet over real, quaternion and phm, and param-table rows."""
    h = hashlib.sha256()
    windows = rng(7).normal(size=(5, 8, 3)) * 10
    for window in (3, 8):
        for kind in ("real", "quaternion", "phm", "dual_quaternion"):
            f = tr.lorenz_forecaster(kind, seed=11, window=window)
            h.update(f"{f.name} {f.encode.__name__} {f.predict_delta}".encode())
            _feed(h, f.net)
            h.update(f.predict(windows[:, :window]).tobytes())
    for kind in ("phc", "real"):
        _feed(h, tr.blobs_classifier(kind, seed=5, channels=6))
    for algebra, extra in (("real", {}), ("quaternion", {}), ("phm", {}), ("phm", {"n": "4"})):
        model = {"algebra": algebra, "activation": "sigmoid", **extra}
        train = {"train": {"seed": "3"}}
        _feed(h, C.read_model({"model": {"hidden": "8,16", **model},
                               "data": {"dataset": "lorenz"}, **train})())
        try:
            _feed(h, C.read_model({"model": {"channels": "12", **model},
                                   "data": {"dataset": "blobs"}, **train})())
        except DivisibilityError:  # 3 input channels and n = 4
            h.update(f"{algebra} {extra} convnet: DivisibilityError".encode())
    rows = ex.experiment_param_table(["fc:64:64", "conv:24:24:3", "fc:12:24", "conv:6:12:1"])
    h.update(repr(rows).encode())
    return h.hexdigest()


# computed with the hand-written builders the switch replaced, and again
# with per-block weight tensors before the blocks became one tensor
BUILDER_SHA256 = "b4169629cd719c5d9d470dfcd4e9231b055277c03b0e42d7a33507200e220570"


def test_builder_outputs_are_pinned():
    assert builder_digest() == BUILDER_SHA256


# --- typed errors from the builders -----------------------------------------


@pytest.mark.parametrize("build", [
    lambda: tr.blobs_classifier("dense", seed=0),
    lambda: tr.lorenz_forecaster("octonion", seed=0),
    lambda: ex.experiment_param_table(["dense:3"]),
    lambda: ex.experiment_param_table(["fc:a:b"]),
    lambda: ex.experiment_param_table(["conv:4:4"]),
], ids=["blobs-kind", "lorenz-kind", "spec-kind", "spec-not-int", "spec-arity"])
def test_builders_raise_config_errors(build):
    with pytest.raises(ConfigError):
        build()

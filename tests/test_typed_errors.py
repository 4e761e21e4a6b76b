"""Bad layer arguments fail with the package's own errors at construction,
through ``load_model`` and through ``config.read_model``; a mutated or
truncated model file lets only ``FormatError`` escape ``load_model``;
each bad value in ``BAD_VALUES`` raises its own error type, naming it."""
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hxnn import config as C
from hxnn import geometry as G
from hxnn import serialize as S
from hxnn import tensor as T
from hxnn import training as tr
from hxnn.algebra import builtin, check_property
from hxnn.errors import ConfigError, DivisibilityError, FormatError, ShapeError
from hxnn.layers import HAttBlock, HConv2DLayer, HFCLayer, HGraphConvLayer
from hxnn.phlayers import PHAttBlock, PHCLayer, PHGraphLayer, PHMLayer
from test_serialize import file_with_cfg


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


Q = builtin("quaternion")

BAD_CONSTRUCTIONS = {
    "hfc activation": lambda: HFCLayer(Q, 8, 12, activation="reLU"),
    "hconv2d activation": lambda: HConv2DLayer(Q, 4, 4, 3, activation="tanh"),
    "hgraph activation": lambda: HGraphConvLayer(Q, 4, 4, activation=""),
    "phm activation": lambda: PHMLayer(2, 4, 4, activation="Relu"),
    "phc activation": lambda: PHCLayer(2, 4, 4, 3, activation="relu "),
    "phgraph activation": lambda: PHGraphLayer(2, 4, 4, activation="gelu"),
    "phatt activation": lambda: PHAttBlock(2, 4, activation="RELU"),
    "hfc d=0": lambda: HFCLayer(Q, 0, 4),
    "hfc s=-4": lambda: HFCLayer(Q, 4, -4),
    "hconv2d in=0": lambda: HConv2DLayer(Q, 0, 4, 3),
    "hconv2d kernel=0": lambda: HConv2DLayer(Q, 4, 4, 0),
    "hconv2d stride=0": lambda: HConv2DLayer(Q, 4, 4, 3, stride=0),
    "hatt channels=0": lambda: HAttBlock(Q, 0),
    "hgraph s=0": lambda: HGraphConvLayer(Q, 4, 0),
    "phm d=0": lambda: PHMLayer(2, 0, 4),
    "phm n=0": lambda: PHMLayer(0, 4, 4),
    "phc out=0": lambda: PHCLayer(2, 4, 0, 3),
    "phc kernel=0": lambda: PHCLayer(2, 4, 4, 0),
    "phatt heads=0": lambda: PHAttBlock(2, 4, heads=0),
    "phatt features=0": lambda: PHAttBlock(2, 0),
    "phgraph d=0": lambda: PHGraphLayer(2, 0, 4),
    "avgpool window=0": lambda: tr.AvgPool(0),
}


@pytest.mark.parametrize("case", sorted(BAD_CONSTRUCTIONS))
def test_bad_constructor_arguments_raise_config_error(case):
    with pytest.raises(ConfigError):
        BAD_CONSTRUCTIONS[case]()


@pytest.mark.parametrize("layer, old, new", [
    (HFCLayer(Q, 8, 12, rng=rng(1)), b"activation=relu\n", b"activation=reLU\n"),
    (HFCLayer(Q, 8, 12, rng=rng(1)), b"d=8\n", b"d=0\n"),
    (HConv2DLayer(Q, 4, 8, 3, rng=rng(2)), b"kernel=3\n", b"kernel=0\n"),
    (HGraphConvLayer(Q, 8, 8, rng=rng(4)), b"activation=relu\n", b"activation=elu\n"),
    (PHMLayer(3, 6, 9, rng=rng(5)), b"s=9\n", b"s=0\n"),
    (PHCLayer(3, 3, 6, 3, rng=rng(6)), b"in=3\n", b"in=0\n"),
    (PHAttBlock(2, 8, heads=2, rng=rng(7)), b"heads=2\n", b"heads=0\n"),
    (PHGraphLayer(4, 8, 8, rng=rng(8)), b"activation=relu\n", b"activation=Relu\n"),
    (tr.AvgPool(2), b"window=2\n", b"window=0\n"),
])
def test_bad_constructor_arguments_in_a_file_raise_format_error(layer, old, new, tmp_path):
    with pytest.raises(FormatError, match=r"layer 0 \("):
        S.load_model(file_with_cfg(tmp_path, layer, old, new))


@pytest.mark.parametrize("dataset, model", [
    ("lorenz", {"activation": "reLU"}),
    ("lorenz", {"algebra": "phm", "activation": "Relu"}),
    ("lorenz", {"hidden": "0"}),
    ("lorenz", {"hidden": "32,x"}),
    ("blobs", {"activation": "tanh"}),
    ("blobs", {"channels": "0"}),
    ("blobs", {"algebra": "phm", "n": "3", "channels": "0"}),
])
def test_bad_constructor_arguments_in_a_config_raise_config_error(dataset, model):
    with pytest.raises(ConfigError):
        C.read_model({"model": model, "data": {"dataset": dataset}, "train": {"seed": "1"}})()


def every_kind_model():
    """One layer of every kind; the attention block has one projection
    whose grid flags differ, so the file holds a frozen_<name> line."""
    r = rng(3)
    att = PHAttBlock(2, 4, heads=2, rng=r)
    att.k.a.requires_grad = False
    return tr.Network([
        HFCLayer(Q, 4, 8, rng=r),
        HFCLayer(builtin("real"), 3, 2, activation="none", bias=False, rng=r),
        HConv2DLayer(Q, 4, 4, 3, padding=1, rng=r),
        HAttBlock(Q, 4, rng=r),
        HGraphConvLayer(Q, 4, 4, rng=r),
        PHMLayer(2, 4, 6, activation="relu", rng=r),
        PHCLayer(3, 3, 6, 3, padding=1, rng=r),
        att,
        PHGraphLayer(2, 4, 4, rng=r),
        tr.AvgPool(2), tr.GlobalAvgPool(), tr.Narrow(0, 2),
    ])


def saved_blob(model):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.hxnn")
        S.save_model(model, path)
        with open(path, "rb") as fh:
            return fh.read()


BLOB = saved_blob(every_kind_model())
PAYLOAD = 8 * sum(p.data.size for layer in every_kind_model().layers
                  for p in S._describe(layer)[2])
HEADER = len(BLOB) - PAYLOAD


def load_bytes(blob):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.hxnn")
        with open(path, "wb") as fh:
            fh.write(blob)
        return S.load_model(path)


def test_every_kind_model_round_trips():
    assert sorted(S.KINDS) == sorted({S._describe(l)[0] for l in every_kind_model().layers})
    loaded = load_bytes(BLOB)
    assert saved_blob(loaded) == BLOB
    assert b"frozen_k=" in BLOB[:HEADER]


@given(st.integers(0, HEADER - 1), st.integers(0, 255))
@settings(max_examples=400, deadline=None)
@example(12, 0x01)                                   # descriptor length
@example(BLOB.index(b"hfc"), 0xFF)                   # kind string not UTF-8
@example(BLOB.index(b"heads=2") + 6, ord("0"))       # heads=0
@example(BLOB.index(b"d=4\n") + 2, ord("0"))         # d=0
@example(BLOB.index(b"activation=none") + 11, ord("N"))
def test_one_byte_header_edit_raises_only_format_error(pos, byte):
    blob = BLOB[:pos] + bytes([byte]) + BLOB[pos + 1:]
    try:
        load_bytes(blob)
    except FormatError:
        pass


@given(st.integers(0, len(BLOB) - 1))
@settings(max_examples=200, deadline=None)
def test_truncated_file_raises_format_error(length):
    with pytest.raises(FormatError):
        load_bytes(BLOB[:length])


# Plain argument errors raise ConfigError (a ValueError), not a bare ValueError.
def test_overlapping_dataset_splits_raise_config_error():
    with pytest.raises(ConfigError) as exc:
        tr.Dataset(np.zeros((3, 2)), np.zeros(3), np.array([0, 1]), np.array([1, 2]))
    assert type(exc.value) is ConfigError


def test_unknown_property_raises_config_error():
    with pytest.raises(ConfigError) as exc:
        check_property(Q, "distributive")
    assert type(exc.value) is ConfigError


def test_grad_check_on_a_constant_tensor_raises_config_error():
    with pytest.raises(ConfigError) as exc:
        T.grad_check(T.sum_, T.Tensor(np.ones(3)))
    assert type(exc.value) is ConfigError


BAD_SHAPES = {
    "quaternion": lambda: G.UnitQuaternion(np.zeros(3)),
    "dual quaternion": lambda: G.DualQuaternion(np.array([1.0, 0, 0, 0]), np.zeros(5)),
    "translation": lambda: G.RigidTransform(G.UnitQuaternion.identity(), np.zeros(2)),
}


@pytest.mark.parametrize("case", sorted(BAD_SHAPES))
def test_bad_geometry_shapes_raise_shape_error(case):
    with pytest.raises(ShapeError) as exc:
        BAD_SHAPES[case]()
    assert type(exc.value) is ShapeError


def test_unknown_transform_family_raises_config_error():
    with pytest.raises(ConfigError) as exc:
        G.equivariance_report(lambda w: w[:, -1], "shear", np.zeros((2, 3, 3)), np.zeros((2, 3)), [1.0])
    assert type(exc.value) is ConfigError


def packed_adam_params():
    params = [T.Tensor(np.ones(2), requires_grad=True), T.Tensor(np.ones(3), requires_grad=True)]
    state = {}
    tr.adam_step(params, state, 0.01)
    return params, state


def adam_with_a_parameter_missing():
    params, state = packed_adam_params()
    tr.adam_step(params[:1], state, 0.01)


def adam_with_a_rebound_parameter():
    params, state = packed_adam_params()
    params[0].data = params[0].data.copy()
    tr.adam_step(params, state, 0.01)


def adam_with_a_parameter_twice():
    w = T.Tensor(np.ones(2), requires_grad=True)
    tr.adam_step([w, w], {}, 0.01)


@pytest.mark.parametrize("misuse", [adam_with_a_parameter_missing, adam_with_a_rebound_parameter,
                                    adam_with_a_parameter_twice])
def test_adam_state_misuse_raises_config_error(misuse):
    with pytest.raises(ConfigError) as exc:
        misuse()
    assert type(exc.value) is ConfigError


def test_an_optimizer_changed_after_construction_raises_config_error():
    ds = tr.Dataset(np.zeros((8, 4)), np.zeros((8, 2)), np.arange(6), np.arange(6, 8))
    net = tr.Network([HFCLayer(builtin("real"), 4, 2, activation="none")])
    config = tr.TrainConfig(epochs=1, batch_size=4)
    config.optimizer = "rmsprop"
    with pytest.raises(ConfigError) as exc:
        tr.train(net, ds, config)
    assert type(exc.value) is ConfigError


def zeros(*shape):
    return T.Tensor(np.zeros(shape))


# name -> (call, its error type, text naming the bad value)
BAD_VALUES = {
    "conv2d kernel over the padded input": (
        lambda: T.conv2d(zeros(1, 1, 2, 2), zeros(1, 1, 5, 5), padding=1), ShapeError, "(5, 5)"),
    "avg_pool2d window off the grid": (
        lambda: T.avg_pool2d(zeros(1, 1, 5, 5), 2), ShapeError, "window 2"),
    "mul shapes": (lambda: T.mul(zeros(2), zeros(3)), ShapeError, "(3,)"),
    "reshape size": (lambda: T.reshape(zeros(6), (4,)), ShapeError, "(4,)"),
    "concat shapes": (lambda: T.concat([zeros(2, 3), zeros(2, 4)], 0), ShapeError, "(2, 4)"),
    "bias length": (lambda: T.bias_act(zeros(2, 3), zeros(4), "none"), ShapeError, "(4,)"),
    "mean over an empty axis": (lambda: T.mean(zeros(0, 3), 0), ShapeError, "(0, 3)"),
    "mean over empty image axes": (lambda: T.mean(zeros(2, 3, 0, 0), (2, 3)), ShapeError,
                                   "(2, 3, 0, 0)"),
    "mse shapes": (lambda: tr.mse(zeros(2, 3), np.zeros((2, 4))), ShapeError, "(2, 4)"),
    "cross_entropy logits rank": (lambda: tr.cross_entropy(zeros(3), [0]), ShapeError, "(3,)"),
    "cross_entropy label count": (lambda: tr.cross_entropy(zeros(2, 3), [0, 1, 2]), ShapeError,
                                  "labels (3,)"),
    "hatt even kernel": (lambda: HAttBlock(Q, 4, kernel=2), ConfigError, "kernel=2"),
    "hatt gate": (lambda: HAttBlock(Q, 4, gate="tanh"), ConfigError, "'tanh'"),
    "phatt mode": (lambda: PHAttBlock(2, 4, mode="soft"), ConfigError, "'soft'"),
    "phatt heads": (lambda: PHAttBlock(2, 6, heads=4), DivisibilityError, "features=6"),
    "phatt input": (lambda: PHAttBlock(2, 4)(zeros(2, 4)), ShapeError, "(2, 4)"),
    "config line": (lambda: C.parse_config("[model]\nhidden 8\n"), ConfigError, "'hidden 8'"),
    "config dataset missing": (lambda: C.read_dataset({"data": {}}), ConfigError, "'dataset'"),
    "config dataset": (lambda: C.read_dataset({"data": {"dataset": "mnist"}}), ConfigError,
                       "'mnist'"),
    "config algebra": (lambda: C.read_model({"model": {"algebra": "quat"},
                                             "data": {"dataset": "lorenz"}}),
                       ConfigError, "'quat'"),
    "config model dataset": (lambda: C.read_model({"data": {"dataset": "mnist"}}), ConfigError,
                             "'mnist'"),
}


@pytest.mark.parametrize("case", sorted(BAD_VALUES))
def test_a_bad_value_raises_its_typed_error_naming_it(case):
    call, error, named = BAD_VALUES[case]
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and named in str(exc.value)

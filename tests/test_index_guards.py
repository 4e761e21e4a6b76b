"""Class labels, graph edges and node features out of range fail with
``ShapeError`` instead of wrapping around, and a split with no rows
fails before any training or inference runs."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hxnn import layers as L
from hxnn import tensor as T
from hxnn import training as tr
from hxnn.algebra import builtin
from hxnn.errors import ShapeError


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.lists(st.integers(-8, 8), min_size=1, max_size=6))
def test_labels_outside_the_classes_raise_shape_error(c, labels):
    logits = T.Tensor(np.zeros((len(labels), c)))
    if all(0 <= y < c for y in labels):
        assert tr.cross_entropy(logits, labels).item() == pytest.approx(np.log(c))
    else:
        with pytest.raises(ShapeError, match="labels"):
            tr.cross_entropy(logits, labels)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0, 2), min_size=1, max_size=6))
def test_float_labels_raise_shape_error(labels):
    with pytest.raises(ShapeError, match="integers"):
        tr.cross_entropy(T.Tensor(np.zeros((len(labels), 3))), np.asarray(labels, dtype=float))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6),
       st.lists(st.lists(st.integers(-7, 7), min_size=1, max_size=3), max_size=5))
def test_edges_outside_the_nodes_raise_shape_error(num_nodes, edges):
    feats = np.ones((num_nodes, 2))
    if all(len(e) == 2 and all(0 <= v < num_nodes for v in e) for e in edges):
        adj = L.Graph(num_nodes, edges, feats).normalized_adjacency
        assert np.array_equal(adj, adj.T)
    else:
        with pytest.raises(ShapeError, match="edge"):
            L.Graph(num_nodes, edges, feats)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.lists(st.integers(0, 6), max_size=3))
def test_features_not_shaped_nodes_by_d_raise_shape_error(num_nodes, shape):
    feats = np.zeros(shape)
    if len(shape) == 2 and shape[0] == num_nodes:
        assert L.Graph(num_nodes, [], feats).features.shape == tuple(shape)
    else:
        with pytest.raises(ShapeError, match="features"):
            L.Graph(num_nodes, [], feats)


def test_train_with_an_empty_test_split_fails_before_the_first_epoch():
    xs = np.random.default_rng(0).standard_normal((8, 4))
    no_test = tr.Dataset(xs, xs[:, :2], np.arange(8), [])
    net = tr.Network([L.HFCLayer(builtin("real"), 4, 2)])
    start = [p.data.copy() for p in net.parameters()]
    with pytest.raises(ShapeError, match="test split is empty"):
        tr.train(net, no_test, tr.TrainConfig(epochs=2, batch_size=4))
    assert all(np.array_equal(s, p.data) for s, p in zip(start, net.parameters()))
    tr.train(net, no_test, tr.TrainConfig(epochs=0))  # nothing to run


@pytest.mark.parametrize("task", ["regression", "classification"])
def test_evaluate_on_zero_rows_raises_shape_error(task):
    net = tr.lorenz_forecaster("real", 0).net
    with pytest.raises(ShapeError, match="no input rows"):
        tr.evaluate(net, np.zeros((0, 24)), np.zeros((0, 3)), task)


@pytest.mark.parametrize("kind", ["real", "quaternion", "phm", "dual_quaternion"])
def test_predict_on_zero_windows_raises_shape_error(kind):
    with pytest.raises(ShapeError, match="no input rows"):
        tr.lorenz_forecaster(kind, 0).predict(np.zeros((0, 8, 3)))

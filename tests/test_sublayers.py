"""Composite layers declare ``sublayers`` once: ``parameters()``,
``param_count()``, ``grid_owners`` and ``collapse_to_algebra`` follow
from it, for a whole ``Network`` and for user-defined composites."""
import inspect

import numpy as np
import pytest

from hxnn import algebra as alg
from hxnn import config, experiments, layers as L, phlayers as P, serialize
from hxnn import tensor as T
from hxnn import training as tr
from hxnn.errors import AlgebraMismatch


def rng(seed=7):
    return np.random.Generator(np.random.PCG64(seed))


def phm_net(n_first=4, n_second=4):
    return tr.Network([P.PHMLayer(n_first, 8, 8, activation="relu", rng=rng(1)),
                       tr.Narrow(0, 4),
                       P.PHMLayer(n_second, 4, 4, rng=rng(2))])


class TwoPHM(L.Layer):
    """A user-defined composite: two PHM layers applied in turn."""

    def __init__(self):
        self.first = P.PHMLayer(2, 4, 6, activation="relu", rng=rng(3))
        self.second = P.PHMLayer(2, 6, 2, rng=rng(4))
        self.sublayers = (self.first, self.second)

    def forward(self, x):
        return self.second(self.first(x))


def test_no_class_but_layer_and_kronlayer_defines_the_walk():
    for module in (L, P, tr, serialize, experiments, config):
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls in (L.Layer, L.KronLayer) or not issubclass(cls, L.Layer):
                continue
            assert "parameters" not in vars(cls), name
            assert "param_count" not in vars(cls), name


def test_grid_owners_of_a_network_are_its_phm_layers_in_order():
    net = phm_net()
    assert P.grid_owners(net) == [net.layers[0], net.layers[2]]
    att = P.PHAttBlock(2, 4, heads=2, rng=rng())
    graph = P.PHGraphLayer(2, 4, 4, rng=rng())
    nested = tr.Network([att, graph, L.HFCLayer(alg.builtin("complex"), 4, 4, rng=rng())])
    assert P.grid_owners(nested) == att.projections + [graph]


def test_collapse_to_algebra_on_a_network_equals_the_algebra_bound_network():
    q = alg.builtin("quaternion")
    net = phm_net()
    hfc = tr.Network([L.HFCLayer(q, 8, 8, activation="relu", rng=rng(5)),
                      tr.Narrow(0, 4),
                      L.HFCLayer(q, 4, 4, activation="none", rng=rng(6))])
    assert P.collapse_to_algebra(net, q) is net
    for phm, bound in zip(P.grid_owners(net), (hfc.layers[0], hfc.layers[2])):
        assert not phm.a.requires_grad
        for fi, bi in zip(phm.f.data, bound.f.data):
            fi[...] = bi
        phm.bias.data[...] = bound.bias.data
    x = T.Tensor(rng(8).standard_normal((16, 8)))
    assert np.max(np.abs(net(x).data - hfc(x).data)) < 1e-12
    assert net.param_count() == hfc.param_count()


def test_mixed_n_network_is_left_untouched_after_algebra_mismatch():
    net = phm_net(n_first=4, n_second=2)
    before = [(o.a.data.copy(), o.a.requires_grad) for o in P.grid_owners(net)]
    with pytest.raises(AlgebraMismatch):
        P.collapse_to_algebra(net, alg.builtin("quaternion"))
    after = [(o.a.data, o.a.requires_grad) for o in P.grid_owners(net)]
    assert len(after) == len(before) == 2
    for (d0, g0), (d1, g1) in zip(before, after):
        assert np.array_equal(d0, d1) and g0 and g1


def test_a_network_without_learned_grids_still_raises_type_error():
    net = tr.Network([L.HFCLayer(alg.builtin("complex"), 4, 4, rng=rng()), tr.Narrow(0, 2)])
    with pytest.raises(TypeError, match="Network has no learned grid matrices"):
        P.collapse_to_algebra(net, alg.builtin("complex"))


def test_user_composite_setting_only_sublayers_is_counted_and_trained():
    block = TwoPHM()
    own = block.first.parameters() + block.second.parameters()
    assert [id(p) for p in block.parameters()] == [id(p) for p in own]
    f1, d1 = block.first.param_count()
    f2, d2 = block.second.param_count()
    assert block.param_count() == (f1 + f2, d1 + d2)
    net = tr.Network([block, tr.Narrow(0, 1)])
    assert net.param_count() == block.param_count()
    assert [id(p) for p in net.parameters()] == [id(p) for p in own]

    r = rng(9)
    xs = r.standard_normal((24, 4))
    ds = tr.Dataset(xs, xs[:, :1] - xs[:, 1:2], np.arange(16), np.arange(16, 24))
    start = [p.data.copy() for p in own]
    tr.train(net, ds, tr.TrainConfig(epochs=1, batch_size=8, lr=1e-2))
    assert all(not np.array_equal(s, p.data) for s, p in zip(start, own))


@pytest.mark.parametrize("build", [
    lambda: tr.blobs_classifier("phc", 0, channels=6),
    lambda: tr.blobs_classifier("real", 0, channels=6),
    *[(lambda k: lambda: tr.lorenz_forecaster(k, 0).net)(k)
      for k in ("real", "quaternion", "phm", "dual_quaternion")],
    lambda: tr.Network([P.PHAttBlock(2, 4, heads=2, rng=rng()),
                        L.HAttBlock(alg.builtin("complex"), 2, rng=rng())]),
])
def test_free_count_is_the_size_of_parameters(build):
    net = build()
    assert net.param_count()[0] == sum(p.data.size for p in net.parameters())
    for owner in P.grid_owners(net):  # frozen grids leave both
        owner.a.requires_grad = False
    assert net.param_count()[0] == sum(p.data.size for p in net.parameters())

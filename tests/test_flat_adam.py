"""``training.adam_step`` packs the parameters into one buffer on its first
call and updates them all in one pass; the results are byte-equal to the
per-tensor update it replaced, and a parameter that left the buffer is
rejected rather than silently skipped."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hxnn import serialize as S
from hxnn import tensor as T
from hxnn import training as tr


def per_tensor_adam_step(params, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Oracle: the per-tensor Adam update that preceded the packed buffer."""
    if not state:
        bounds = np.cumsum([0] + [p.data.size for p in params])
        moments = np.zeros((2, bounds[-1]))
        state["t"] = 0
        state["m"], state["v"] = (
            [row[a:b].reshape(p.data.shape) for a, b, p in zip(bounds, bounds[1:], params)]
            for row in moments
        )
    state["t"] += 1
    t = state["t"]
    for p, m, v in zip(params, state["m"], state["v"]):
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        m *= beta1
        m += (1 - beta1) * g
        v *= beta2
        v += (1 - beta2) * g * g
        p.data -= lr * (m / (1 - beta1**t)) / (np.sqrt(v / (1 - beta2**t)) + eps)
    return state


def textbook_adam(start, grads, steps, lr, b1=0.9, b2=0.999, eps=1e-8):
    m = [np.zeros_like(w) for w in start]
    v = [np.zeros_like(w) for w in start]
    ws = [w.copy() for w in start]
    for t in range(1, steps + 1):
        for i, w in enumerate(ws):
            g = grads[t][i]
            g = np.zeros_like(w) if g is None else g
            m[i] = b1 * m[i] + (1 - b1) * g
            v[i] = b2 * v[i] + (1 - b2) * g * g
            ws[i] = w - lr * (m[i] / (1 - b1**t)) / (np.sqrt(v[i] / (1 - b2**t)) + eps)
    return ws


def train_forecaster(kind, dataset):
    f = tr.lorenz_forecaster(kind, seed=3)
    enc = tr.Dataset(f.features(dataset.inputs),
                     f.train_targets(dataset.inputs, dataset.targets),
                     dataset.train_idx, dataset.test_idx)
    cfg = tr.TrainConfig(seed=3, epochs=3, batch_size=32, lr=5e-3)
    return f.net, tr.train(f.net, enc, cfg)


@pytest.fixture(scope="module")
def lorenz_small():
    return tr.lorenz_trajectories(3, count=4, steps=400)


KINDS = ("real", "quaternion", "phm", "dual_quaternion")


@pytest.mark.parametrize("kind", KINDS)
def test_trained_forecasters_byte_equal_to_per_tensor_adam(kind, lorenz_small, monkeypatch):
    packed_net, packed = train_forecaster(kind, lorenz_small)
    monkeypatch.setattr(tr, "adam_step", per_tensor_adam_step)
    oracle_net, oracle = train_forecaster(kind, lorenz_small)
    assert [p.data.tobytes() for p in packed_net.parameters()] == \
        [p.data.tobytes() for p in oracle_net.parameters()]
    assert np.array(packed.losses).tobytes() == np.array(oracle.losses).tobytes()
    assert np.array(packed.scores).tobytes() == np.array(oracle.scores).tobytes()


@pytest.mark.parametrize("kind", KINDS)
def test_trained_packed_net_round_trips_byte_for_byte(kind, lorenz_small, tmp_path):
    net, _ = train_forecaster(kind, lorenz_small)
    path = tmp_path / "net.hxnn"
    S.save_model(net, path)
    loaded = S.load_model(path)
    assert [p.data.tobytes() for p in loaded.parameters()] == \
        [p.data.tobytes() for p in net.parameters()]
    again = tmp_path / "again.hxnn"
    S.save_model(loaded, again)
    assert again.read_bytes() == path.read_bytes()


shapes = st.lists(st.lists(st.integers(1, 4), min_size=0, max_size=3).map(tuple),
                  min_size=1, max_size=5)


@settings(max_examples=60, deadline=None)
@given(shapes=shapes, steps=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
       none_rate=st.sampled_from([0.0, 0.3, 1.0]))
def test_packed_adam_equals_textbook_and_owns_the_parameters(shapes, steps, seed, none_rate):
    r = np.random.default_rng(seed)
    start = [r.standard_normal(s) for s in shapes]
    grads = {t: [None if r.random() < none_rate else r.standard_normal(s) for s in shapes]
             for t in range(1, steps + 1)}
    params = [T.Tensor(w.copy(), requires_grad=True) for w in start]
    state = {}
    for t in range(1, steps + 1):
        for p, g in zip(params, grads[t]):
            p.grad = g
        tr.adam_step(params, state, 0.01)
        bases = {id(p.data.base) for p in params}
        assert len(bases) == 1
        assert all(np.shares_memory(p.data, params[0].data.base) for p in params)
    expect = textbook_adam(start, grads, steps, 0.01)
    assert all(p.data.shape == w.shape and p.data.tobytes() == w.tobytes()
               for p, w in zip(params, expect))


@settings(max_examples=30, deadline=None)
@given(shapes=shapes, data=st.data())
def test_duplicate_or_rebound_parameter_raises(shapes, data):
    params = [T.Tensor(np.ones(s), requires_grad=True) for s in shapes]
    dup = data.draw(st.integers(0, len(params) - 1))
    with pytest.raises(ValueError, match="more than once"):
        tr.adam_step(params + [params[dup]], {}, 0.01)

    state = {}
    tr.adam_step(params, state, 0.01)
    victim = params[data.draw(st.integers(0, len(params) - 1))]
    kept = [p.data.copy() for p in params]
    victim.data = victim.data.copy()
    with pytest.raises(ValueError, match="rebound"):
        tr.adam_step(params, state, 0.01)
    assert state["t"] == 1
    assert all(np.array_equal(p.data, k) for p, k in zip(params, kept))


def test_changed_parameter_list_raises():
    params = [T.Tensor(np.ones(3), requires_grad=True) for _ in range(2)]
    state = {}
    tr.adam_step(params, state, 0.01)
    with pytest.raises(ValueError, match="2"):
        tr.adam_step(params[:1], state, 0.01)


def test_no_parameters_is_a_no_op():
    state = {}
    tr.adam_step([], state, 0.01)
    assert state["t"] == 1

import numpy as np
import pytest

from hxnn import algebra as alg
from hxnn import tensor as T
from hxnn import training as tr
from hxnn.errors import ConfigError
from hxnn.layers import HFCLayer
from oracle_ops import lorenz_rhs, rk4_step


def test_sgd_hand_example():
    w = T.Tensor(np.array([1.0]), requires_grad=True)
    T.backward(T.sum_(T.mul(w, w)))
    tr.sgd_step([w], 0.1)
    assert w.data[0] == pytest.approx(0.8)


def test_zero_gradient_leaves_params_unchanged():
    w = T.Tensor(np.array([2.0, -1.0]), requires_grad=True)
    before = w.data.copy()
    tr.sgd_step([w], 0.1)  # grad is None: nothing to apply
    assert np.array_equal(w.data, before)
    state = {}
    tr.adam_step([w], state, 0.1)
    assert np.array_equal(w.data, before)


def test_adam_first_step_magnitude_is_lr():
    for g in (1e-4, 1.0, 1e4):
        w = T.Tensor(np.array([0.0]), requires_grad=True)
        w.grad = np.array([g])
        tr.adam_step([w], {}, lr=0.01)
        assert abs(abs(w.data[0]) - 0.01) < 1e-6


def test_adam_in_place_matches_textbook_form_bit_for_bit():
    def textbook(ws, grads, steps, lr=0.01, b1=0.9, b2=0.999, eps=1e-8):
        m = [np.zeros_like(w) for w in ws]
        v = [np.zeros_like(w) for w in ws]
        ws = [w.copy() for w in ws]
        for t in range(1, steps + 1):
            for i, w in enumerate(ws):
                g = grads(t, i)
                g = np.zeros_like(w) if g is None else g
                m[i] = b1 * m[i] + (1 - b1) * g
                v[i] = b2 * v[i] + (1 - b2) * g * g
                w -= lr * (m[i] / (1 - b1**t)) / (np.sqrt(v[i] / (1 - b2**t)) + eps)
        return ws

    r = np.random.default_rng(3)
    start = [r.standard_normal((4, 3)), r.standard_normal(5)]
    table = {(t, i): (None if (t + i) % 3 == 0 else r.standard_normal(w.shape))
             for t in range(1, 8) for i, w in enumerate(start)}
    params = [T.Tensor(w.copy(), requires_grad=True) for w in start]
    state = {}
    for t in range(1, 8):
        for i, p in enumerate(params):
            p.grad = table[(t, i)]
        moments = state.get("m", []) + state.get("v", [])
        tr.adam_step(params, state, 0.01)
        assert all(a is b for a, b in zip(moments, state["m"] + state["v"]))
    expect = textbook(start, lambda t, i: table[(t, i)], 7)
    assert all(np.array_equal(p.data, w) for p, w in zip(params, expect))


def test_mse_zero_on_equal_and_gradcheck():
    x = np.arange(6.0).reshape(2, 3)
    assert tr.mse(T.Tensor(x), x).item() == 0.0
    p = T.Tensor(np.random.default_rng(0).standard_normal((2, 3)), requires_grad=True)
    err = T.grad_check(lambda t: tr.mse(t, x), p)
    assert err < 1e-7


def test_cross_entropy_uniform_logits():
    logits = T.Tensor(np.zeros((5, 4)))
    labels = np.array([0, 1, 2, 3, 0])
    assert tr.cross_entropy(logits, labels).item() == pytest.approx(np.log(4))


def test_cross_entropy_gradcheck():
    rng = np.random.default_rng(1)
    p = T.Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    labels = np.array([0, 2, 1, 1])
    err = T.grad_check(lambda t: tr.cross_entropy(t, labels), p)
    assert err < 1e-7


def test_rgb_blobs_determinism_and_balance():
    a = tr.make_rgb_blobs(7, samples_per_class=40)
    b = tr.make_rgb_blobs(7, samples_per_class=40)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.targets, b.targets)
    counts = np.bincount(a.targets)
    assert np.all(counts == 40)
    assert a.inputs.shape == (160, 3, 16, 16)


def test_rgb_blobs_red_margin_and_linear_floor():
    ds = tr.make_rgb_blobs(3, samples_per_class=300)
    red = ds.inputs[:, 0].mean(axis=(1, 2))
    mean0 = red[ds.targets == 0].mean()
    mean1 = red[ds.targets == 1].mean()
    assert mean0 > mean1 + 0.2
    assert tr.linear_probe_accuracy(ds) < 0.8


def test_split_disjointness():
    ds = tr.make_rgb_blobs(1, samples_per_class=24)
    assert np.intersect1d(ds.train_idx, ds.test_idx).size == 0
    with pytest.raises(ValueError):
        tr.Dataset(ds.inputs, ds.targets, np.array([0, 1]), np.array([1, 2]))


def test_lorenz_fixed_point():
    assert np.array_equal(lorenz_rhs(np.zeros(3)), np.zeros(3))


def test_rk4_order_on_linear_system():
    f = lambda y: -y
    errors = []
    for dt in (0.1, 0.05, 0.025):
        y = np.array([1.0])
        for _ in range(int(round(1.0 / dt))):
            y = rk4_step(f, y, dt)
        errors.append(abs(y[0] - np.exp(-1.0)))
    slope1 = np.log2(errors[0] / errors[1])
    slope2 = np.log2(errors[1] / errors[2])
    assert 3.5 < slope1 < 4.5
    assert 3.5 < slope2 < 4.5


def test_lorenz_dataset_shapes_and_split():
    ds = tr.lorenz_trajectories(5, count=4, steps=400, dt=0.01, sample_every=10)
    assert ds.inputs.shape[1:] == (8, 3)
    assert ds.targets.shape[1:] == (3,)
    assert len(ds.train_idx) > 0 and len(ds.test_idx) > 0
    assert np.intersect1d(ds.train_idx, ds.test_idx).size == 0
    again = tr.lorenz_trajectories(5, count=4, steps=400, dt=0.01, sample_every=10)
    assert np.array_equal(ds.inputs, again.inputs)


def test_train_zero_epochs_is_noop():
    ds = tr.make_rgb_blobs(2, samples_per_class=12)
    net = tr.blobs_classifier("real", seed=0, channels=6)
    before = [p.data.copy() for p in net.parameters()]
    m = tr.train(net, ds, tr.TrainConfig(epochs=0, task="classification"))
    assert m.losses == [] and m.scores == []
    for p, b in zip(net.parameters(), before):
        assert np.array_equal(p.data, b)


def test_train_recovers_planted_linear_weights():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((256, 4))
    w_true = np.array([[1.5, -2.0, 0.5, 3.0]])
    b_true = np.array([0.7])
    y = x @ w_true.T + b_true
    ds = tr.Dataset(x, y, np.arange(192), np.arange(192, 256))
    layer = HFCLayer(alg.builtin("real"), 4, 1, activation="none",
                     rng=np.random.default_rng(0))
    net = tr.Network([layer])
    cfg = tr.TrainConfig(seed=3, epochs=400, batch_size=64, lr=0.05, task="regression")
    metrics = tr.train(net, ds, cfg)
    assert metrics.losses[-1] < metrics.losses[0]
    assert np.max(np.abs(layer.f.data[0] - w_true)) < 1e-3
    assert abs(layer.bias.data[0] - b_true[0]) < 1e-3


def test_train_is_deterministic():
    ds = tr.make_rgb_blobs(4, samples_per_class=20)
    runs = []
    for _ in range(2):
        net = tr.blobs_classifier("phc", seed=9, channels=6)
        cfg = tr.TrainConfig(seed=9, epochs=2, batch_size=16, lr=1e-3,
                             task="classification")
        runs.append(tr.train(net, ds, cfg))
    assert runs[0].losses == runs[1].losses
    assert runs[0].scores == runs[1].scores


def test_forecaster_capacities_match_within_ten_percent():
    sizes = {}
    for kind in ("real", "quaternion", "phm", "dual_quaternion"):
        f = tr.lorenz_forecaster(kind, seed=0)
        free, _ = f.net.param_count()
        sizes[kind] = free
    lo, hi = min(sizes.values()), max(sizes.values())
    assert hi / lo <= 1.10, sizes


def test_dual_quaternion_encoding_is_translation_invariant():
    rng = np.random.default_rng(13)
    w = rng.standard_normal((10, 8, 3))
    a = tr.encode_windows_dual_quaternion(w)
    b = tr.encode_windows_dual_quaternion(w + 10.0)
    assert np.max(np.abs(a - b)) < 1e-9


def test_quaternion_encoding_layout():
    w = np.arange(24.0).reshape(1, 8, 3)
    enc = tr.encode_windows_pure_quaternion(w)
    assert enc.shape == (1, 32)
    assert np.all(enc[0, :8] == 0.0)  # real components first
    assert np.array_equal(enc[0, 8:16], w[0, :, 0])  # then all x's


@pytest.mark.parametrize("field,value", [("optimizer", "adagrad"), ("task", "ranking"),
                                         ("batch_size", 0), ("epochs", -1)])
def test_train_config_rejects_bad_values_at_construction(field, value):
    with pytest.raises(ConfigError, match=field):
        tr.TrainConfig(**{field: value})

"""The three benchmark workloads.

Each workload is a closed loop with one caller: this process calls the
library's public functions and waits for each result.  One call of a
workload function is one repetition: set-up (data, encodings, models),
the work itself, and the correctness checks on its outputs.  Inputs come
only from the seed, so every repetition of a run does identical work.
Training runs a fixed epoch budget with early stopping off, so two
commits do the same number of steps; quality is checked, not timed.
"""
from __future__ import annotations

import os
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from instrument import clock

# blobs_train: the criterion-7 texture task at a smaller sample count.  The
# benchmark seed draws the images and the batch order; the networks start
# from the experiment's default seed 42.  With the seed also drawing the
# initial grid matrices, one seed in 50 left the PHC model at 0.80 test
# accuracy after 4 epochs; from seed 42, all 50 data seeds tried reach 1.0
# by epoch 3.
BLOBS = dict(samples_per_class=240, size=16, channels=24, batch_size=64,
             lr=3e-3, epochs=3, model_seed=42)
BLOBS_MIN_ACCURACY = {"phc": 0.90, "real": 0.85}

# lorenz_train: one seed of the criterion-8 experiment, fewer epochs.
LORENZ = dict(trajectories=8, steps=1200, window=8, batch_size=128, lr=5e-3,
              epochs=25)
LORENZ_KINDS = ("real", "quaternion", "phm", "dual_quaternion")
LORENZ_OFFSETS = (1.0, 5.0, 10.0)
LORENZ_MAX_DQ_RATIO = 2.0

# layer_mix: passes over all 8 layer types per repetition.
LAYER_MIX_PASSES = 20
LAYER_MIX_LR = 1e-3
GRADCHECK_MAX_ERROR = 1e-6

# Flags of algebra.PROPERTIES, in order: commutative, associative,
# alternative, power associative.
CANONICAL_FLAGS = {
    "real": (True, True, True, True),
    "complex": (True, True, True, True),
    "quaternion": (False, True, True, True),
    "tessarine": (True, True, True, True),
    "dual_quaternion": (False, True, True, True),
    "octonion": (False, False, True, True),
    "sedenion": (False, False, False, True),
}


@dataclass
class Rep:
    setup_s: float
    run_s: float
    train_samples: int
    checks: list                       # (name, ok, detail)
    quality: dict = field(default_factory=dict)


@dataclass
class Context:
    """What a repetition may use besides the library: span and graph-count
    hooks (no-ops unless traced), the probe's inference record, and a
    scratch directory inside the checkout."""

    span: callable = lambda name: nullcontext()
    count_graph: callable = lambda loss: None
    infer: list = field(default_factory=list)
    scratch_dir: str = "."


def blobs_train(hx, seed, ctx) -> Rep:
    tr = hx.training
    t0 = clock()
    ds = tr.make_rgb_blobs(seed, samples_per_class=BLOBS["samples_per_class"],
                           size=BLOBS["size"])
    nets = {kind: tr.blobs_classifier(kind, seed=BLOBS["model_seed"], channels=BLOBS["channels"])
            for kind in ("phc", "real")}
    setup = clock() - t0
    cfg = tr.TrainConfig(seed=seed, epochs=BLOBS["epochs"], batch_size=BLOBS["batch_size"],
                         lr=BLOBS["lr"], task="classification")
    acc = {}
    for kind, net in nets.items():
        tr.train(net, ds, cfg)
        acc[kind] = tr.evaluate(net, ds.test_inputs, ds.test_targets, "classification")
    run = clock() - t0
    checks = [(f"{kind} test accuracy >= {lo}", acc[kind] >= lo, acc[kind])
              for kind, lo in BLOBS_MIN_ACCURACY.items()]
    return Rep(setup, run, len(nets) * cfg.epochs * len(ds.train_idx), checks,
               {"test_accuracy": acc["phc"], "real_test_accuracy": acc["real"]})


def lorenz_train(hx, seed, ctx) -> Rep:
    tr, geo = hx.training, hx.geometry
    t0 = clock()
    ds = tr.lorenz_trajectories(seed, count=LORENZ["trajectories"], steps=LORENZ["steps"],
                                window=LORENZ["window"])
    models = {}
    for kind in LORENZ_KINDS:
        f = tr.lorenz_forecaster(kind, seed=seed, window=LORENZ["window"])
        enc = tr.Dataset(f.features(ds.inputs), f.train_targets(ds.inputs, ds.targets),
                         ds.train_idx, ds.test_idx)
        models[kind] = (f, enc)
    setup = clock() - t0
    cfg = tr.TrainConfig(seed=seed, epochs=LORENZ["epochs"], batch_size=LORENZ["batch_size"],
                         lr=LORENZ["lr"], task="regression")
    ratio, base = {}, {}
    for kind, (f, enc) in models.items():
        tr.train(f.net, enc, cfg)
        rows = geo.equivariance_report(f.predict, "translation", ds.test_inputs,
                                       ds.test_targets, list(LORENZ_OFFSETS))
        ratio[kind], base[kind] = rows[-1].ratio, rows[0].mse_base
    run = clock() - t0
    dq = ratio["dual_quaternion"]
    off = LORENZ_OFFSETS[-1]
    checks = [(f"dual_quaternion MSE ratio at offset {off} < {LORENZ_MAX_DQ_RATIO}",
               dq < LORENZ_MAX_DQ_RATIO, dq)]
    checks += [(f"{kind} MSE ratio at offset {off} > dual_quaternion's", ratio[kind] > dq,
                ratio[kind]) for kind in ("real", "phm")]
    return Rep(setup, run, len(models) * cfg.epochs * len(ds.train_idx), checks,
               {"test_mse": base["dual_quaternion"],
                **{f"ratio_at_{off:g}.{k}": v for k, v in ratio.items()}})


def _layer_mix_setup(hx, seed):
    """The 8 layer types at fixed mid-size shapes, with their inputs and
    regression targets: (family.kind, layer, forward, target)."""
    T, L, P = hx.tensor, hx.layers, hx.phlayers
    rng = np.random.Generator(np.random.PCG64(seed))
    q = hx.algebra.builtin("quaternion")
    nodes = 64
    edges = [(i, (i + 1) % nodes) for i in range(nodes)]
    edges += [tuple(e) for e in rng.integers(0, nodes, size=(64, 2)) if e[0] != e[1]]
    graph = L.Graph(nodes, edges, rng.standard_normal((nodes, 32)))
    x_fc = T.Tensor(rng.standard_normal((128, 64)))
    x_img = T.Tensor(rng.standard_normal((16, 8, 16, 16)))
    x_tok = T.Tensor(rng.standard_normal((16, 16, 32)))

    def on(x):
        return lambda layer: layer(x)

    def on_graph(layer):
        return layer.forward_graph(graph)

    entries = [
        ("layers.hfc", L.HFCLayer(q, 64, 64, rng=rng), on(x_fc), (128, 64)),
        ("layers.hconv2d", L.HConv2DLayer(q, 8, 8, 3, padding=1, rng=rng), on(x_img),
         (16, 8, 16, 16)),
        ("layers.hatt", L.HAttBlock(q, 8, kernel=3, rng=rng), on(x_img), (16, 8, 16, 16)),
        ("layers.hgraph", L.HGraphConvLayer(q, 32, 32, rng=rng), on_graph, (nodes, 32)),
        ("phlayers.phm", P.PHMLayer(4, 64, 64, activation="relu", rng=rng), on(x_fc),
         (128, 64)),
        ("phlayers.phc", P.PHCLayer(4, 8, 8, 3, padding=1, activation="relu", rng=rng),
         on(x_img), (16, 8, 16, 16)),
        ("phlayers.phatt", P.PHAttBlock(4, 32, heads=2, rng=rng), on(x_tok), (16, 16, 32)),
        ("phlayers.phgraph", P.PHGraphLayer(4, 32, 32, rng=rng), on_graph, (nodes, 32)),
    ]
    return [(name, layer, fwd, rng.standard_normal(shape)) for name, layer, fwd, shape in entries]


def layer_mix(hx, seed, ctx) -> Rep:
    T, tr = hx.tensor, hx.training
    t0 = clock()
    entries = _layer_mix_setup(hx, seed)
    params = [p for _, layer, _, _ in entries for p in layer.parameters()]
    setup = clock() - t0
    state = {}
    mismatched = 0
    for _ in range(LAYER_MIX_PASSES):
        # inference pass: every layer forward under no_grad
        t_inf = clock()
        with T.no_grad():
            inferred = []
            for name, layer, fwd, _ in entries:
                with ctx.span(f"{name}.infer"):
                    inferred.append(fwd(layer).data)
        ctx.infer.append((clock() - t_inf, 1))
        # training pass: one optimizer step over all 8 layers
        tr.zero_grads(params)
        trained = []
        for name, layer, fwd, target in entries:
            with ctx.span(f"{name}.fwd"):
                out = fwd(layer)
            loss = tr.mse(out, target)
            ctx.count_graph(loss)
            with ctx.span(f"{name}.bwd"):
                T.backward(loss)
            trained.append(out.data)
        tr.adam_step(params, state, LAYER_MIX_LR)
        mismatched += sum(not np.array_equal(a, b) for a, b in zip(inferred, trained))

    net = tr.Network([layer for _, layer, _, _ in entries])
    path = os.path.join(ctx.scratch_dir, f"layer_mix-{os.getpid()}.hxnn")
    try:
        hx.serialize.save_model(net, path)
        file_bytes = os.path.getsize(path)
        loaded = hx.serialize.load_model(path)
    finally:
        if os.path.exists(path):
            os.remove(path)
    before, after = net.parameters(), loaded.parameters()
    params_equal = len(before) == len(after) and all(
        a.data.shape == b.data.shape and np.array_equal(a.data, b.data)
        for a, b in zip(before, after))
    with T.no_grad():
        outputs_equal = all(np.array_equal(fwd(layer).data, fwd(copy).data)
                            for (_, layer, fwd, _), copy in zip(entries, loaded.layers))

    worst = max(err for _, err in hx.experiments.gradcheck_all())
    flags = {name: tuple(hx.algebra.check_properties(hx.algebra.builtin(name)).values())
             for name in hx.algebra.BUILTIN_NAMES}
    run = clock() - t0

    checks = [
        ("no_grad forward == grad-mode forward, bit for bit", mismatched == 0,
         f"{mismatched} mismatches in {LAYER_MIX_PASSES * len(entries)}"),
        ("load_model(save_model(net)) parameters, bit for bit", params_equal, len(after)),
        ("load_model(save_model(net)) forward outputs, bit for bit", outputs_equal,
         len(entries)),
        (f"gradcheck_all worst error < {GRADCHECK_MAX_ERROR}", worst < GRADCHECK_MAX_ERROR,
         worst),
        ("check_properties flags of every built-in", flags == CANONICAL_FLAGS, flags),
    ]
    return Rep(setup, run, LAYER_MIX_PASSES, checks,
               {"serialize.file_bytes": file_bytes, "gradcheck_worst": worst})


WORKLOADS = {"blobs_train": blobs_train, "lorenz_train": lorenz_train, "layer_mix": layer_mix}

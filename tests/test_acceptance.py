"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -s``.
"""
import time

import numpy as np
import pytest

from hxnn import algebra as alg
from hxnn import experiments as ex
from hxnn import geometry as G
from hxnn import layers as L
from hxnn import phlayers as P
from hxnn import tensor as T
from hxnn import training as tr

from test_algebra import CANONICAL_FLAGS, CANONICAL_PATTERNS, naive_multiply, parse_pattern
from test_geometry import homogeneous_matrix, random_rt, random_unit_quat, rotation_matrix

SEED = 0xC0FFEE


def report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion-{num}: {detail}")
    assert ok, f"criterion-{num}: {detail}"


# -----------------------------------------------------------------------------
# shared expensive runs (criteria 7, 8, 9)


@pytest.fixture(scope="module")
def blobs_runs():
    cfg = ex.BlobsConfig()  # seed 42, 2000 train / 400 test, 20 epoch budget
    t0 = time.time()
    first = ex.experiment_blobs(cfg)
    elapsed = time.time() - t0
    second = ex.experiment_blobs(cfg)
    return cfg, first, second, elapsed


@pytest.fixture(scope="module")
def lorenz_runs():
    cfg = ex.LorenzConfig()  # 5 seeds, offsets (1, 5, 10)
    t0 = time.time()
    first = ex.experiment_lorenz_equivariance(cfg)
    elapsed = time.time() - t0
    second = ex.experiment_lorenz_equivariance(cfg)
    return cfg, first, second, elapsed


# -----------------------------------------------------------------------------


def test_criterion_1_property_table_and_patterns():
    t0 = time.time()
    flags_ok = True
    for name, expect in CANONICAL_FLAGS.items():
        got = tuple(alg.check_properties(alg.builtin(name)).values())
        flags_ok &= got == expect
    elapsed = time.time() - t0
    patterns_ok = True
    for name in ("quaternion", "octonion"):
        p = alg.left_pattern(alg.builtin(name))
        signs, widx = parse_pattern(CANONICAL_PATTERNS[name])
        patterns_ok &= np.array_equal(p.signs, signs)
        patterns_ok &= np.array_equal(p.weight_indices[signs != 0], widx[signs != 0])
    ok = flags_ok and patterns_ok and elapsed < 10.0
    report(1, ok, f"24/24 property flags, patterns exact, checks took {elapsed:.2f}s")


def test_criterion_2_left_matrix_oracle():
    worst_naive = 0.0
    exact = True
    for name in alg.BUILTIN_NAMES:
        a = alg.builtin(name)
        rng = np.random.Generator(np.random.PCG64(SEED))
        for _ in range(1000):
            w = a.element(rng.standard_normal(a.n))
            x = a.element(rng.standard_normal(a.n))
            via_matrix = alg.left_matrix(a, w) @ x.coeffs
            exact &= np.array_equal(via_matrix, alg.multiply(a, w, x).coeffs)
            worst_naive = max(
                worst_naive,
                float(np.max(np.abs(via_matrix - naive_multiply(a, w.coeffs, x.coeffs)))),
            )
    ok = exact and worst_naive < 1e-12
    report(2, ok, f"matrix path exact, naive-sum oracle diff {worst_naive:.2e}")


def test_criterion_3_parameter_counts():
    q = alg.builtin("quaternion")
    hfc = L.HFCLayer(q, 64, 64)
    free, dense = hfc.param_count()
    hfc_ok = (free - 64, dense - 64) == (1024, 4096)
    phc = P.PHCLayer(3, 24, 24, 3, bias=False)
    pfree, pdense = phc.param_count()
    phc_ok = (pfree, pdense) == (1755, 5184)
    ok = hfc_ok and phc_ok and (free - 64) / (dense - 64) == 0.25
    report(3, ok, f"quaternion fc 1024/4096 (ratio 0.25), phc n=3 {pfree}/{pdense}")


@pytest.mark.parametrize("name,n", [("complex", 2), ("quaternion", 4), ("octonion", 8)])
def test_criterion_4_collapse_equivalence(name, n):
    a = alg.builtin(name)
    d = s = 4 * n
    rng = np.random.Generator(np.random.PCG64(SEED + n))
    hfc = L.HFCLayer(a, d, s, activation="none",
                     rng=np.random.Generator(np.random.PCG64(n)))
    phm = P.PHMLayer(n, d, s, rng=np.random.Generator(np.random.PCG64(n + 1)))
    P.collapse_to_algebra(phm, a)
    for fi, bi in zip(phm.f.data, hfc.f.data):
        fi[...] = bi
    phm.bias.data[...] = hfc.bias.data
    x = T.Tensor(rng.standard_normal((1000, d)))
    diff = float(np.max(np.abs(phm(x).data - hfc(x).data)))
    report(4, diff < 1e-12, f"{name} collapse forward max abs diff {diff:.2e}")


def test_criterion_5_gradients_all_layer_types():
    t0 = time.time()
    results = ex.gradcheck_all(seed=SEED)
    elapsed = time.time() - t0
    worst = max(err for _, err in results)
    ok = worst < 1e-6 and elapsed < 60.0 and len(results) == 8
    report(5, ok, f"8 layer types, worst rel err {worst:.2e} in {elapsed:.1f}s")


def test_criterion_6_geometry_oracles():
    r = np.random.Generator(np.random.PCG64(SEED))
    worst_rot = 0.0
    for _ in range(1000):
        q = random_unit_quat(r)
        v = r.standard_normal(3)
        worst_rot = max(worst_rot, float(np.max(np.abs(
            G.quat_rotate(q, v) - rotation_matrix(q) @ v))))
    worst_dq = 0.0
    worst_comp = 0.0
    for _ in range(1000):
        rt = random_rt(r)
        p = r.standard_normal(3)
        expect = (homogeneous_matrix(rt) @ np.concatenate([p, [1.0]]))[:3]
        worst_dq = max(worst_dq, float(np.max(np.abs(
            G.dq_apply(G.dq_from_rt(rt), p) - expect))))
    for _ in range(300):
        a, b = G.dq_from_rt(random_rt(r)), G.dq_from_rt(random_rt(r))
        p = r.standard_normal(3)
        lhs = G.dq_apply(G.dq_multiply(a, b).normalized(), p)
        rhs = G.dq_apply(a, G.dq_apply(b, p))
        worst_comp = max(worst_comp, float(np.max(np.abs(lhs - rhs))))
    ok = worst_rot < 1e-12 and worst_dq < 1e-10 and worst_comp < 1e-10
    report(6, ok, f"rotate {worst_rot:.2e}, rigid {worst_dq:.2e}, compose {worst_comp:.2e}")


def test_criterion_7_classification(blobs_runs):
    cfg, rep, _, elapsed = blobs_runs
    phc, real = rep.results["phc"], rep.results["real"]
    weight_ratio = phc["conv_weights"] / real["conv_weights"]
    ok = (
        phc["test_accuracy"] >= 0.90
        and real["test_accuracy"] >= 0.85
        and phc["epochs_run"] <= 20
        and weight_ratio <= 0.40
        and elapsed < 300.0
        and rep.probe_accuracy < 0.80
    )
    report(7, ok, (
        f"phc acc {phc['test_accuracy']:.3f} ({phc['epochs_run']} epochs), "
        f"real acc {real['test_accuracy']:.3f}, conv weights {weight_ratio:.2f} "
        f"of dense, probe {rep.probe_accuracy:.3f}, {elapsed:.0f}s"
    ))


def test_criterion_8_equivariance(lorenz_runs):
    cfg, rep, _, elapsed = lorenz_runs
    seeds = range(cfg.seed, cfg.seed + cfg.num_seeds)
    good = 0
    details = []
    for seed in seeds:
        by_model = {r[1]: r[6] for r in rep.rows if r[0] == seed and r[3] == 10.0}
        hit = (by_model["dual_quaternion"] < 2.0
               and by_model["real"] > 10.0
               and by_model["phm"] > 10.0)
        good += hit
        details.append(
            f"s{seed}: dq={by_model['dual_quaternion']:.2f} "
            f"real={by_model['real']:.0f} phm={by_model['phm']:.0f}"
        )
    ok = good >= 4 and elapsed < 600.0
    report(8, ok, f"{good}/{len(list(seeds))} seeds ordinal ({'; '.join(details)}), {elapsed:.0f}s")


def test_criterion_9_determinism(blobs_runs, lorenz_runs):
    _, blobs_a, blobs_b, _ = blobs_runs
    _, lorenz_a, lorenz_b, _ = lorenz_runs
    blobs_same = blobs_a.csv.encode() == blobs_b.csv.encode()
    lorenz_same = lorenz_a.csv.encode() == lorenz_b.csv.encode()
    ok = blobs_same and lorenz_same
    report(9, ok, f"blobs csv identical={blobs_same}, lorenz csv identical={lorenz_same}")

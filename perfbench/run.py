"""hxnn benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload blobs_train --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory.  The run repeats the workload within ``--seconds``,
checks every repetition's outputs, prints each metric by name
with its unit, writes a result file (and with ``--trace 1`` a span file)
under ``perfbench/out/``, and prints as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics from the traced ones, plus the tracing overhead
(median traced repetition over median untraced one, minus 1).
"""
import os

# Pin BLAS and OpenMP to one thread before numpy is imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from instrument import Probe, Tracer, clock, write_trace  # noqa: E402
from workloads import WORKLOADS, Context  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
VJP_REPEATS = 5

# Per-layer metrics: (metric, span name, what is reported).
#   self_ms: self time per repetition; calls: calls per repetition;
#   incl_s: inclusive time per repetition; call_ms: inclusive time per call.
SPAN_METRICS = [
    ("tensor.conv2d.ms", "tensor.conv2d", "self_ms"),
    ("tensor.conv2d.calls", "tensor.conv2d", "calls"),
    ("tensor.backward.ms", "tensor.backward", "self_ms"),
    ("tensor.concat.calls", "tensor.concat", "calls"),
    ("tensor.matmul.ms", "tensor.matmul", "self_ms"),
    ("tensor.kron.ms", "tensor.kron", "self_ms"),
    ("tensor.blockwise_kron2d.ms", "tensor.blockwise_kron2d", "self_ms"),
    ("layers.assembled.ms", "layers.assembled", "self_ms"),
    ("layers.assembled.calls", "layers.assembled", "calls"),
    ("phlayers.weight.ms", "phlayers.weight", "self_ms"),
    ("phlayers.weight.calls", "phlayers.weight", "calls"),
    ("training.adam_step.ms", "training.adam_step", "self_ms"),
    ("training.loss.ms", "training.loss", "self_ms"),
    ("training.make_rgb_blobs.s", "training.make_rgb_blobs", "incl_s"),
    ("training.lorenz_trajectories.s", "training.lorenz_trajectories", "incl_s"),
    ("training.encode_windows_dual_quaternion.s", "training.encode_windows_dual_quaternion",
     "incl_s"),
    ("training.evaluate.ms", "training.evaluate", "self_ms"),
    ("training.predict.ms", "training.predict", "self_ms"),
    ("geometry.equivariance_report.s", "geometry.equivariance_report", "incl_s"),
    ("serialize.save_model.ms", "serialize.save_model", "self_ms"),
    ("serialize.load_model.ms", "serialize.load_model", "self_ms"),
    ("algebra.check_properties.s", "algebra.check_properties", "incl_s"),
]
SPAN_METRICS += [(f"{family}.{kind}.{phase}_ms", f"{family}.{kind}.{phase}", "call_ms")
                 for family, kinds in (("layers", ("hfc", "hconv2d", "hatt", "hgraph")),
                                       ("phlayers", ("phm", "phc", "phatt", "phgraph")))
                 for kind in kinds for phase in ("fwd", "bwd", "infer")]
UNITS = {"self_ms": "ms", "calls": "count", "incl_s": "s", "call_ms": "ms"}


def import_hxnn():
    """Import hxnn from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "hxnn" / "__init__.py").is_file():
        sys.exit(f"error: no hxnn sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    hx = importlib.import_module("hxnn")
    if Path(hx.__file__).resolve().parent != (src / "hxnn").resolve():
        sys.exit(f"error: imported hxnn from {hx.__file__}, not from {src}")
    importlib.import_module("hxnn.serialize")  # the package imports every other module
    return hx


def machine_record():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")
                 if k in blas},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "platform": platform.platform(),
    }


def conv2d_vjp_ms(hx, shapes):
    """Milliseconds per repetition spent in conv2d's vector-Jacobian
    product: for each taped conv2d shape, the median of VJP_REPEATS timed
    backward passes through the public conv2d, times its calls per
    repetition."""
    T = hx.tensor
    rng = np.random.Generator(np.random.PCG64(0))
    total = 0.0
    for (x_shape, w_shape, stride, padding), calls in shapes.items():
        x = T.Tensor(rng.standard_normal(x_shape))
        w = T.Tensor(rng.standard_normal(w_shape), requires_grad=True)
        times = []
        for _ in range(VJP_REPEATS):
            loss = T.sum_(T.conv2d(x, w, stride=stride, padding=padding))
            t0 = clock()
            T.backward(loss)
            times.append(clock() - t0)
        total += calls * statistics.median(times) * 1000.0
    return total


def run_reps(hx, workload, seed, seconds, traced):
    """Repeat the workload for ``seconds``: another repetition starts only
    if one as long as the longest so far still ends in time (at least one
    repetition, two when traced).  With tracing, repetitions alternate
    untraced / traced, starting untraced."""
    probe = Probe()
    probe.install(hx)
    tracer = Tracer(probe) if traced else None
    reps, errors = [], 0
    deadline = clock() + seconds
    try:
        while True:
            gc.collect()
            with_trace = tracer is not None and len(reps) % 2 == 1
            n_steps, n_infer = len(probe.steps), len(probe.infer)
            ctx = Context(infer=probe.infer, scratch_dir=str(OUT_DIR))
            if with_trace:
                tracer.install(hx)
                ctx.span, ctx.count_graph = tracer.span, tracer.count_graph
            try:
                rep = workload(hx, seed, ctx)
            except Exception:
                traceback.print_exc()
                errors += 1
                break
            finally:
                if with_trace:
                    tracer.uninstall()
            rep.traced = with_trace
            rep.steps = probe.steps[n_steps:]
            rep.infer = probe.infer[n_infer:]
            if with_trace:
                rep.stats = tracer.summary()
                rep.spans = tracer.spans
                rep.counts = dict(tracer.counts)
                rep.conv_shapes = tracer.conv_shapes
                rep.nodes = tracer.nodes
            reps.append(rep)
            longest = max(r.run_s for r in reps)
            if clock() + longest > deadline and len(reps) >= (2 if tracer else 1):
                break
    finally:
        probe.uninstall()
    return reps, probe, errors


def end_to_end(reps):
    """Medians over repetitions, rates over the whole run.  Step
    percentiles are taken within each repetition and averaged over
    repetitions: the machine's speed changes within seconds, and a
    percentile of all steps pooled jumps between the fast and slow
    clusters of whichever model's steps sit at that rank."""
    steps = [s for r in reps for s in r.steps]
    infer = [i for r in reps for i in r.infer]
    deciles = [statistics.quantiles([s * 1000.0 for s in r.steps], n=10) for r in reps]
    metrics = {
        "setup_s": (statistics.median(r.setup_s for r in reps), "s"),
        "run_s": (statistics.median(r.run_s for r in reps), "s"),
        "train_samples_per_s": (sum(r.train_samples for r in reps) / sum(steps), "samples/s"),
        "step_ms.p50": (statistics.mean(d[4] for d in deciles), "ms"),
        "step_ms.p90": (statistics.mean(d[8] for d in deciles), "ms"),
        "infer_samples_per_s": (sum(n for _, n in infer) / sum(t for t, _ in infer),
                                "samples/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, {"step_samples": len(steps), "infer_calls": len(infer)}


def per_layer(hx, reps):
    traced = [r for r in reps if r.traced]
    plain = [r for r in reps if not r.traced]
    metrics = {}
    for metric, name, kind in SPAN_METRICS:
        values = []
        for r in traced:
            calls, self_s, incl_s = r.stats.get(name, (0, 0.0, 0.0))
            values.append({"self_ms": self_s * 1000.0, "calls": calls, "incl_s": incl_s,
                           "call_ms": incl_s * 1000.0 / calls if calls else 0.0}[kind])
        metrics[metric] = (statistics.median(values), UNITS[kind])
    metrics["tensor.nodes_per_step"] = (
        statistics.median(r.nodes / len(r.steps) if r.steps else 0 for r in traced), "count")
    metrics["geometry.dq_from_rt.calls"] = (
        statistics.median(r.counts.get("geometry.dq_from_rt", 0) for r in traced), "count")
    metrics["serialize.file_bytes"] = (
        statistics.median(r.quality.get("serialize.file_bytes", 0) for r in traced), "bytes")
    # conv2d shapes and counts are the same in every traced repetition
    metrics["tensor.conv2d_vjp.ms"] = (conv2d_vjp_ms(hx, traced[0].conv_shapes), "ms")
    overhead = (statistics.median(r.run_s for r in traced)
                / statistics.median(r.run_s for r in plain) - 1.0)
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    hx = import_hxnn()
    OUT_DIR.mkdir(exist_ok=True)
    machine = machine_record()
    reps, probe, errors = run_reps(hx, WORKLOADS[args.workload], args.seed, args.seconds,
                                   bool(args.trace))
    if not reps or (args.trace and not any(r.traced for r in reps)):
        sys.exit("error: no usable repetition completed (see the traceback above)")

    checks = [(name, ok, detail) for r in reps for name, ok, detail in r.checks]
    failed_checks = [c for c in checks if not c[1]]
    attempted = probe.losses + len(probe.infer) + len(checks) + errors
    failed = probe.nonfinite + len(failed_checks) + errors
    if args.trace:
        metrics = per_layer(hx, reps)
        extra = {}
    else:
        metrics, extra = end_to_end(reps)
    quality = {k: statistics.median(r.quality[k] for r in reps)
               for k in reps[0].quality}
    extra.update(fail_ratio=failed / attempted, quality=quality,
                 reps=len(reps), traced_reps=sum(r.traced for r in reps))

    tag = f"{args.workload}-seed{args.seed}"
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extra": extra,
        "failed_checks": [[n, repr(d)] for n, _, d in failed_checks],
        "rep_run_s": [r.run_s for r in reps],
        "rep_traced": [r.traced for r in reps],
    }
    (OUT_DIR / f"result-{tag}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, default=str) + "\n")
    if args.trace:
        traced = [r for r in reps if r.traced]
        header = {"workload": args.workload, "seed": args.seed, "machine": machine,
                  "overhead_ratio": metrics["trace.overhead_ratio"][0],
                  "reps": [{"run_s": r.run_s, "counts": r.counts, "nodes": r.nodes,
                            "steps": len(r.steps),
                            "spans": {k: {"calls": c, "self_s": s, "incl_s": i}
                                      for k, (c, s, i) in r.stats.items()}}
                           for r in traced]}
        write_trace(OUT_DIR / f"trace-{tag}.jsonl", header, [r.spans for r in traced])

    print(f"workload {args.workload}  seed {args.seed}  repetitions {len(reps)}"
          f" (traced {extra['traced_reps']})")
    print("machine " + json.dumps(machine))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    for key, value in extra.items():
        print(f"  {key:<44} {value}")
    for name, _, detail in failed_checks:
        print(f"  FAILED CHECK: {name}: {detail!r}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()

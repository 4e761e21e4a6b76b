"""Command-line front end.  Every command formats the result of one
library call; validation failures exit 1, I/O failures exit 2."""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import algebra as alg
from . import config as cfgmod
from . import experiments as ex
from . import serialize
from . import training as tr


def _write(out_dir: Path, name: str, text: str):
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(text, encoding="utf-8", newline="\n")


def cmd_algebra(args) -> int:
    a = alg.builtin(args.name)
    if args.algebra_cmd == "table":
        for line in a.table_lines():
            print(line)
    elif args.algebra_cmd == "check":
        flags = alg.check_properties(a)
        print(" ".join(f"{k}={str(v).lower()}" for k, v in flags.items()))
    else:  # zerodiv
        pair = alg.find_zero_divisor(a, budget=args.budget)
        if pair is None:
            print("none")
        else:
            print(f"x = {pair[0].coeffs.tolist()}")
            print(f"y = {pair[1].coeffs.tolist()}")
    return 0


def cmd_paramtable(args) -> int:
    rows = ex.experiment_param_table(args.spec)
    csv = ex.param_table_csv(rows)
    print(csv, end="")
    if args.out:
        _write(Path(args.out), "paramtable.csv", csv)
    return 0


def cmd_train(args) -> int:
    make_dataset, tcfg, model = cfgmod.read_run(cfgmod.load_config(args.config))
    metrics = tr.train(model, make_dataset(), tcfg)
    free, dense = model.param_count()
    print(f"free_params={free} dense_params={dense}")
    for epoch, (loss, score) in enumerate(zip(metrics.losses, metrics.scores), start=1):
        print(f"epoch={epoch} train_loss={loss!r} test_metric={score!r}")
    out = Path(args.out)
    rows = [(e + 1, l, s) for e, (l, s) in enumerate(zip(metrics.losses, metrics.scores))]
    _write(out, "train.csv", ex.to_csv(("epoch", "train_loss", "test_metric"), rows))
    serialize.save_model(model, out / "model.hxnn")
    print(f"model saved to {out / 'model.hxnn'}")
    return 0


def cmd_eval(args) -> int:
    model = serialize.load_model(args.model)
    make_dataset, tcfg, _ = cfgmod.read_run(cfgmod.load_config(args.config))
    dataset = make_dataset()
    score = tr.evaluate(model, dataset.test_inputs, dataset.test_targets, tcfg.task)
    print(f"test_metric={score!r}")
    return 0


# The config file "section.key" of each experiment field the CLI sets;
# the defaults and value types are the config dataclass's own.
EXPERIMENT_KEYS = {
    ex.LorenzConfig: {"seed": "train.seed", "num_seeds": "train.num_seeds",
                      "trajectories": "data.count", "steps": "data.steps", "dt": "data.dt",
                      "sample_every": "data.sample_every", "window": "data.window",
                      "epochs": "train.epochs", "batch_size": "train.batch_size",
                      "lr": "train.lr", "offsets": "data.offsets"},
    ex.BlobsConfig: {"seed": "train.seed", "samples_per_class": "data.samples_per_class",
                     "image_size": "data.size", "channels": "model.channels",
                     "epochs": "train.epochs", "batch_size": "train.batch_size",
                     "lr": "train.lr", "early_stop_train_loss": "train.early_stop_train_loss"},
}


def cmd_experiment(args) -> int:
    out = Path(args.out)
    cfg = cfgmod.Reads(cfgmod.load_config(args.config) if args.config else {})
    name = args.experiment_cmd
    run, cls = {"lorenz": (ex.experiment_lorenz_equivariance, ex.LorenzConfig),
                "blobs": (ex.experiment_blobs, ex.BlobsConfig)}[name]
    exp_cfg = cfgmod.dataclass_from(cls, cfg, EXPERIMENT_KEYS[cls], args.seed)
    cfg.reject_unread(f"experiment {name}")
    report = run(exp_cfg)
    print(report.summary, end="")
    _write(out, f"{name}.csv", report.csv)
    _write(out, f"{name}_summary.txt", report.summary)
    return 0


def cmd_gradcheck(args) -> int:
    results = ex.gradcheck_all()
    worst = 0.0
    for name, err in results:
        print(f"{name}: max_rel_error={err!r}")
        worst = max(worst, err)
    print(f"worst={worst!r}")
    return 0 if worst < 1e-6 else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hxnn",
                                description="hypercomplex neural layers toolkit")
    sub = p.add_subparsers(dest="cmd", required=True)

    pa = sub.add_parser("algebra", help="inspect built-in algebras")
    suba = pa.add_subparsers(dest="algebra_cmd", required=True)
    for name, hlp in (("table", "print structure constants"),
                      ("check", "print multiplication property flags"),
                      ("zerodiv", "search for a zero-divisor pair")):
        sp = suba.add_parser(name, help=hlp)
        sp.add_argument("name", metavar="{" + ",".join(alg.BUILTIN_NAMES) + "}")
        if name == "zerodiv":
            sp.add_argument("--budget", type=int, default=100_000)
    pa.set_defaults(fn=cmd_algebra)

    pl = sub.add_parser("layers", help="layer utilities")
    subl = pl.add_subparsers(dest="layers_cmd", required=True)
    pt = subl.add_parser("paramtable", help="free vs dense weight counts")
    pt.add_argument("spec", nargs="+", help="fc:<d>:<s> or conv:<in>:<out>:<k>")
    pt.add_argument("--out", default=None)
    pt.set_defaults(fn=cmd_paramtable)

    ptr = sub.add_parser("train", help="train a model from a config file")
    ptr.add_argument("config")
    ptr.add_argument("--out", default="out")
    ptr.set_defaults(fn=cmd_train)

    pe = sub.add_parser("eval", help="evaluate a saved model")
    pe.add_argument("model")
    pe.add_argument("config")
    pe.set_defaults(fn=cmd_eval)

    px = sub.add_parser("experiment", help="run a desk-scale experiment")
    subx = px.add_subparsers(dest="experiment_cmd", required=True)
    for name in ("lorenz", "blobs"):
        sp = subx.add_parser(name)
        sp.add_argument("config", nargs="?", default=None)
        sp.add_argument("--out", default="out")
        sp.add_argument("--seed", type=int, default=None)
        sp.set_defaults(fn=cmd_experiment)

    pg = sub.add_parser("gradcheck", help="finite-difference check of every layer type")
    pg.set_defaults(fn=cmd_gradcheck)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:  # every package error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Instrumentation installed from outside the library.

Nothing here edits the package: every hook replaces a public module or
class attribute that the library looks up at call time, and restores the
original afterwards.

* :class:`Probe` is installed in every run.  It times optimizer steps
  (``training.zero_grads`` starts one, ``training.adam_step`` ends it),
  times no-grad inference (``training.evaluate``, ``Forecaster.predict``)
  and checks every training loss for finiteness.
* :class:`Tracer` is installed only for the traced repetitions of a
  ``--trace 1`` run.  It records one span per call of the wrapped
  functions (name, start, end, parent span) plus a few exact counts, all
  in memory; :func:`write_trace` writes them out when the run ends.
"""
from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

clock = time.perf_counter

# (owner path inside the hxnn package, attribute, span name).  Two owners
# may share a span name: both algebra-bound layers assemble their weight
# through ``assembled``, both PHM-family layers through ``weight``.
SPAN_POINTS = (
    ("tensor", "conv2d", "tensor.conv2d"),
    ("tensor", "backward", "tensor.backward"),
    ("tensor", "concat", "tensor.concat"),
    ("tensor", "matmul", "tensor.matmul"),
    ("tensor", "kron", "tensor.kron"),
    ("tensor", "blockwise_kron2d", "tensor.blockwise_kron2d"),
    ("layers.HFCLayer", "assembled", "layers.assembled"),
    ("layers.HConv2DLayer", "assembled", "layers.assembled"),
    ("phlayers.PHMLayer", "weight", "phlayers.weight"),
    ("phlayers.PHCLayer", "weight", "phlayers.weight"),
    ("training", "adam_step", "training.adam_step"),
    ("training", "cross_entropy", "training.loss"),
    ("training", "mse", "training.loss"),
    ("training", "evaluate", "training.evaluate"),
    ("training.Forecaster", "predict", "training.predict"),
    ("training", "make_rgb_blobs", "training.make_rgb_blobs"),
    ("training", "lorenz_trajectories", "training.lorenz_trajectories"),
    ("training", "encode_windows_dual_quaternion", "training.encode_windows_dual_quaternion"),
    ("geometry", "equivariance_report", "geometry.equivariance_report"),
    ("serialize", "save_model", "serialize.save_model"),
    ("serialize", "load_model", "serialize.load_model"),
    ("algebra", "check_properties", "algebra.check_properties"),
)

# Called thousands of times per run from per-window loops: counted, not spanned.
COUNT_POINTS = (("geometry", "dq_from_rt", "geometry.dq_from_rt"),)


def _owner(hx, path):
    obj = hx
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


class _Patches:
    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def graph_nodes(loss) -> int:
    """Recorded op nodes reachable from ``loss``: every tensor on the tape
    that still holds a vector-Jacobian closure."""
    seen, stack, count = set(), [loss], 0
    while stack:
        t = stack.pop()
        if t._vjp is None or id(t) in seen:
            continue
        seen.add(id(t))
        count += 1
        stack.extend(t._parents)
    return count


class Probe:
    """Step, inference and loss records common to traced and untraced runs."""

    def __init__(self):
        self.steps = []       # seconds per optimizer step
        self.infer = []       # (seconds, samples) per no-grad inference call
        self.losses = 0       # training losses computed
        self.nonfinite = 0    # of which not finite
        self.in_step = False
        self._t0 = 0.0
        self._patches = _Patches()

    def install(self, hx):
        tr = hx.training
        zero_grads, adam_step = tr.zero_grads, tr.adam_step

        def timed_zero_grads(params):
            self.in_step = True
            self._t0 = clock()
            return zero_grads(params)

        def timed_adam_step(*args, **kwargs):
            state = adam_step(*args, **kwargs)
            self.steps.append(clock() - self._t0)
            self.in_step = False
            return state

        self._patches.set(tr, "zero_grads", timed_zero_grads)
        self._patches.set(tr, "adam_step", timed_adam_step)

        def checked(loss_fn):
            def checked_loss(*args, **kwargs):
                loss = loss_fn(*args, **kwargs)
                self.losses += 1
                if not np.isfinite(loss.data):
                    self.nonfinite += 1
                return loss
            return checked_loss

        self._patches.set(tr, "cross_entropy", checked(tr.cross_entropy))
        self._patches.set(tr, "mse", checked(tr.mse))

        evaluate = tr.evaluate

        def timed_evaluate(model, inputs, *args, **kwargs):
            t0 = clock()
            out = evaluate(model, inputs, *args, **kwargs)
            self.infer.append((clock() - t0, len(inputs)))
            return out

        predict = tr.Forecaster.predict

        def timed_predict(forecaster, windows):
            t0 = clock()
            out = predict(forecaster, windows)
            self.infer.append((clock() - t0, len(windows)))
            return out

        self._patches.set(tr, "evaluate", timed_evaluate)
        self._patches.set(tr.Forecaster, "predict", timed_predict)

    def uninstall(self):
        self._patches.restore()


class Tracer:
    """In-memory spans and counts for one traced repetition at a time."""

    def __init__(self, probe: Probe):
        self.probe = probe
        self.spans = []          # (name, start, end, parent index or -1)
        self.counts = Counter()
        self.conv_shapes = Counter()  # (x shape, w shape, stride, padding) of taped conv2d calls
        self.nodes = 0           # graph nodes walked from training losses
        self._stack = []
        self._counted = None
        self._patches = _Patches()

    def _reset(self):
        self.spans, self.counts, self.conv_shapes = [], Counter(), Counter()
        self.nodes = 0
        self._counted = None

    @contextmanager
    def span(self, name):
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        t0 = clock()
        try:
            yield
        finally:
            t1 = clock()
            stack.pop()
            spans[idx] = (name, t0, t1, parent)

    def _spanned(self, fn, name):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _counted_fn(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def count_graph(self, loss):
        """Add the loss's graph size to the node count, once per loss and
        only inside an optimizer step.  Called before the backward span
        opens, so the walk is not charged to backward."""
        if self.probe.in_step and loss is not self._counted:
            self._counted = loss
            self.nodes += graph_nodes(loss)

    def install(self, hx):
        """Start a fresh record and wrap the span and count points."""
        self._reset()

        def counting_backward(backward):
            def wrapper(loss):
                self.count_graph(loss)
                return backward(loss)
            return wrapper

        def recording_conv2d(conv2d):
            def wrapper(x, w, stride=1, padding=0):
                out = conv2d(x, w, stride=stride, padding=padding)
                if out.requires_grad:
                    self.conv_shapes[(x.data.shape, w.data.shape, stride, padding)] += 1
                return out
            return wrapper

        # applied outside the span, so their own work is not charged to it
        outer = {("tensor", "backward"): counting_backward,
                 ("tensor", "conv2d"): recording_conv2d}
        for path, attr, name in SPAN_POINTS:
            owner = _owner(hx, path)
            fn = self._spanned(owner.__dict__[attr], name)
            if (path, attr) in outer:
                fn = outer[(path, attr)](fn)
            self._patches.set(owner, attr, fn)
        for path, attr, name in COUNT_POINTS:
            owner = _owner(hx, path)
            self._patches.set(owner, attr, self._counted_fn(owner.__dict__[attr], name))

    def uninstall(self):
        self._patches.restore()

    def summary(self):
        """Per span name: [calls, self seconds, inclusive seconds].  Self
        time is the span's duration minus the time its child spans cover."""
        cover = [0.0] * len(self.spans)
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                cover[parent] += t1 - t0
        stats = {}
        for i, (name, t0, t1, _) in enumerate(self.spans):
            s = stats.setdefault(name, [0, 0.0, 0.0])
            s[0] += 1
            s[1] += t1 - t0 - cover[i]
            s[2] += t1 - t0
        return stats


def write_trace(path, header, reps):
    """One JSON header line, then one line per span:
    [rep, span id, name, start, end, parent id]; times in seconds from
    the start of that repetition."""
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for r, spans in enumerate(reps):
            base = min((s[1] for s in spans), default=0.0)
            for i, (name, t0, t1, parent) in enumerate(spans):
                fh.write(json.dumps([r, i, name, round(t0 - base, 9),
                                     round(t1 - base, 9), parent]) + "\n")

"""Outside-in tracing of fairformer's layers.

Nothing under ``src/`` knows about this module. Spans are recorded by
rebinding the module and class attributes through which the program calls
its layers, and restoring them afterwards:

* ``fairformer.autodiff.<op>``: ``model.py`` calls every op as ``ad.<op>``.
  Each op's returned tensor gets its ``_backward_fn`` wrapped as well, so
  backward time is attributed per op.
* names that ``fairformer.train`` imports into its own namespace
  (``forward``, ``build_encodings``, the eigensolvers, ``fuse``, the hop
  aggregators, ``evaluate``), plus ``Adam.step`` and
  ``ModelParams.state_copy``.
* ``fairformer.data.make_folds``, which the benchmark calls during set-up.

Sparse mat-vec products are counted by handing the program a graph whose
adjacency is a ``csr_matrix`` subclass with a counting ``__matmul__``.

Spans are kept in memory as ``[name, start, end, parent, run, attrs]`` lists
and written out once, when the benchmark ends.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import time
from contextlib import contextmanager

import numpy as np
import scipy.sparse as sp

NAME, START, END, PARENT, RUN, ATTRS = range(6)

# Every autodiff op model.py and cross_entropy call. The metric names derive
# from this tuple, so it must match BENCHMARK.json (checked by the self-tests).
AUTODIFF_OPS = ("matmul", "add", "mul", "scale", "layer_norm", "gelu", "softmax_rows",
                "log_softmax_rows", "reshape", "permute", "transpose_last", "pick", "sum_all")


class Tracer:
    """In-memory span recorder; one instance per traced benchmark run."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.run = 0

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.run, None])
        self._open.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._open.pop()

    def annotate(self, idx: int, **attrs) -> None:
        span = self.spans[idx]
        if span[ATTRS] is None:
            span[ATTRS] = {}
        for key, value in attrs.items():
            span[ATTRS][key] = span[ATTRS].get(key, 0) + value

    def count_in_open_span(self, key: str, amount: int = 1) -> None:
        if self._open:
            self.annotate(self._open[-1], **{key: amount})

    def write(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for idx, span in enumerate(spans):
        covered = 0.0
        reach = span[START]
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, reach), min(hi, span[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span[END] - span[START] - covered)
    return out


def _traced(tracer: Tracer, name, fn, annotate=None):
    """Wrap `fn` in a span; `name` may be a callable of the call's arguments."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name(args, kwargs) if callable(name) else name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if annotate is not None:
            tracer.annotate(idx, **annotate(args, out))
        return out

    return wrapper


def _traced_op(tracer: Tracer, op: str, fn):
    fwd_name, bwd_name = f"autodiff.{op}.fwd", f"autodiff.{op}.bwd"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(fwd_name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        flop = 2 * out.data.size * args[0].data.shape[-1] if op == "matmul" else 0
        if flop:
            tracer.annotate(idx, flop=flop)
        inner = out._backward_fn
        if inner is not None:
            tracer.annotate(idx, tape_nodes=1)

            def backward_fn(g):
                bidx = tracer.open(bwd_name)
                try:
                    inner(g)
                finally:
                    tracer.close(bidx)
                if flop:
                    tracer.annotate(bidx, flop=2 * flop)  # dA = g·Bᵀ and dB = Aᵀ·g

            out._backward_fn = backward_fn
        return out

    return wrapper


def _stack_bytes(args, stack):
    return {"bytes": int(stack.tensor.nbytes)}


def _graph_n(args, basis):
    return {"n": int(basis.n)}


def _forward_name(args, kwargs):
    return "model.forward_train" if kwargs.get("training") else "model.forward_eval"


def _forward_rows(args, logits):
    return {"rows": int(logits.data.shape[0])}


def rebinding_targets(tracer: Tracer):
    """(owner, attribute, replacement) for every attribute the traced run rebinds."""
    import fairformer.autodiff as ad
    import fairformer.data as data
    import fairformer.model as model
    import fairformer.train as train

    targets = [(ad, op, _traced_op(tracer, op, getattr(ad, op))) for op in AUTODIFF_OPS]
    targets.append((ad, "backward", _traced(tracer, "autodiff.backward", ad.backward)))
    named = [
        (train, "forward", _forward_name, _forward_rows),
        (train, "build_encodings", "train.build_encodings", None),
        (train, "top_magnitude_eigenpairs", "spectral.top_magnitude", _graph_n),
        (train, "laplacian_small_eigenpairs", "spectral.laplacian", _graph_n),
        (train, "fuse", "spectral.fuse", None),
        (train, "build_group_graph", "hops.group", None),
        (train, "hop_aggregate", "hops.group", _stack_bytes),
        (train, "hop_aggregate_adjacency", "hops.adjacency", _stack_bytes),
        (train, "evaluate", "metrics.evaluate", None),
        (data, "make_folds", "data.make_folds", None),
        (train.Adam, "step", "train.adam_step", None),
        (model.ModelParams, "state_copy", "train.state_copy", None),
    ]
    for owner, attr, name, annotate in named:
        targets.append((owner, attr, _traced(tracer, name, owner.__dict__[attr], annotate)))
    return targets


@contextmanager
def rebound(targets):
    """Set each owner.attribute to its replacement; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, replacement in targets:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def counting_graph(g, tracer: Tracer):
    """The same graph with an adjacency whose `@` counts into the open span."""

    class CountingCSR(sp.csr_matrix):
        def __matmul__(self, other):
            tracer.count_in_open_span("matvecs")
            return super().__matmul__(other)

    return dataclasses.replace(g, adjacency=CountingCSR(g.adjacency))


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(spans, pass_walls: dict, untraced_wall: float) -> dict:
    """Per-layer metrics as the mean over traced passes (span run ids 1..P).

    Times are self times, except `model.forward_train_s` / `model.forward_eval_s`
    and `train.epoch_s`, `train.val_score_s`, which cover the whole call or
    epoch including the autodiff ops inside. `data.make_folds_s` comes from the
    traced set-up (run id 0). Byte and FLOP figures are computed from shapes.
    """
    selfs = self_times(spans)
    passes = sorted(pass_walls)
    npass = len(passes)
    total: dict[str, float] = {}

    def add(key, value):
        total[key] = total.get(key, 0.0) + value

    epochs = []
    for run in passes + [0]:
        idx = [i for i, s in enumerate(spans) if s[RUN] == run]
        if run == 0:
            setup_folds = sum(selfs[i] for i in idx if spans[i][NAME] == "data.make_folds")
            continue
        accounted = 0.0
        for i in idx:
            name, attrs = spans[i][NAME], spans[i][ATTRS] or {}
            dur = spans[i][END] - spans[i][START]
            if name != "train.build_encodings":
                accounted += selfs[i]
            if name.startswith("autodiff.") and name != "autodiff.backward":
                add(f"{name}_s", selfs[i])
                add("autodiff.matmul.gflop", attrs.get("flop", 0) / 1e9)
                add("autodiff.tape_nodes", attrs.get("tape_nodes", 0))
            elif name == "autodiff.backward":
                add("autodiff.backward_self_s", selfs[i])
            elif name.startswith("spectral."):
                add(f"{name}_s", selfs[i])
                matvecs = attrs.get("matvecs", 0)
                add("spectral.matvecs", matvecs)
                add("spectral.basis_mb", matvecs * attrs.get("n", 0) * 8 / 1e6)
            elif name.startswith("hops."):
                add(f"{name}_s", selfs[i])
                add("hops.stack_mb", attrs.get("bytes", 0) / 1e6)
            elif name.startswith("model.forward"):
                add(f"{name}_s", dur)
                add("model.self_s", selfs[i])
            elif name in ("train.adam_step", "train.state_copy", "metrics.evaluate"):
                add(f"{name}_s", selfs[i])
        add("trace.unaccounted_share", 1.0 - accounted / pass_walls[run])

        # An epoch runs from its training forward to the end of the validation
        # forward that follows it; an eval forward right before evaluate() is
        # the test scoring, every other eval forward is validation.
        order = sorted(idx, key=lambda i: spans[i][START])
        train_fw = [i for i in order if spans[i][NAME] == "model.forward_train"]
        eval_fw = [i for i in order if spans[i][NAME] == "model.forward_eval"]
        test_fw = set()
        for i in order:
            if spans[i][NAME] == "metrics.evaluate":
                before = [j for j in eval_fw if spans[j][END] <= spans[i][START]]
                if before:
                    test_fw.add(before[-1])
        for j in eval_fw:
            add("model.eval_nodes", spans[j][ATTRS]["rows"])
            if j not in test_fw:
                add("train.val_score_s", spans[j][END] - spans[j][START])
        for i in train_fw:
            after = [j for j in eval_fw if spans[j][START] >= spans[i][END]]
            if after:
                epochs.append(spans[after[0]][END] - spans[i][START])
        add("train.epochs", len(train_fw))

    metrics = {key: value / npass for key, value in total.items()}
    matmul_s = metrics.get("autodiff.matmul.fwd_s", 0.0) + metrics.get("autodiff.matmul.bwd_s", 0.0)
    metrics["autodiff.matmul.gflops_rate"] = (
        metrics.get("autodiff.matmul.gflop", 0.0) / matmul_s if matmul_s else 0.0)
    metrics["train.epoch_s.p50"] = _pct(epochs, 50)
    metrics["train.epoch_s.p90"] = _pct(epochs, 90)
    metrics["data.make_folds_s"] = setup_folds
    walls = [pass_walls[r] for r in passes]
    metrics["trace.wall_s"] = float(np.median(walls))
    metrics["trace.overhead_s"] = float(np.median(walls)) - untraced_wall
    return metrics

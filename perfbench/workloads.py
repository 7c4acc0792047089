"""The three benchmark workloads, each driving only fairformer's public API.

Every workload is closed-loop: one caller, and the next call starts after the
previous one returns. A run draws one instance per pass from the benchmark
seed (instance seed = seed * 1000 + pass index):

* the graph's edge structure is the library generator's graph at its default
  seed 0, so every instance poses an eigenproblem of the same difficulty (the
  Krylov dimension at t=5 moves by ~20 % between generator seeds, which would
  swamp any regression bound);
* the instance seed permutes the node ids and seeds the splits, the
  eigensolver start vector, the parameter initialization and dropout. The
  start vector alone moves the t=5 Krylov dimension between ~250 and ~285, so
  a run reports medians over several instances.
"""

from __future__ import annotations

import hashlib
import math
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

import fairformer.data as ff_data
import fairformer.train as ff_train
from fairformer.data import Graph, SplitSpec
from fairformer.synth import benchmark_graph, sensitive_block_graph

from spans import rebound

RESIDUAL_TOL = 1e-8  # ‖Av − λv‖ ≤ tol·max(1, |λ|); the solver targets 1e-10
ORTHONORMAL_TOL = 1e-10
REFERENCE_TOL = 1e-8


@dataclass
class Checks:
    """Operations attempted and failed: timed public calls and output checks."""

    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)
        return ok


@dataclass
class Inputs:
    graph: Graph
    seed: int
    splits: list | None = None


@dataclass
class Outcome:
    """One workload pass: timings plus what the checks compare."""

    wall: float
    encode: float
    epochs: int = 0
    text: str = ""
    digest: str = ""
    accuracy: float = math.nan
    delta_sp: float = math.nan
    calls: list = field(default_factory=list)
    error: str | None = None


def instance(generator, n: int, seed: int) -> Graph:
    """The generator's seed-0 graph with node ids permuted by `seed`."""
    g = generator(n, seed=0)
    perm = np.random.default_rng(seed).permutation(g.n)
    return Graph(adjacency=g.adjacency[perm][:, perm].tocsr(), features=g.features[perm],
                 sensitive_index=g.sensitive_index, labels=g.labels[perm],
                 label_mask=g.label_mask[perm])


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _capture(fn, sink):
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        sink.append(out)
        return out
    return wrapper


class TrainWorkload:
    """`train()` with a fixed epoch count below `patience`, so no fold stops early."""

    def __init__(self, generator, n: int, **config):
        self.generator = generator
        self.n = n
        self.config = config

    def cfg(self, seed: int):
        return ff_train.TrainConfig(seed=seed, **self.config)

    def setup(self, seed: int) -> Inputs:
        g = instance(self.generator, self.n, seed)
        cfg = self.cfg(seed)
        splits = ff_data.make_folds(g, SplitSpec(seed=seed, folds=cfg.folds))
        return Inputs(graph=g, seed=seed, splits=splits)

    def run_pass(self, inputs: Inputs) -> Outcome:
        stacks = []
        with rebound([(ff_train, "build_encodings", _capture(ff_train.build_encodings, stacks))]):
            start = time.perf_counter()
            result = ff_train.train(inputs.graph, self.cfg(inputs.seed),
                                    splits=inputs.splits, serial=True)
            wall = time.perf_counter() - start
        return Outcome(wall=wall, encode=result.encode_seconds, epochs=sum(result.epochs_run),
                       text=result.summary_text(), digest=_digest(s.tensor for s in stacks),
                       accuracy=result.mean["accuracy"], delta_sp=result.mean["delta_sp"],
                       calls=[result])

    def check_pass(self, inputs: Inputs, out: Outcome, checks: Checks) -> None:
        result = out.calls[0]
        cfg = self.cfg(inputs.seed)
        checks.record(result.epochs_run == [cfg.epochs] * cfg.folds,
                      f"epochs_run {result.epochs_run} != {cfg.epochs} per fold")
        values = [*result.mean.values(), *result.std.values()]
        for r in result.fold_reports:
            values += [r.accuracy, r.delta_sp, r.f1, r.auc]
        checks.record(all(math.isfinite(v) for v in values), "non-finite metric")
        pairs = [(r.accuracy, r.delta_sp) for r in result.fold_reports]
        pairs.append((result.mean["accuracy"], result.mean["delta_sp"]))
        checks.record(all(0.0 <= a <= 1.0 and 0.0 <= d <= 1.0 for a, d in pairs),
                      f"accuracy/delta_sp outside [0, 1]: {pairs}")

    def check_once(self, inputs: Inputs, out: Outcome, checks: Checks) -> None:
        pass


# (label, TrainConfig overrides): the preprocessing of `ablate` at t=5, then
# that of `sweep --param t` for t=1..4.
SWEEP_CALLS = ([(f"t5.{v}", {"t": 5, "ablation": v}) for v in ff_train.ABLATION_VARIANTS]
               + [(f"t{t}.full", {"t": t}) for t in (1, 2, 3, 4)])


@dataclass
class EncodeCall:
    label: str
    stack: object
    basis: object | None


class EncodeSweep:
    """`build_encodings()` for every ablation variant at t=5 and `full` at t=1..4."""

    def __init__(self, n: int):
        self.n = n

    def setup(self, seed: int) -> Inputs:
        return Inputs(graph=instance(benchmark_graph, self.n, seed), seed=seed)

    def run_pass(self, inputs: Inputs) -> Outcome:
        bases = []
        rebinds = [(ff_train, name, _capture(getattr(ff_train, name), bases))
                   for name in ("top_magnitude_eigenpairs", "laplacian_small_eigenpairs")]
        calls = []
        wall = 0.0
        with rebound(rebinds):
            for label, overrides in SWEEP_CALLS:
                cfg = ff_train.TrainConfig(seed=inputs.seed, **overrides)
                bases.clear()
                start = time.perf_counter()
                stack = ff_train.build_encodings(inputs.graph, cfg)
                wall += time.perf_counter() - start
                calls.append(EncodeCall(label, stack, bases[0] if bases else None))
        return Outcome(wall=wall, encode=wall, calls=calls,
                       digest=_digest(c.stack.tensor for c in calls))

    def check_pass(self, inputs: Inputs, out: Outcome, checks: Checks) -> None:
        g = inputs.graph
        degrees = np.asarray(g.adjacency.sum(axis=1)).ravel()
        for call in out.calls:
            tensor, basis = call.stack.tensor, call.basis
            if basis is not None:
                v, lam = basis.structure_matrix, basis.eigenvalues
                av = g.adjacency @ v
                if basis.source == "laplacian":
                    av = degrees[:, None] * v - av
                resid = np.linalg.norm(av - v * lam, axis=0)
                checks.record(bool(np.all(resid <= RESIDUAL_TOL * np.maximum(1.0, np.abs(lam)))),
                              f"{call.label}: residuals {resid}")
                gram = v.T @ v - np.eye(v.shape[1])
                checks.record(float(np.abs(gram).max(initial=0.0)) <= ORTHONORMAL_TOL,
                              f"{call.label}: basis columns not orthonormal")
                checks.record(np.array_equal(tensor[:, 0, g.d:], v),
                              f"{call.label}: structure columns differ from the basis")
            if not call.label.endswith("adj_nf"):  # group-mean hops keep s verbatim
                sens = tensor[:, :, g.sensitive_index]
                checks.record(bool(np.all(sens == g.sensitive[:, None])),
                              f"{call.label}: sensitive column altered by hops")

    def check_once(self, inputs: Inputs, out: Outcome, checks: Checks) -> None:
        """Eigenvalues against an independent ARPACK reference, outside the timed section."""
        g = inputs.graph
        ref_adj = eigsh(g.adjacency, k=5, which="LM", tol=1e-12, return_eigenvectors=False)
        ref_adj = ref_adj[np.argsort(-np.abs(ref_adj), kind="stable")]
        lap = sp.diags(np.asarray(g.adjacency.sum(axis=1)).ravel()) - g.adjacency
        ref_lap = np.sort(eigsh(lap, k=6, which="SA", tol=1e-12, return_eigenvectors=False))[1:]
        for call in out.calls:
            if call.basis is None:
                continue
            lam = call.basis.eigenvalues
            ref = ref_lap if call.basis.source == "laplacian" else ref_adj[:lam.size]
            ok = lam.shape == ref.shape and bool(
                np.all(np.abs(lam - ref) <= REFERENCE_TOL * np.maximum(1.0, np.abs(ref))))
            checks.record(ok, f"{call.label}: eigenvalues {lam} vs eigsh {ref}")


WORKLOADS = {
    # README's `train --synthetic 1000` run with the default TrainConfig: train
    # set <= 100 nodes, validation 250; backward + Adam and per-epoch
    # validation scoring dominate, encoding is under 1 %.
    "cv_train": TrainWorkload(sensitive_block_graph, 1000, folds=3, epochs=20),
    # Large-batch forward-only scoring of 4000 val/test nodes plus a
    # past-the-gap eigensolve (m ~ 265); backward and optimizer are ~3 %.
    "large_train": TrainWorkload(benchmark_graph, 16000, t=5, folds=1, epochs=3),
    # All time in spectral/hops: three identical adjacency solves, the
    # deflated Laplacian path, sparse-adjacency hops, and t inside (m <= 60)
    # and past (m ~ 265) the 4-community spectral gap.
    "encode_sweep": EncodeSweep(16000),
}


def run_pass_safely(workload, inputs: Inputs) -> Outcome:
    """A pass that raises counts as one failed operation; the run goes on."""
    start = time.perf_counter()
    try:
        return workload.run_pass(inputs)
    except Exception:  # the benchmark loop must survive and report the failure
        return Outcome(wall=time.perf_counter() - start, encode=0.0,
                       error=traceback.format_exc())

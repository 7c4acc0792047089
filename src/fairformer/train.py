"""Training loop, cross-validation, ablations, sweeps and scaling benchmarks.

Cross-validation is realized as independent seeded re-splits (the split
protocol is percentage-based, not partition-based), so fold f uses split seed
base + f and its own parameter seed. Checkpoint selection tracks the best
validation accuracy, starting from the initial parameters, so the selected
checkpoint can never be worse on validation than where training began.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import queue
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .data import Graph, Split, SplitSpec, make_folds, split_train_counts
from .errors import FairformerError, SplitError, TrainingError, UndefinedMetricError
from .hops import (HopStack, build_group_graph, hop_aggregate, hop_aggregate_adjacency,
                   scale_columns)
from .metrics import EvalReport, accuracy, evaluate, predict_labels, statistical_parity
from .model import ModelConfig, cross_entropy, forward, init_model, save_model
from .spectral import fuse, laplacian_small_eigenpairs, top_magnitude_eigenpairs
from .synth import _refuse_unfit_benchmark, benchmark_graph

ABLATION_VARIANTS = ("full", "no_st", "lap_st", "no_nf", "adj_nf")
_METRICS = tuple(f.name for f in fields(EvalReport))  # every report and table lists these


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 500
    folds: int = 5
    train_per_class_cap: int = SplitSpec.train_per_class_cap  # training nodes per class in a split
    ablation: str = "full"
    k: int = 2
    t: int = 5
    layers: int = ModelConfig.layers
    heads: int = ModelConfig.heads
    d_hidden: int = ModelConfig.d_hidden
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise FairformerError("epochs must be >= 1")
        if self.folds < 1:
            raise FairformerError("folds must be >= 1")
        if self.k < 0:
            raise FairformerError("k must be >= 0")
        if self.t < 0:
            raise FairformerError(f"t={self.t} must be >= 0")
        if self.ablation not in ABLATION_VARIANTS:
            raise FairformerError(f"ablation must be one of {ABLATION_VARIANTS}")
        if self.seed < 0:
            raise FairformerError(f"seed={self.seed} must be >= 0")
        self.split_spec()  # raises on a bad cap before any data is read
        self.model_config(self.seed)  # raises on a bad model shape before any data is read

    def split_spec(self) -> SplitSpec:
        """The spec `train` draws its folds from: seeds seed, seed + 1, ... of `folds` splits."""
        return SplitSpec(train_per_class_cap=self.train_per_class_cap, seed=self.seed,
                         folds=self.folds)

    def model_config(self, seed: int) -> ModelConfig:
        return ModelConfig(d_hidden=self.d_hidden, layers=self.layers, heads=self.heads,
                           seed=seed)

    def echo(self) -> dict:
        return dict(sorted(self.__dict__.items()))


@dataclass
class RunResult:
    config: dict
    fold_reports: list
    split_hashes: list
    epochs_run: list
    best_epochs: list  # the epoch whose weights each fold keeps; 0 = the initial ones
    stop_reasons: list  # "patience" or "epochs" (the epoch cap) per fold
    t_effective: int
    val_accuracies: list
    mean: dict = field(init=False, default_factory=dict)
    std: dict = field(init=False, default_factory=dict)
    wall_seconds: float = 0.0
    encode_seconds: float = 0.0

    def __post_init__(self):
        for key in _METRICS:
            values = np.array([getattr(r, key) for r in self.fold_reports])
            self.mean[key] = float(values.mean())
            self.std[key] = float(values.std())

    def summary_text(self) -> str:
        """Deterministic report block; wall-clock timing deliberately excluded."""
        lines = [f"config.{k}={v!r}" for k, v in self.config.items()]
        lines.append(f"t_effective={self.t_effective}")
        lines.append(f"folds={len(self.fold_reports)}")
        for i, report in enumerate(self.fold_reports):
            lines.append(f"fold={i} split_hash={self.split_hashes[i][:16]} "
                         f"epochs={self.epochs_run[i]} best_epoch={self.best_epochs[i]} "
                         f"stop={self.stop_reasons[i]} "
                         f"val_accuracy={self.val_accuracies[i]!r} "
                         + " ".join(f"{key}={getattr(report, key)!r}" for key in _METRICS))
        for key in _METRICS:
            lines.append(f"mean.{key}={self.mean[key]!r}")
            lines.append(f"std.{key}={self.std[key]!r}")
            lines.append(f"mean.{key}_pct={self.mean[key] * 100:.2f}")
        return "\n".join(lines)


def build_encodings(g: Graph, cfg: TrainConfig) -> HopStack:
    """Assemble the hop-token stack for a config/ablation variant.

    full   : adjacency eigenvector structure columns + same-group hops
    no_st  : same-group hops over raw features (no structure columns)
    lap_st : Laplacian eigenvectors instead of adjacency eigenvectors
    no_nf  : structure columns but only the hop-0 token (k = 0)
    adj_nf : hops over the graph adjacency instead of the same-group graph

    Same-group hops are group means, a counted stack (see `hops`), built from the
    blocks (features, structure columns), which it holds by reference: only `adj_nf`
    concatenates them through `fuse`. The structure columns are the basis's own,
    unit-norm; `train` scales them in the stack it runs (`scale_columns`). `cfg.t` is
    clamped to the eigenvectors there are. The hop builders refuse a stack that cannot
    fit in physical memory, after the structure solve and before the stack is
    allocated.
    """
    variant = cfg.ablation
    if variant == "no_st":
        blocks = (g.features,)
    else:
        if variant == "lap_st":  # the Laplacian has n - 1 nontrivial eigenvectors
            basis = laplacian_small_eigenpairs(g, min(cfg.t, g.n - 1), seed=cfg.seed)
        else:
            basis = top_magnitude_eigenpairs(g, min(cfg.t, g.n), seed=cfg.seed)
        if variant == "adj_nf":
            return hop_aggregate_adjacency(g, fuse(g, basis), cfg.k)
        blocks = (g.features, basis.structure_matrix)

    k = 0 if variant == "no_nf" else cfg.k
    return hop_aggregate(build_group_graph(g), blocks, k, normalization="group-mean")


def _scaled_encodings(g: Graph, cfg: TrainConfig) -> HopStack:
    """The stack a model runs: `build_encodings`' with its structure columns min-max
    scaled to [-1, 1] (`scale_columns`). `build_encodings` is looked up as this
    module's global on every call, so a caller that rebinds it sees it run."""
    stack = build_encodings(g, cfg)
    scale_columns(stack, g.d)
    return stack


_LEARNING_RATE = 1e-3
_WEIGHT_DECAY = 1e-4
_PATIENCE = 100  # a fold stops after this many epochs without a validation gain
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adaptive-moment estimation at `_LEARNING_RATE`, with classic L2 weight decay
    (`_WEIGHT_DECAY`) folded into grads."""

    def __init__(self, tensors):
        self.tensors = tensors
        self.step_count = 0
        self.m = [np.zeros_like(t.data) for t in tensors]
        self.v = [np.zeros_like(t.data) for t in tensors]

    def step(self):
        self.step_count += 1
        b1, b2 = _ADAM_BETA1, _ADAM_BETA2
        for i, t in enumerate(self.tensors):
            if t.grad is None:
                continue
            g = t.grad + _WEIGHT_DECAY * t.data
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g * g
            mhat = self.m[i] / (1 - b1 ** self.step_count)
            vhat = self.v[i] / (1 - b2 ** self.step_count)
            t.data = t.data - _LEARNING_RATE * mhat / (np.sqrt(vhat) + _ADAM_EPS)


def _rows(stack: HopStack, idx) -> HopStack:
    # tokens are per-node, so forward on a row subset matches the full pass to
    # rounding; not always bit for bit, as a GEMM's last bits can depend on its
    # row count: on numpy's OpenBLAS they moved only for pieces under 16 rows, or
    # for cuts off the 128-row grid. Only the selected rows are built, so training
    # never lays out a whole group-mean stack
    return HopStack(stack.rows(idx), stack.counts)


# threads the program runs at once: the CPUs this process may run on
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


@functools.cache
def _openblas_threads():
    """(get, set) for the thread count of the OpenBLAS that numpy's wheel ships in
    `numpy.libs`, or None where there is no such library."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        put = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


@functools.cache
def _heap_thresholds():
    """Fix glibc's mmap threshold at 8 MiB and its trim threshold at 16 MiB, once per
    process, through `mallopt`. Where the C library has no `mallopt` this does nothing.

    This changes a process-wide allocator setting, for every thread and library in
    the process. glibc starts both thresholds at 128 KiB and raises them only when a
    mapped block larger than the mmap threshold is freed: to that block's size, and
    the trim threshold to twice it. Until then a training step maps each array above
    128 KiB afresh, page-faults it in and hands it back: `train --manifest` on the
    `--synthetic 1000` graph took 131-164k minor faults a run. A 7.6 MiB array (a
    dense 1000 x 1000 draw) freed before training leaves glibc at about these values,
    and the same run then takes about 28k. Fixing them here gives every run that
    state, whatever the process freed before."""
    try:
        libc = ctypes.CDLL(None)
    except OSError:
        return
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(-3, 8 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 16 << 20)  # M_TRIM_THRESHOLD


class _OneBlasThread:
    """Holds numpy's OpenBLAS at one thread while the program runs threads of its
    own, which would otherwise each start BLAS threads on the same cores. Scopes
    may nest or overlap: the last one to close restores the count the first one
    found, also when an error is raised. Without the library a scope does nothing."""

    def __init__(self):
        self._lock = threading.Lock()
        self._open = 0
        self._restore = None

    def __enter__(self):
        with self._lock:
            calls = _openblas_threads() if self._open == 0 else None
            if calls is not None:
                get, put = calls
                self._restore = functools.partial(put, get())
                put(1)
            self._open += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._open -= 1
            if self._open == 0 and self._restore is not None:
                self._restore()
                self._restore = None


_ONE_BLAS_THREAD = _OneBlasThread()

# A set is cut into blocks of this many rows (the last may be shorter), and each
# block once more at its row lo + _SCORE_BLOCK // 2, on a 128-row grid, when at
# least _SHORTEST_CUT rows remain after that cut. So no piece holds more than
# _SCORE_BLOCK // 2 + _SHORTEST_CUT - 1 = 143 rows, and `_score` holds at most
# _WORKERS * 143 rows in flight whatever n is.
_SCORE_BLOCK = 256
_SHORTEST_CUT = 16


def _score_pieces(n: int) -> list:
    """The (lo, hi) row ranges that `_score` runs one forward each on. They depend
    on n alone, never on the worker count, so neither do the logits' bits. Cutting
    a block at its row lo + 128 keeps every block boundary, and a cut is made only
    when it leaves 16 rows or more, so no cut makes a piece under 16 rows: a GEMM
    row's last bits moved with the row count only below 16 rows, or for cuts off
    that grid, on the OpenBLAS numpy ships, and the tests hold the pieces to one
    forward per block, byte for byte. A last block of 1-15 rows is uncut and stays
    a piece of its own, as in one forward per block: `_score_pieces(257)` ends
    with (256, 257). An empty set is one empty piece."""
    half, pieces = _SCORE_BLOCK // 2, []
    for lo in range(0, max(n, 1), _SCORE_BLOCK):
        hi = min(lo + _SCORE_BLOCK, n)
        if hi - (lo + half) >= _SHORTEST_CUT:
            pieces += [(lo, lo + half), (lo + half, hi)]
        else:
            pieces.append((lo, hi))
    return pieces


@functools.cache
def _helper_threads(count: int) -> ThreadPoolExecutor:
    """`count` threads that score `_score`'s pieces beside the caller, started on first
    use and kept for the life of the process. Threads started afresh per call each took
    a malloc arena of their own whenever one began before the last had handed its arena
    back, and each arena kept its own high-water mark: 10 MB more peak memory on some
    runs of `train --synthetic 1000`."""
    return ThreadPoolExecutor(count, thread_name_prefix="fairformer-helper")


def _score(params, stack: HopStack, beside=None):
    """Eval logits of every row of `stack` on the weights `params` holds now (a
    frozen view: `Adam.step` rebinds the arrays), with what `beside` returned (None
    without it). Each `_score_pieces` range is one tape-free `forward`. Up to
    `_WORKERS` threads, the caller's own and the kept `_helper_threads`, take the
    pieces from one shared queue, and numpy's OpenBLAS is held at one thread while
    helpers run. A set of 144 rows or more is at least two pieces, so helpers share
    it also without `beside`. With `beside`, the caller first runs `beside()` while
    the helpers start on the pieces; with one worker the two run one after the
    other. A piece that raises `FairformerError` does not stop the others; the
    first such piece's error is raised once all have run, as if they had run in
    order."""
    frozen = params.frozen()
    pieces = _score_pieces(stack.n)
    todo = queue.SimpleQueue()
    for item in enumerate(pieces):
        todo.put(item)
    logits = [None] * len(pieces)
    failures = {}

    def drain():
        while True:
            try:
                i, (lo, hi) = todo.get_nowait()
            except queue.Empty:
                return
            try:
                logits[i] = forward(frozen, _rows(stack, slice(lo, hi))).data
            except FairformerError as exc:
                failures[i] = exc

    helpers = min(_WORKERS - 1, len(pieces) - (beside is None))
    with _ONE_BLAS_THREAD if helpers > 0 else contextlib.nullcontext():
        futures = [_helper_threads(_WORKERS - 1).submit(drain) for _ in range(helpers)]
        try:
            ahead = None if beside is None else beside()
            drain()
        finally:  # no helper may outlive the scope
            wait(futures)
    for future in futures:
        future.result()
    if failures:
        raise failures[min(failures)]
    return np.concatenate(logits), ahead


def _init_fold(cfg: TrainConfig, d: int, fold: int):
    """Fold `fold`'s initial parameters, its Adam and its dropout stream."""
    seed = cfg.seed * 1000 + fold
    params = init_model(cfg.model_config(seed=seed), d)
    optimizer = Adam(params.trainable())
    return params, optimizer, np.random.default_rng(seed + 7)


def _train_step(params, optimizer, dropout_rng, stack: HopStack, labels, fold: int,
                epoch: int) -> float:
    """One training epoch: a dropout forward over every row of `stack`, the mean
    cross-entropy against `labels`, backward and an Adam step. Returns the loss.

    Every weight's grad is dropped as soon as Adam has applied it (or backward has
    raised), so the next step's forward tape is not built beside a grads-worth of
    arrays that nothing reads again."""
    logits = forward(params, stack, training=True, rng=dropout_rng)
    loss = cross_entropy(logits, labels)
    loss_value = float(loss.data)
    if not np.isfinite(loss_value):
        raise TrainingError(f"fold {fold}: loss diverged to {loss_value} at epoch {epoch}")
    try:
        ad.backward(loss)
        optimizer.step()
    finally:
        ad.zero_grads(params.trainable())
    return loss_value


def _diverged(fold: int, epoch: int, exc: FairformerError) -> TrainingError:
    """The `TrainingError` that ends fold `fold` at `epoch` because of `exc`."""
    if isinstance(exc, TrainingError):
        return exc
    error = TrainingError(f"fold {fold}: training diverged at epoch {epoch}: {exc}")
    error.__cause__ = exc
    return error


def _run_fold(g: Graph, cfg: TrainConfig, stack: HopStack, split: Split, fold: int,
              log_lines: list, models: list | None):
    """Train one fold, keep the weights of its best validation epoch and score its
    test set on them. The fold stops early once `_PATIENCE` epochs in a row have
    not beaten its best validation accuracy. The fold's `ModelParams`, holding
    those weights, is appended to `models` unless that is None; otherwise it is
    dropped when the fold returns.

    Epochs overlap: after step e, the validation set is scored on `snap`, a frozen
    view of epoch e's weights, while the caller runs step e + 1 beside the scoring
    (`_score`'s `beside`). `Adam.step` rebinds each array instead of writing into
    it, so `snap` keeps epoch e's weights, and the best checkpoint is copied from
    it. `_score` returns step e + 1's loss, or the error that ends training
    there, and it is held until epoch e's patience check has run; a fold
    that stops at e drops it, and one that goes on raises it then. The last epoch
    runs nothing ahead. Steps and dropout draws keep their serial order, so the log,
    the report and the checkpoints have the same bytes as when each step waits for
    the scoring before it.
    """
    params, optimizer, dropout_rng = _init_fold(cfg, stack.d, fold)
    train_stack = _rows(stack, split.train)
    train_labels = g.labels[split.train]
    val_stack = _rows(stack, split.val)
    val_labels = g.labels[split.val]
    val_sens = g.sensitive[split.val]

    def step(epoch):
        try:
            return _train_step(params, optimizer, dropout_rng, train_stack, train_labels,
                               fold, epoch)
        except FairformerError as exc:
            return _diverged(fold, epoch, exc)

    def val_metrics(snap, epoch):
        """Epoch `epoch`'s validation accuracy and parity, and the loss or the
        TrainingError of step epoch + 1, run beside the scoring (None after the last)."""
        beside = functools.partial(step, epoch + 1) if epoch < cfg.epochs else None
        logits, ahead = _score(snap, val_stack, beside)
        pred = predict_labels(logits)
        try:
            dsp = statistical_parity(pred, val_sens)
        except UndefinedMetricError:  # a single-group validation set has no parity
            dsp = float("nan")
        return accuracy(pred, val_labels), dsp, ahead

    snap = params.frozen()
    best_acc, _, ahead = val_metrics(snap, 0)  # initial parameters are the first candidate
    best_state = snap.state_copy()
    best_epoch = 0
    stale = 0
    stop = "epochs"

    for epoch in range(1, cfg.epochs + 1):
        loss_value = ahead
        if isinstance(loss_value, TrainingError):
            raise loss_value
        snap = params.frozen()
        try:
            acc, val_dsp, ahead = val_metrics(snap, epoch)
        except FairformerError as exc:
            raise _diverged(fold, epoch, exc) from exc
        log_lines.append(f"fold={fold} epoch={epoch} loss={loss_value!r} val_acc={acc!r} "
                         f"val_delta_sp={val_dsp!r}")
        if acc > best_acc:
            best_acc = acc
            best_state = snap.state_copy()
            best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if stale >= _PATIENCE:
                stop = "patience"
                break

    params.load_state(best_state)
    test_logits, _ = _score(params, _rows(stack, split.test))
    report = evaluate(test_logits, g.labels[split.test], g.sensitive[split.test])
    if models is not None:
        models.append(params)
    return report, best_epoch, epoch, best_acc, stop  # epochs >= 1, so epoch is bound


def train(g: Graph, cfg: TrainConfig, splits: list | None = None, serial: bool = True,
          out_dir=None) -> RunResult:
    """Cross-validated training; one seeded re-split and parameter init per fold.

    Every fold trains with Adam at `_LEARNING_RATE` and `_WEIGHT_DECAY`, dropout
    at `ModelConfig`'s default, and stops after `_PATIENCE` stale epochs; `cfg`
    sets the rest. The stack it trains on is `_scaled_encodings(g, cfg)`, built once,
    inside `encode_seconds`.

    The folds are `make_folds(g, cfg.split_spec())`: `cfg`'s seed, fold count and
    per-class training cap decide them. A caller that draws its own, for example to
    share them between configs, passes `splits`, which must hold `cfg.folds` splits,
    each with the training nodes per class that `split_train_counts` gives at `cfg`'s
    cap, the cap the run records; splits that do not are refused before encoding.
    Folds run one after another on the caller's thread, so the first fold that
    fails ends the run. A finished fold's weights are kept only when `out_dir` is
    given, for its checkpoint, which is written with the other files once every
    fold has run; without `out_dir` they are freed before the next fold starts.
    `serial` is ignored: it stays for callers that still pass it. Fixes the process's
    heap thresholds first (`_heap_thresholds`)."""
    _heap_thresholds()
    start = time.perf_counter()
    if splits is None:
        splits = make_folds(g, cfg.split_spec())
    if len(splits) != cfg.folds:
        raise FairformerError(f"expected {cfg.folds} splits, got {len(splits)}")
    train_counts = split_train_counts(g, cfg.train_per_class_cap)
    for fold, split in enumerate(splits):  # `evaluate` needs both groups and both classes
        sizes = [int(np.sum(col[split.test] == v)) for col in (g.sensitive, g.labels)
                 for v in (0, 1)]
        if 0 in sizes:
            raise SplitError(f"fold {fold}: the test set holds sensitive groups of sizes "
                             f"({sizes[0]}, {sizes[1]}) and classes of sizes ({sizes[2]}, "
                             f"{sizes[3]}); scoring needs both of each")
        for c, want in train_counts.items():  # the config's cap is what the run records
            got = int(np.sum(g.labels[split.train] == c))
            if got != want:
                raise FairformerError(
                    f"fold {fold}: the training set holds {got} nodes of class {c}, but a "
                    f"split at train_per_class_cap={cfg.train_per_class_cap} takes {want}")

    encode_start = time.perf_counter()
    stack = _scaled_encodings(g, cfg)
    encode_seconds = time.perf_counter() - encode_start

    log: list[str] = []
    models = None if out_dir is None else []
    outcomes = [_run_fold(g, cfg, stack, split, fold, log, models)
                for fold, split in enumerate(splits)]

    reports, best_epochs, epochs_run, val_accuracies, stops = map(list, zip(*outcomes))
    result = RunResult(
        config=cfg.echo(),
        fold_reports=reports,
        split_hashes=[s.content_hash() for s in splits],
        epochs_run=epochs_run,
        best_epochs=best_epochs,
        stop_reasons=stops,
        t_effective=stack.d - g.d,
        val_accuracies=val_accuracies,
        wall_seconds=time.perf_counter() - start,
        encode_seconds=encode_seconds,
    )

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "config.txt").write_text(
            "\n".join(f"{k}={v!r}" for k, v in cfg.echo().items()) + "\n")
        (out / "train_log.txt").write_text("\n".join(log) + "\n")
        (out / "report.txt").write_text(result.summary_text() + "\n")
        (out / "timing.txt").write_text(
            f"wall_seconds={result.wall_seconds}\nencode_seconds={result.encode_seconds}\n")
        for fold, params in enumerate(models):
            save_model(out / f"checkpoint_fold{fold}.bin", params)
    return result


def ablate(g: Graph, cfg: TrainConfig) -> dict:
    """All ablation variants, `cfg.ablation` replaced; each draws the same seeded folds
    from `cfg.split_spec()`."""
    return {variant: train(g, replace(cfg, ablation=variant))
            for variant in ABLATION_VARIANTS}


def sweep_configs(cfg: TrainConfig, param: str, values) -> list:
    """[(value, cfg with `param` set to value), ...]; each config is validated here."""
    if param not in ("t", "layers"):
        raise FairformerError("sweep parameter must be 't' or 'layers'")
    return [(int(value), replace(cfg, **{param: int(value)})) for value in values]


def sweep(g: Graph, cfg: TrainConfig, param: str, values) -> list:
    """One training run per parameter value; returns [(value, RunResult), ...] in the
    order given. Runs go from the largest t down, so the first one solves the structure
    basis and every later one takes its first t pairs (see `spectral`); a layers sweep
    shares one t, and the stable sort keeps its order."""
    configs = sweep_configs(cfg, param, values)
    results = {value: train(g, swept)
               for value, swept in sorted(configs, key=lambda run: -run[1].t)}
    return [(value, results[value]) for value, _ in configs]


def sweep_table(param: str, rows) -> str:
    lines = ["\t".join((param,) + _METRICS)]
    for value, result in rows:
        lines.append("\t".join([str(value)] + [repr(result.mean[key]) for key in _METRICS]))
    return "\n".join(lines)


_EXPONENT_LIMIT = 1.3  # largest fitted log-log scaling exponent that passes
_ENCODE_REPEATS = 2  # timed encodes per size; the fastest counts


@dataclass
class BenchReport:
    sizes: list
    encode_seconds: list
    epoch_seconds: list
    encode_exponent: float
    epoch_exponent: float

    @property
    def passed(self) -> bool:
        return (self.encode_exponent <= _EXPONENT_LIMIT
                and self.epoch_exponent <= _EXPONENT_LIMIT)

    def table(self) -> str:
        lines = ["n\tencode_seconds\tepoch_seconds"]
        for n, enc, ep in zip(self.sizes, self.encode_seconds, self.epoch_seconds):
            lines.append(f"{n}\t{enc!r}\t{ep!r}")
        lines.append(f"encode_exponent={self.encode_exponent!r}")
        lines.append(f"epoch_exponent={self.epoch_exponent!r}")
        lines.append(f"exponent_limit={_EXPONENT_LIMIT!r}")
        lines.append(f"passed={int(self.passed)}")
        return "\n".join(lines)


def _fit_exponent(sizes, seconds) -> float:
    slope, _ = np.polyfit(np.log(np.asarray(sizes, dtype=float)),
                          np.log(np.maximum(np.asarray(seconds, dtype=float), 1e-9)), 1)
    return float(slope)


def bench_scaling(sizes, k: int = 2, t: int = 4, d_hidden: int = 32, seed: int = 0,
                  epochs_timed: int = 3) -> BenchReport:
    """Measure encoding and per-epoch time on synthetic graphs of growing n.

    The timed epoch is `train`'s step (`_train_step`) over all n rows. Fixed k,
    t and feature width; the fitted log-log exponent in n should stay near 1
    for both phases (the pass flag uses the 1.3 ceiling). One untimed encode
    and step on the first graph take the first-call costs before any timing.
    Each size's encode time is the fastest of `_ENCODE_REPEATS`, each on a fresh
    copy of the graph, so it times a cold structure solve rather than the basis
    `spectral` remembers. Every encode, the warm-up's too, builds the stack `train`
    runs (`_scaled_encodings`), structure columns scaled. numpy's OpenBLAS is held at
    one thread throughout: with its own thread pool the fit moved from run to run on
    a 2-vCPU machine.
    A size whose graph cannot fit in physical memory is refused with
    IngestionError before any graph is generated.
    """
    sizes = [int(n) for n in sizes]
    if len(set(sizes)) < 2:
        raise FairformerError("bench_scaling needs at least two distinct sizes to fit an exponent")
    if epochs_timed < 1:
        raise FairformerError(f"epochs_timed={epochs_timed} must be >= 1")
    cfg = TrainConfig(epochs=1, folds=1, k=k, t=t, d_hidden=d_hidden, seed=seed)
    _refuse_unfit_benchmark(max(sizes))  # before the first size is generated
    encode_times, epoch_times = [], []
    with _ONE_BLAS_THREAD:
        for n in sizes:
            g = benchmark_graph(n, seed=seed)
            if not encode_times:  # the untimed warm-up
                stack = _scaled_encodings(replace(g), cfg)
                _train_step(*_init_fold(cfg, stack.d, 0), stack, g.labels, 0, 0)
            best_encode = np.inf
            for _ in range(_ENCODE_REPEATS):
                cold = replace(g)
                start = time.perf_counter()
                stack = _scaled_encodings(cold, cfg)
                best_encode = min(best_encode, time.perf_counter() - start)
            encode_times.append(best_encode)

            stack = _rows(stack, slice(None))  # laid out once, outside the timed steps
            params, optimizer, dropout_rng = _init_fold(cfg, stack.d, 0)
            samples = []
            for epoch in range(1, epochs_timed + 1):
                start = time.perf_counter()
                _train_step(params, optimizer, dropout_rng, stack, g.labels, 0, epoch)
                samples.append(time.perf_counter() - start)
            epoch_times.append(float(np.median(samples)))

    return BenchReport(
        sizes=sizes,
        encode_seconds=encode_times,
        epoch_seconds=epoch_times,
        encode_exponent=_fit_exponent(sizes, encode_times),
        epoch_exponent=_fit_exponent(sizes, epoch_times),
    )

"""Training loop, cross-validation, ablations, sweeps and scaling benchmarks.

Cross-validation is realized as independent seeded re-splits (the split
protocol is percentage-based, not partition-based), so fold f uses split seed
base + f and its own parameter seed. Checkpoint selection tracks the best
validation accuracy, starting from the initial parameters, so the selected
checkpoint can never be worse on validation than where training began.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .data import Graph, Split, SplitSpec, make_folds
from .errors import FairformerError, SplitError, TrainingError, UndefinedMetricError
from .hops import HopStack, build_group_graph, hop_aggregate, hop_aggregate_adjacency
from .metrics import accuracy, evaluate, predict_labels, statistical_parity
from .model import ModelConfig, cross_entropy, forward, init_model, save_model
from .spectral import fuse, laplacian_small_eigenpairs, top_magnitude_eigenpairs
from .synth import benchmark_graph

ABLATION_VARIANTS = ("full", "no_st", "lap_st", "no_nf", "adj_nf")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 500
    learning_rate: float = 1e-3
    weight_decay: float = 1e-5
    patience: int = 100  # early stop on stalled validation accuracy
    folds: int = 5
    ablation: str = "full"
    k: int = 2
    t: int = 5
    layers: int = ModelConfig.layers
    heads: int = ModelConfig.heads
    d_hidden: int = ModelConfig.d_hidden
    dropout: float = ModelConfig.dropout
    scale_structure: bool = False  # min-max structure columns to [-1, 1]
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
        self.model_config(self.seed)  # raises on a bad model shape before any data is read

    def model_config(self, seed: int) -> ModelConfig:
        return ModelConfig(d_hidden=self.d_hidden, layers=self.layers, heads=self.heads,
                           dropout=self.dropout, seed=seed)

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
    mean: dict = field(default_factory=dict)
    std: dict = field(default_factory=dict)
    wall_seconds: float = 0.0
    encode_seconds: float = 0.0

    def __post_init__(self):
        for key in ("accuracy", "delta_sp", "f1", "auc"):
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
                         f"accuracy={report.accuracy!r} delta_sp={report.delta_sp!r} "
                         f"f1={report.f1!r} auc={report.auc!r}")
        for key in ("accuracy", "delta_sp", "f1", "auc"):
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

    Same-group hops are group means; raw hops serve only `verify`'s q^k check.
    Their tokens 1..k are tied (see `hops`), so for k >= 2 the stack is tokens
    0 and 1 with counts (1, k), and k weighs the group token by log k.
    `cfg.t` is clamped to the eigenvectors there are. The hop builders refuse a
    stack that cannot fit in physical memory, after the structure solve and
    before the stack is allocated.
    """
    variant = cfg.ablation
    if variant == "no_st":
        fused = g.features
    elif variant == "lap_st":  # the Laplacian has n - 1 nontrivial eigenvectors
        basis = laplacian_small_eigenpairs(g, min(cfg.t, g.n - 1), seed=cfg.seed)
        fused = fuse(g, basis, scale_structure=cfg.scale_structure)
    else:
        basis = top_magnitude_eigenpairs(g, min(cfg.t, g.n), seed=cfg.seed)
        fused = fuse(g, basis, scale_structure=cfg.scale_structure)

    k = 0 if variant == "no_nf" else cfg.k
    if variant == "adj_nf":
        return hop_aggregate_adjacency(g, fused, k)
    stack = hop_aggregate(build_group_graph(g), fused, min(k, 1), normalization="group-mean")
    return stack if k < 2 else replace(stack, counts=(1, k))


_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adaptive-moment estimation with classic L2 weight decay folded into grads."""

    def __init__(self, tensors, lr, weight_decay=0.0):
        self.tensors = tensors
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = [np.zeros_like(t.data) for t in tensors]
        self.v = [np.zeros_like(t.data) for t in tensors]

    def step(self):
        self.step_count += 1
        b1, b2 = _ADAM_BETA1, _ADAM_BETA2
        for i, t in enumerate(self.tensors):
            if t.grad is None:
                continue
            g = t.grad + self.weight_decay * t.data
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g * g
            mhat = self.m[i] / (1 - b1 ** self.step_count)
            vhat = self.v[i] / (1 - b2 ** self.step_count)
            t.data = t.data - self.lr * mhat / (np.sqrt(vhat) + _ADAM_EPS)


def _rows(stack: HopStack, idx) -> HopStack:
    # tokens are per-node, so forward on a row subset matches the full pass to
    # rounding; not bit for bit, as a GEMM's last bits depend on its row count
    return HopStack(tensor=stack.tensor[idx], counts=stack.counts)


_SCORE_BLOCK = 256  # rows per eval forward; bounds the scoring peak whatever n is


def _score(params, stack: HopStack) -> np.ndarray:
    """Eval logits of every row, one tape-free `forward` per block of rows."""
    frozen = params.frozen()  # fresh per call: Adam.step rebinds the arrays
    return np.concatenate([forward(frozen, _rows(stack, slice(lo, lo + _SCORE_BLOCK))).data
                           for lo in range(0, stack.tensor.shape[0], _SCORE_BLOCK)])


def _init_fold(cfg: TrainConfig, d: int, fold: int):
    """Fold `fold`'s initial parameters, its Adam and its dropout stream."""
    seed = cfg.seed * 1000 + fold
    params = init_model(cfg.model_config(seed=seed), d)
    optimizer = Adam(params.trainable(), lr=cfg.learning_rate, weight_decay=cfg.weight_decay)
    return params, optimizer, np.random.default_rng(seed + 7)


def _train_step(params, optimizer, dropout_rng, stack: HopStack, labels, fold: int,
                epoch: int) -> float:
    """One training epoch: a dropout forward over every row of `stack`, the mean
    cross-entropy against `labels`, backward and an Adam step. Returns the loss."""
    logits = forward(params, stack, training=True, rng=dropout_rng)
    loss = cross_entropy(logits, labels)
    loss_value = float(loss.data)
    if not np.isfinite(loss_value):
        raise TrainingError(f"fold {fold}: loss diverged to {loss_value} at epoch {epoch}")
    ad.zero_grads(params.trainable())
    ad.backward(loss)
    optimizer.step()
    return loss_value


def _run_fold(g: Graph, cfg: TrainConfig, stack: HopStack, split: Split, fold: int,
              log_lines: list):
    params, optimizer, dropout_rng = _init_fold(cfg, stack.d, fold)
    train_stack = _rows(stack, split.train)
    train_labels = g.labels[split.train]
    val_stack = _rows(stack, split.val)
    val_labels = g.labels[split.val]
    val_sens = g.sensitive[split.val]

    def val_metrics():
        pred = predict_labels(_score(params, val_stack))
        try:
            dsp = statistical_parity(pred, val_sens).delta
        except UndefinedMetricError:  # a single-group validation set has no parity
            dsp = float("nan")
        return accuracy(pred, val_labels), dsp

    best_acc, _ = val_metrics()  # initial parameters are the first candidate
    best_state = params.state_copy()
    best_epoch = 0
    stale = 0
    stop = "epochs"

    for epoch in range(1, cfg.epochs + 1):
        try:
            loss_value = _train_step(params, optimizer, dropout_rng, train_stack, train_labels,
                                     fold, epoch)
            acc, val_dsp = val_metrics()
        except TrainingError:
            raise
        except FairformerError as exc:
            raise TrainingError(
                f"fold {fold}: training diverged at epoch {epoch}: {exc}") from exc
        log_lines.append(f"fold={fold} epoch={epoch} loss={loss_value!r} val_acc={acc!r} "
                         f"val_delta_sp={val_dsp!r}")
        if acc > best_acc:
            best_acc = acc
            best_state = params.state_copy()
            best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if cfg.patience and stale >= cfg.patience:
                stop = "patience"
                break

    params.load_state(best_state)
    test_logits = _score(params, _rows(stack, split.test))
    report = evaluate(test_logits, g.labels[split.test], g.sensitive[split.test])
    return report, params, best_epoch, epoch, best_acc, stop  # epochs >= 1, so epoch is bound


def train(g: Graph, cfg: TrainConfig, split_spec: SplitSpec | None = None,
          splits: list | None = None, serial: bool = True, out_dir=None) -> RunResult:
    """Cross-validated training; one seeded re-split and parameter init per fold."""
    start = time.perf_counter()
    if splits is None:
        splits = make_folds(g, replace(split_spec or SplitSpec(seed=cfg.seed), folds=cfg.folds))
    if len(splits) != cfg.folds:
        raise FairformerError(f"expected {cfg.folds} splits, got {len(splits)}")
    for fold, split in enumerate(splits):  # `evaluate` needs both groups and both classes
        sizes = [int(np.sum(col[split.test] == v)) for col in (g.sensitive, g.labels)
                 for v in (0, 1)]
        if 0 in sizes:
            raise SplitError(f"fold {fold}: the test set holds sensitive groups of sizes "
                             f"({sizes[0]}, {sizes[1]}) and classes of sizes ({sizes[2]}, "
                             f"{sizes[3]}); scoring needs both of each")

    encode_start = time.perf_counter()
    stack = build_encodings(g, cfg)
    encode_seconds = time.perf_counter() - encode_start

    logs: list[list[str]] = [[] for _ in splits]

    def job(fold):
        return _run_fold(g, cfg, stack, splits[fold], fold, logs[fold])

    if serial or len(splits) == 1:
        outcomes = [job(f) for f in range(len(splits))]
    else:
        with ThreadPoolExecutor(max_workers=min(4, len(splits))) as pool:
            outcomes = list(pool.map(job, range(len(splits))))

    reports, models, best_epochs, epochs_run, val_accuracies, stops = map(list, zip(*outcomes))
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
        from pathlib import Path
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "config.txt").write_text(
            "\n".join(f"{k}={v!r}" for k, v in cfg.echo().items()) + "\n")
        (out / "train_log.txt").write_text(
            "\n".join(line for fold_log in logs for line in fold_log) + "\n")
        (out / "report.txt").write_text(result.summary_text() + "\n")
        (out / "timing.txt").write_text(
            f"wall_seconds={result.wall_seconds}\nencode_seconds={result.encode_seconds}\n")
        for fold, params in enumerate(models):
            save_model(out / f"checkpoint_fold{fold}.bin", params)
    return result


def ablate(g: Graph, cfg: TrainConfig, split_spec: SplitSpec | None = None,
           serial: bool = True) -> dict:
    """All ablation variants, each drawing the same folds (asserted via split hashes)."""
    results = {variant: train(g, replace(cfg, ablation=variant), split_spec=split_spec,
                              serial=serial)
               for variant in ABLATION_VARIANTS}
    if len({tuple(r.split_hashes) for r in results.values()}) != 1:
        raise FairformerError("ablation variants diverged on splits")
    return results


def sweep_configs(cfg: TrainConfig, param: str, values) -> list:
    """[(value, cfg with `param` set to value), ...]; each config is validated here."""
    if param not in ("t", "layers"):
        raise FairformerError("sweep parameter must be 't' or 'layers'")
    return [(int(value), replace(cfg, **{param: int(value)})) for value in values]


def sweep(g: Graph, cfg: TrainConfig, param: str, values, split_spec: SplitSpec | None = None,
          serial: bool = True) -> list:
    """One training run per parameter value; returns [(value, RunResult), ...] in the
    order given. A t sweep trains from the largest t down, so the first run solves the
    structure basis and every later one takes its first t pairs (see `spectral`)."""
    configs = sweep_configs(cfg, param, values)
    runs = sorted(configs, key=lambda run: -run[0]) if param == "t" else configs
    results = {value: train(g, swept, split_spec=split_spec, serial=serial)
               for value, swept in runs}
    return [(value, results[value]) for value, _ in configs]


def sweep_table(param: str, rows) -> str:
    lines = [f"{param}\taccuracy\tdelta_sp\tf1\tauc"]
    for value, result in rows:
        lines.append(f"{value}\t{result.mean['accuracy']!r}\t{result.mean['delta_sp']!r}"
                     f"\t{result.mean['f1']!r}\t{result.mean['auc']!r}")
    return "\n".join(lines)


_EXPONENT_LIMIT = 1.3  # largest fitted log-log scaling exponent that passes


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
                  epochs_timed: int = 3, repeats: int = 2) -> BenchReport:
    """Measure encoding and per-epoch time on synthetic graphs of growing n.

    The timed epoch is `train`'s step (`_train_step`) over all n rows. Fixed k,
    t and feature width; the fitted log-log exponent in n should stay near 1
    for both phases (the pass flag uses the 1.3 ceiling). One untimed encode
    and step on the first graph take the first-call costs before any timing,
    and every timed encode runs on a fresh copy of the graph, so it times a
    cold structure solve rather than the basis `spectral` remembers.
    """
    sizes = [int(n) for n in sizes]
    if len(set(sizes)) < 2:
        raise FairformerError("bench_scaling needs at least two distinct sizes to fit an exponent")
    if epochs_timed < 1:
        raise FairformerError(f"epochs_timed={epochs_timed} must be >= 1")
    cfg = TrainConfig(epochs=1, folds=1, k=k, t=t, d_hidden=d_hidden, seed=seed)
    encode_times, epoch_times = [], []
    for n in sizes:
        g = benchmark_graph(n, seed=seed)
        if not encode_times:  # the untimed warm-up
            stack = build_encodings(replace(g), cfg)
            _train_step(*_init_fold(cfg, stack.d, 0), stack, g.labels, 0, 0)
        best_encode = np.inf
        for _ in range(repeats):
            cold = replace(g)
            start = time.perf_counter()
            stack = build_encodings(cold, cfg)
            best_encode = min(best_encode, time.perf_counter() - start)
        encode_times.append(best_encode)

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

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
from .errors import FairformerError, TrainingError
from .hops import HopStack, build_group_graph, hop_aggregate, hop_aggregate_adjacency
from .metrics import evaluate, predict_labels
from .model import ModelConfig, cross_entropy, forward, init_model, save_model
from .spectral import FusedFeatures, fuse, laplacian_small_eigenpairs, top_magnitude_eigenpairs
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
    layers: int = 1
    heads: int = 1
    d_hidden: int = 128
    dropout: float = 0.1
    normalization: str = "group-mean"  # hop normalization for training
    adjacency_normalization: str = "raw"  # adj_nf hops: "raw" or "row-mean"
    eval_on: str = "test"  # metrics over the test mask, or "all" labeled nodes
    fair_selection_threshold: float | None = None  # checkpoint: best val acc with val delta_sp below this
    scale_structure: bool = False  # min-max structure columns to [-1, 1]
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise FairformerError("epochs must be >= 1")
        if self.folds < 1:
            raise FairformerError("folds must be >= 1")
        if self.ablation not in ABLATION_VARIANTS:
            raise FairformerError(f"ablation must be one of {ABLATION_VARIANTS}")
        if self.eval_on not in ("test", "all"):
            raise FairformerError("eval_on must be 'test' or 'all'")

    def model_config(self, seed: int) -> ModelConfig:
        return ModelConfig(k=self.k, t=self.t, d_hidden=self.d_hidden, layers=self.layers,
                           heads=self.heads, dropout=self.dropout, seed=seed)

    def echo(self) -> dict:
        return dict(sorted(self.__dict__.items()))


@dataclass
class RunResult:
    config: dict
    fold_reports: list
    split_hashes: list
    epochs_run: list
    val_accuracies: list = field(default_factory=list)
    mean: dict = field(default_factory=dict)
    std: dict = field(default_factory=dict)
    wall_seconds: float = 0.0
    encode_seconds: float = 0.0

    def __post_init__(self):
        if self.fold_reports and not self.mean:
            for key in ("accuracy", "delta_sp", "f1", "auc"):
                values = np.array([getattr(r, key) for r in self.fold_reports])
                self.mean[key] = float(values.mean())
                self.std[key] = float(values.std())

    def summary_text(self) -> str:
        """Deterministic report block; wall-clock timing deliberately excluded."""
        lines = [f"config.{k}={v!r}" for k, v in self.config.items()]
        lines.append(f"folds={len(self.fold_reports)}")
        for i, report in enumerate(self.fold_reports):
            lines.append(f"fold={i} split_hash={self.split_hashes[i][:16]} "
                         f"epochs={self.epochs_run[i]} "
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
    """
    variant = cfg.ablation
    if variant == "no_st":
        fused = FusedFeatures(matrix=g.features, d_original=g.d,
                              sensitive_index=g.sensitive_index)
    elif variant == "lap_st":
        t_eff = min(cfg.t, max(g.n - 1, 0))
        basis = laplacian_small_eigenpairs(g, t_eff, seed=cfg.seed)
        fused = fuse(g, basis, scale_structure=cfg.scale_structure)
    else:
        t_eff = min(cfg.t, g.n)
        basis = top_magnitude_eigenpairs(g, t_eff, seed=cfg.seed)
        fused = fuse(g, basis, scale_structure=cfg.scale_structure)

    if variant == "adj_nf":
        return hop_aggregate_adjacency(g, fused, cfg.k, normalization=cfg.adjacency_normalization)
    k = 0 if variant == "no_nf" else cfg.k
    sg = build_group_graph(g)
    return hop_aggregate(sg, fused, k, normalization=cfg.normalization)


class Adam:
    """Adaptive-moment estimation with classic L2 weight decay folded into grads."""

    def __init__(self, tensors, lr, weight_decay=0.0, betas=(0.9, 0.999), eps=1e-8):
        self.tensors = tensors
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.step_count = 0
        self.m = [np.zeros_like(t.data) for t in tensors]
        self.v = [np.zeros_like(t.data) for t in tensors]

    def step(self):
        self.step_count += 1
        b1, b2 = self.beta1, self.beta2
        for i, t in enumerate(self.tensors):
            if t.grad is None:
                continue
            g = t.grad + self.weight_decay * t.data
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g * g
            mhat = self.m[i] / (1 - b1 ** self.step_count)
            vhat = self.v[i] / (1 - b2 ** self.step_count)
            t.data = t.data - self.lr * mhat / (np.sqrt(vhat) + self.eps)


def _fold_seed(base: int, fold: int) -> int:
    return base * 1000 + fold


def _rows(stack: HopStack, idx) -> HopStack:
    # tokens are per-node, so forward on a row subset matches the full pass
    return HopStack(tensor=stack.tensor[idx], k=stack.k,
                    normalization=stack.normalization,
                    sensitive_index=stack.sensitive_index)


def _run_fold(g: Graph, cfg: TrainConfig, stack: HopStack, split: Split, fold: int,
              log_lines=None):
    mcfg = cfg.model_config(seed=_fold_seed(cfg.seed, fold))
    params = init_model(mcfg, stack.d)
    optimizer = Adam(params.trainable(), lr=cfg.learning_rate, weight_decay=cfg.weight_decay)
    dropout_rng = np.random.default_rng(_fold_seed(cfg.seed, fold) + 7)

    train_stack = _rows(stack, split.train)
    val_stack = _rows(stack, split.val)
    train_labels = g.labels[split.train]
    train_rows = np.arange(split.train.size)
    val_labels = g.labels[split.val]
    val_sens = g.sensitive[split.val]

    def val_metrics():
        logits = forward(params, val_stack).data
        pred = predict_labels(logits)
        acc = float((pred == val_labels).mean())
        in1 = val_sens == 1
        if in1.any() and (~in1).any():
            dsp = abs(float(pred[~in1].mean()) - float(pred[in1].mean()))
        else:
            dsp = 0.0
        return acc, dsp

    def selectable(dsp: float) -> bool:
        return (cfg.fair_selection_threshold is None
                or dsp <= cfg.fair_selection_threshold)

    acc0, dsp0 = val_metrics()  # initial parameters are the first candidate
    best_acc = acc0
    best_qualified = selectable(dsp0)
    best_state = params.state_copy()
    best_epoch = 0
    stale = 0
    epochs_done = 0

    for epoch in range(1, cfg.epochs + 1):
        try:
            logits = forward(params, train_stack, training=True, rng=dropout_rng)
            loss = cross_entropy(logits, train_labels, train_rows)
            loss_value = float(loss.data)
            if not np.isfinite(loss_value):
                raise TrainingError(f"fold {fold}: loss diverged to {loss_value} at epoch {epoch}")
            ad.zero_grads(params.trainable())
            ad.backward(loss)
            optimizer.step()
            acc, val_dsp = val_metrics()
        except TrainingError:
            raise
        except FairformerError as exc:
            raise TrainingError(
                f"fold {fold}: training diverged at epoch {epoch}: {exc}") from exc
        epochs_done = epoch
        if log_lines is not None:
            log_lines.append(f"fold={fold} epoch={epoch} loss={loss_value!r} val_acc={acc!r} "
                             f"val_delta_sp={val_dsp!r}")
        qualified = selectable(val_dsp)
        # a qualified checkpoint always beats an unqualified one; ties on accuracy
        if (qualified and not best_qualified) or \
                (qualified == best_qualified and acc > best_acc):
            best_acc = acc
            best_qualified = qualified
            best_state = params.state_copy()
            best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if cfg.patience and stale >= cfg.patience:
                break

    params.load_state(best_state)
    eval_idx = split.test if cfg.eval_on == "test" else np.nonzero(g.label_mask)[0]
    eval_logits = forward(params, _rows(stack, eval_idx)).data
    report = evaluate(eval_logits, g.labels[eval_idx], g.sensitive[eval_idx],
                      np.arange(eval_idx.size))
    return report, params, best_epoch, epochs_done, best_acc


def train(g: Graph, cfg: TrainConfig, split_spec: SplitSpec | None = None,
          splits: list | None = None, serial: bool = True, out_dir=None) -> RunResult:
    """Cross-validated training; one seeded re-split and parameter init per fold."""
    start = time.perf_counter()
    if splits is None:
        spec = split_spec or SplitSpec(seed=cfg.seed, folds=cfg.folds)
        spec = replace(spec, folds=cfg.folds, seed=spec.seed)
        splits = make_folds(g, spec)
    if len(splits) != cfg.folds:
        raise FairformerError(f"expected {cfg.folds} splits, got {len(splits)}")

    encode_start = time.perf_counter()
    stack = build_encodings(g, cfg)
    encode_seconds = time.perf_counter() - encode_start

    logs: list[list[str]] = [[] for _ in splits]

    def job(fold):
        return _run_fold(g, cfg, stack, splits[fold], fold, log_lines=logs[fold])

    if serial or len(splits) == 1:
        outcomes = [job(f) for f in range(len(splits))]
    else:
        with ThreadPoolExecutor(max_workers=min(4, len(splits))) as pool:
            outcomes = list(pool.map(job, range(len(splits))))

    result = RunResult(
        config=cfg.echo(),
        fold_reports=[o[0] for o in outcomes],
        split_hashes=[s.content_hash() for s in splits],
        epochs_run=[o[3] for o in outcomes],
        val_accuracies=[o[4] for o in outcomes],
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
        for fold, outcome in enumerate(outcomes):
            save_model(out / f"checkpoint_fold{fold}.bin", outcome[1])
    return result


def ablate(g: Graph, cfg: TrainConfig, split_spec: SplitSpec | None = None,
           serial: bool = True) -> dict:
    """All ablation variants under identical folds (asserted via split hashes)."""
    spec = split_spec or SplitSpec(seed=cfg.seed, folds=cfg.folds)
    spec = replace(spec, folds=cfg.folds)
    splits = make_folds(g, spec)
    results = {}
    for variant in ABLATION_VARIANTS:
        results[variant] = train(g, replace(cfg, ablation=variant), splits=splits,
                                 serial=serial)
    hashes = {tuple(r.split_hashes) for r in results.values()}
    if len(hashes) != 1:
        raise FairformerError("ablation variants diverged on splits")
    return results


def sweep(g: Graph, cfg: TrainConfig, param: str, values, split_spec: SplitSpec | None = None,
          serial: bool = True) -> list:
    """One training run per parameter value; returns [(value, RunResult), ...]."""
    if param not in ("t", "layers"):
        raise FairformerError("sweep parameter must be 't' or 'layers'")
    out = []
    for value in values:
        out.append((int(value), train(g, replace(cfg, **{param: int(value)}),
                                      split_spec=split_spec, serial=serial)))
    return out


def sweep_table(param: str, rows) -> str:
    lines = [f"{param}\taccuracy\tdelta_sp\tf1\tauc"]
    for value, result in rows:
        lines.append(f"{value}\t{result.mean['accuracy']!r}\t{result.mean['delta_sp']!r}"
                     f"\t{result.mean['f1']!r}\t{result.mean['auc']!r}")
    return "\n".join(lines)


@dataclass
class BenchReport:
    sizes: list
    encode_seconds: list
    epoch_seconds: list
    encode_exponent: float
    epoch_exponent: float
    exponent_limit: float = 1.3

    @property
    def passed(self) -> bool:
        return (self.encode_exponent <= self.exponent_limit
                and self.epoch_exponent <= self.exponent_limit)

    def table(self) -> str:
        lines = ["n\tencode_seconds\tepoch_seconds"]
        for n, enc, ep in zip(self.sizes, self.encode_seconds, self.epoch_seconds):
            lines.append(f"{n}\t{enc!r}\t{ep!r}")
        lines.append(f"encode_exponent={self.encode_exponent!r}")
        lines.append(f"epoch_exponent={self.epoch_exponent!r}")
        lines.append(f"exponent_limit={self.exponent_limit!r}")
        lines.append(f"passed={int(self.passed)}")
        return "\n".join(lines)


def _fit_exponent(sizes, seconds) -> float:
    slope, _ = np.polyfit(np.log(np.asarray(sizes, dtype=float)),
                          np.log(np.maximum(np.asarray(seconds, dtype=float), 1e-9)), 1)
    return float(slope)


def bench_scaling(sizes, k: int = 2, t: int = 4, d_hidden: int = 32, seed: int = 0,
                  epochs_timed: int = 3, repeats: int = 2) -> BenchReport:
    """Measure encoding and per-epoch time on synthetic graphs of growing n.

    Fixed k, t and feature width; the fitted log-log exponent in n should stay
    near 1 for both phases (the pass flag uses the 1.3 ceiling).
    """
    sizes = [int(n) for n in sizes]
    if not sizes:
        raise FairformerError("bench_scaling needs at least one size")
    cfg = TrainConfig(epochs=1, folds=1, k=k, t=t, d_hidden=d_hidden, dropout=0.0,
                      seed=seed, patience=0)
    encode_times, epoch_times = [], []
    for n in sizes:
        g = benchmark_graph(n, seed=seed)
        best_encode = np.inf
        for _ in range(repeats):
            start = time.perf_counter()
            stack = build_encodings(g, cfg)
            best_encode = min(best_encode, time.perf_counter() - start)
        encode_times.append(best_encode)

        mcfg = cfg.model_config(seed=seed)
        params = init_model(mcfg, stack.d)
        optimizer = Adam(params.trainable(), lr=cfg.learning_rate)
        train_idx = np.arange(g.n)
        samples = []
        for _ in range(max(1, epochs_timed)):
            start = time.perf_counter()
            logits = forward(params, stack)
            loss = cross_entropy(logits, g.labels, train_idx)
            ad.zero_grads(params.trainable())
            ad.backward(loss)
            optimizer.step()
            samples.append(time.perf_counter() - start)
        epoch_times.append(float(np.median(samples)))

    return BenchReport(
        sizes=sizes,
        encode_seconds=encode_times,
        epoch_seconds=epoch_times,
        encode_exponent=_fit_exponent(sizes, encode_times),
        epoch_exponent=_fit_exponent(sizes, epoch_times),
    )

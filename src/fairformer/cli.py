"""Command-line interface.

Verbs: train, ablate, sweep, verify, bench, inspect. All randomness flows
from --seed, and re-runs write byte-identical report files (wall clock
measurements go to a separate timing.txt, which is exempt). Folds run one
after another, each scoring its validation set in pieces on the program's kept
helper threads beside its next training step (`train._score`). Exit codes:
0 success, 2 usage, 3 data problems, 4 convergence/training failures,
1 verification failure or unexpected errors.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

import numpy as np

from .data import load_dataset, load_manifest
from .errors import (ConvergenceError, FairformerError, IngestionError, SchemaError,
                     SpectralGapError, SplitError, TieWarning, TrainingError)
from .hops import build_group_graph, group_scaling_report
from .oracles import dense_eig
from .spectral import spectral_alignment_report, top_magnitude_eigenpairs
from .synth import random_connected_graph, sensitive_block_graph
from .train import (ABLATION_VARIANTS, TrainConfig, ablate, bench_scaling, sweep,
                    sweep_configs, sweep_table, train)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_CONVERGENCE = 4


class _Formatter(argparse.ArgumentDefaultsHelpFormatter):
    """Fixed-width help so --help output is environment-independent."""

    def __init__(self, prog):
        super().__init__(prog, width=96, max_help_position=34)


def _int_at_least(low: int, need: str):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be {need}, got {text!r}")
        return value
    return parse


_positive_int = _int_at_least(1, "a positive integer")
_non_negative_int = _int_at_least(0, "a non-negative integer")


def _size_list(text: str) -> list:
    sizes = [_positive_int(s) for s in text.split(",") if s.strip()]
    if len(set(sizes)) < 2:
        raise argparse.ArgumentTypeError(
            f"need at least two distinct sizes to fit an exponent, got {text!r}")
    return sizes


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairformer",
        description="Fairness-aware graph transformer: train, ablate, sweep, verify, bench, inspect.",
        formatter_class=_Formatter,
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_data_flags(p):
        p.add_argument("--manifest", type=Path, default=None,
                       help="dataset manifest (nodes=, edges=, sensitive=, label=)")
        p.add_argument("--synthetic", type=_positive_int, default=None, metavar="N",
                       help="use the built-in planted fixture with N nodes instead of a manifest")

    def add_common_flags(p):
        p.add_argument("--out", type=Path, default=None, help="output directory for report files")
        p.add_argument("--seed", type=_non_negative_int, default=0, help="base random seed")

    for verb, help_text in (("train", "train with cross-validation"),
                            ("ablate", "train every encoding variant on shared splits"),
                            ("sweep", "sweep t or layer count")):
        p = sub.add_parser(verb, help=help_text, formatter_class=_Formatter)
        add_data_flags(p)
        add_common_flags(p)
        p.add_argument("--epochs", type=int, default=TrainConfig.epochs,
                       help="training epochs per fold")
        p.add_argument("--k", type=int, default=TrainConfig.k, help="hop count for token sequences")
        p.add_argument("--t", type=int, default=TrainConfig.t,
                       help="number of structure eigenvectors")
        p.add_argument("--layers", type=int, default=TrainConfig.layers, help="transformer layers")
        p.add_argument("--heads", type=int, default=TrainConfig.heads, help="attention heads")
        p.add_argument("--hidden", type=int, default=TrainConfig.d_hidden, help="hidden width")
        p.add_argument("--folds", type=int, default=TrainConfig.folds,
                       help="cross-validation folds")
        if verb != "ablate":  # ablate trains every variant
            p.add_argument("--ablation", choices=ABLATION_VARIANTS, default=TrainConfig.ablation,
                           help="encoding variant")
        p.add_argument("--cap", type=_positive_int, default=TrainConfig.train_per_class_cap,
                       help="per-class training node cap")

    p_sweep = sub.choices["sweep"]
    p_sweep.add_argument("--param", choices=("t", "layers"), required=True,
                         help="which parameter to sweep")
    p_sweep.add_argument("--min", type=int, required=True, help="smallest value")
    p_sweep.add_argument("--max", type=int, required=True, help="largest value")

    p_verify = sub.add_parser("verify", help="numerical certificates for the encodings",
                              formatter_class=_Formatter)
    add_common_flags(p_verify)
    # a graph of 1 node has one sensitive group, and P2's eigenvalues +-1 have no strict gap
    p_verify.add_argument("--n", type=_int_at_least(3, "an integer >= 3"), default=30,
                          help="nodes in the random test graph")
    p_verify.add_argument("--kmax", type=_positive_int, default=6,
                          help="largest hop count to certify")
    p_verify.add_argument("--graphs", type=_positive_int, default=3, help="number of random graphs")

    p_bench = sub.add_parser("bench", help="scaling benchmark over synthetic graphs",
                             formatter_class=_Formatter)
    add_common_flags(p_bench)
    p_bench.add_argument("--sizes", type=_size_list, default="1000,2000,4000,8000",
                         help="comma-separated node counts")
    p_bench.add_argument("--k", type=int, default=2, help="hop count")
    p_bench.add_argument("--t", type=int, default=4, help="structure eigenvectors")
    p_bench.add_argument("--hidden", type=int, default=TrainConfig.d_hidden, help="hidden width")
    p_bench.add_argument("--epochs-timed", type=_positive_int, default=3,
                         help="epochs timed per size")

    p_inspect = sub.add_parser("inspect", help="summarize a dataset",
                               formatter_class=_Formatter)
    add_data_flags(p_inspect)
    add_common_flags(p_inspect)
    return parser


def _load_graph(args):
    if args.manifest is not None:
        node_path, edge_path, schema = load_manifest(args.manifest)
        return load_dataset(node_path, edge_path, schema)
    if getattr(args, "synthetic", None):
        return sensitive_block_graph(n=args.synthetic, seed=args.seed)
    raise IngestionError("no input: pass --manifest PATH or --synthetic N")


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        epochs=args.epochs, folds=args.folds, train_per_class_cap=args.cap,
        ablation=getattr(args, "ablation", TrainConfig.ablation), k=args.k, t=args.t,
        layers=args.layers, heads=args.heads, d_hidden=args.hidden, seed=args.seed,
    )


def _report(args, name, text, echo=True):
    """Print a verb's report (unless `echo` is off) and, with --out, write it there as `name`."""
    if echo:
        print(text)
    if args.out is not None:  # `main` made it
        (args.out / name).write_text(text + "\n")


def _cmd_train(args) -> int:
    cfg = _train_config(args)
    result = train(_load_graph(args), cfg, out_dir=args.out)
    print(result.summary_text())
    return EXIT_OK


def _cmd_ablate(args) -> int:
    cfg = _train_config(args)
    results = ablate(_load_graph(args), cfg)
    _report(args, "report.txt", sweep_table("variant", results.items()))
    for variant, result in results.items():
        _report(args, f"report_{variant}.txt", result.summary_text(), echo=False)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _train_config(args)
    values = range(args.min, args.max + 1)
    sweep_configs(cfg, args.param, values)  # a bad swept value fails before the graph loads
    rows = sweep(_load_graph(args), cfg, args.param, values)
    _report(args, "sweep.tsv", sweep_table(args.param, rows))
    return EXIT_OK


_ORACLE_TOL = 1e-6  # largest deviation from the dense oracle that passes


def _eigensolver_deviation(basis, lam_ref, vec_ref) -> float:
    """Largest deviation of `basis` from the dense oracle's pairs, both sorted by
    |lambda|: the magnitudes slot by slot, then each eigenvalue and vector against the
    oracle pair of the nearest eigenvalue among the top t, as +-lambda share |lambda|
    and may come in either order. A vector is compared only where it is determined:
    its eigenvalue is simple and, on a tie at the cut, its |lambda| is not tied with
    |lambda_t|, since which of the tied pairs fills the last slots is arbitrary."""
    lam, t = basis.eigenvalues, basis.t
    gaps = np.abs(lam[:, None] - lam_ref[None, :])
    cut_tie = basis.tie_warning & (np.abs(np.abs(lam) - abs(lam[-1]))
                                   <= _ORACLE_TOL * max(1.0, abs(lam[-1])))
    match = np.argmin(gaps[:, :t], axis=1)
    signed = ~cut_tie
    vector = signed & (np.sum(gaps <= _ORACLE_TOL, axis=1) == 1)
    return float(max(np.max(np.abs(np.abs(lam) - np.abs(lam_ref[:t]))),
                     np.max(gaps[signed, match[signed]], initial=0.0),
                     np.max(np.abs(basis.structure_matrix[:, vector]
                                   - vec_ref[:, match[vector]]), initial=0.0)))


def _cmd_verify(args) -> int:
    """Certificates per random graph. A certificate whose precondition fails (no
    strict spectral gap, or a decay bound that does not apply) prints applicable=0
    and neither passes nor fails the run."""
    lines = []
    all_ok = True
    for i in range(args.graphs):
        seed = args.seed + i
        g = random_connected_graph(args.n, density=0.25, seed=seed)

        scaling = group_scaling_report(build_group_graph(g), args.kmax)
        lines.append(f"graph={i} check=group_scaling q={scaling.q} k_max={scaling.k_checked} "
                     f"exact_pass={int(scaling.exact_pass)} float_pass={int(scaling.float_pass)} "
                     f"max_abs_deviation={scaling.max_abs_deviation!r}")
        all_ok &= scaling.passed

        try:
            alignment = spectral_alignment_report(g, args.kmax)
        except SpectralGapError:
            lines.append(f"graph={i} check=alignment_identity applicable=0")
            lines.append(f"graph={i} check=alignment_decay applicable=0")
        else:
            identity_ok = alignment.identity_max_error <= 1e-8
            lines.append(f"graph={i} check=alignment_identity "
                         f"max_error={alignment.identity_max_error!r} pass={int(identity_ok)}")
            all_ok &= identity_ok
            if alignment.decay_applicable:
                lines.append(f"graph={i} check=alignment_decay applicable=1 "
                             f"pass={int(alignment.decay_ok)}")
                all_ok &= alignment.decay_ok
            else:
                lines.append(f"graph={i} check=alignment_decay applicable=0")

        t = min(4, g.n)
        with warnings.catch_warnings():  # a tie at the cut is printed as tie=1
            warnings.simplefilter("ignore", TieWarning)
            basis = top_magnitude_eigenpairs(g, t=t, tol=1e-11, seed=seed)
        dev = _eigensolver_deviation(basis, *dense_eig(g.adjacency.toarray()))
        eig_ok = dev <= _ORACLE_TOL
        lines.append(f"graph={i} check=eigensolver_vs_oracle t={t} "
                     f"tie={int(basis.tie_warning)} deviation={dev!r} pass={int(eig_ok)}")
        all_ok &= eig_ok

    lines.append(f"all_pass={int(all_ok)}")
    _report(args, "report.txt", "\n".join(lines))
    return EXIT_OK if all_ok else EXIT_FAILURE


def _cmd_bench(args) -> int:
    report = bench_scaling(args.sizes, k=args.k, t=args.t, d_hidden=args.hidden, seed=args.seed,
                           epochs_timed=args.epochs_timed)
    _report(args, "bench.txt", report.table())
    return EXIT_OK if report.passed else EXIT_FAILURE


def _cmd_inspect(args) -> int:
    g = _load_graph(args)
    sens = g.sensitive
    labeled = g.labels[g.label_mask]
    lines = [
        f"nodes={g.n}",
        f"features={g.d}",
        f"directed_adjacency_entries={g.directed_entry_count()}",
        f"undirected_edges={g.undirected_edge_count()}",
        f"self_loops={int(g.adjacency.diagonal().sum())}",
        f"sensitive_group_sizes={int((sens == 0).sum())},{int((sens == 1).sum())}",
        f"labeled_nodes={int(g.label_mask.sum())}",
        f"label_counts={int((labeled == 0).sum())},{int((labeled == 1).sum())}",
    ]
    _report(args, "report.txt", "\n".join(lines))
    return EXIT_OK


_HANDLERS = {
    "train": _cmd_train,
    "ablate": _cmd_ablate,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
    "bench": _cmd_bench,
    "inspect": _cmd_inspect,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verb == "sweep" and args.min > args.max:
        print(f"{parser.prog} sweep: error: argument --max: must not be below --min "
              f"({args.min}), got {args.max}", file=sys.stderr)
        return EXIT_USAGE
    if args.out is not None:  # a bad --out fails before any data is read or any work is done
        try:
            args.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            print(f"{parser.prog} {args.verb}: error: argument --out: cannot create "
                  f"{str(args.out)!r}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_USAGE
    try:
        return _HANDLERS[args.verb](args)
    except FairformerError as exc:
        print(f"error={type(exc).__name__} detail={str(exc)!r}", file=sys.stderr)
        if isinstance(exc, (IngestionError, SchemaError, SplitError)):
            return EXIT_DATA
        return EXIT_CONVERGENCE if isinstance(exc, (ConvergenceError, TrainingError)) else EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())

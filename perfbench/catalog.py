"""Names, units and directions of every metric the benchmark reports.

BENCHMARK.json lists the same metrics; the self-tests keep the two in step.
Byte and FLOP figures are computed from array shapes, not measured; their
units carry no such mark, so `COMPUTED` names them.
"""

from spans import AUTODIFF_OPS

# (name, unit, better, bound); --trace 0 reports exactly these.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# (name, unit, better); --trace 1 reports exactly these, as the mean per pass.
PER_LAYER = [
    ("spectral.top_magnitude_s", "s", "lower"),
    ("spectral.laplacian_s", "s", "lower"),
    ("spectral.fuse_s", "s", "lower"),
    ("spectral.matvecs", "count", "lower"),
    ("spectral.basis_mb", "MB", "lower"),
    ("hops.group_s", "s", "lower"),
    ("hops.adjacency_s", "s", "lower"),
    ("hops.stack_mb", "MB", "lower"),
    ("model.forward_train_s", "s", "lower"),
    ("model.forward_eval_s", "s", "lower"),
    ("model.self_s", "s", "lower"),
    ("model.eval_nodes", "count", "lower"),
    *[(f"autodiff.{op}.{way}_s", "s", "lower") for op in AUTODIFF_OPS for way in ("fwd", "bwd")],
    ("autodiff.matmul.gflop", "GFLOP", "lower"),
    ("autodiff.matmul.gflops_rate", "GFLOP/s", "higher"),
    ("autodiff.backward_self_s", "s", "lower"),
    ("autodiff.tape_nodes", "count", "lower"),
    ("train.epoch_s.p50", "s", "lower"),
    ("train.epoch_s.p90", "s", "lower"),
    ("train.adam_step_s", "s", "lower"),
    ("train.val_score_s", "s", "lower"),
    ("train.state_copy_s", "s", "lower"),
    ("train.epochs", "count", "higher"),
    ("metrics.evaluate_s", "s", "lower"),
    ("data.make_folds_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unaccounted_share", "ratio", "lower"),
]

COMPUTED = ("spectral.basis_mb", "hops.stack_mb", "autodiff.matmul.gflop",
            "autodiff.matmul.gflops_rate")

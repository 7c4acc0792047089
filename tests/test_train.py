import numpy as np
import pytest
import scipy.sparse as sp
from dataclasses import replace

from fairformer.data import Graph, SplitSpec, make_folds
from fairformer.errors import FairformerError, TrainingError
from fairformer.model import init_model
from fairformer.synth import sensitive_block_graph
from fairformer.train import (ABLATION_VARIANTS, TrainConfig, ablate, bench_scaling,
                              build_encodings, sweep, sweep_table, train)


def separable_graph(n=40, seed=0):
    """Labels are a deterministic function of one feature column."""
    rng = np.random.default_rng(seed)
    labels = np.array([0, 1] * (n // 2))
    sens = rng.integers(0, 2, n).astype(float)
    sens[:2] = [0, 1]
    signal = (2.0 * labels - 1.0) * 3.0 + 0.01 * rng.standard_normal(n)
    feats = np.column_stack([signal, rng.standard_normal(n), sens])
    return Graph(adjacency=sp.csr_matrix((n, n)), features=feats, sensitive_index=2,
                 labels=labels, label_mask=np.ones(n, dtype=bool))


def quick_config(**kw):
    base = dict(epochs=30, folds=2, k=1, t=2, layers=1, heads=1, d_hidden=16,
                dropout=0.0, patience=0, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def test_epochs_must_be_positive():
    with pytest.raises(FairformerError):
        TrainConfig(epochs=0)


def test_bad_variant_rejected():
    with pytest.raises(FairformerError):
        TrainConfig(ablation="everything")


def test_separable_fixture_reaches_perfect_accuracy():
    g = separable_graph()
    cfg = quick_config(epochs=200, folds=1, t=0, ablation="no_st")
    result = train(g, cfg, split_spec=SplitSpec(train_per_class_cap=10, seed=0, folds=1))
    assert result.fold_reports[0].accuracy == 1.0


def test_same_seed_reproduces_run():
    g = sensitive_block_graph(n=120, seed=3, avg_degree=10.0)
    cfg = quick_config()
    spec = SplitSpec(train_per_class_cap=20, seed=1, folds=2)
    a = train(g, cfg, split_spec=spec)
    b = train(g, cfg, split_spec=spec)
    assert a.summary_text() == b.summary_text()


def test_parallel_folds_match_serial():
    g = sensitive_block_graph(n=120, seed=4, avg_degree=10.0)
    cfg = quick_config()
    spec = SplitSpec(train_per_class_cap=20, seed=1, folds=2)
    serial = train(g, cfg, split_spec=spec, serial=True)
    threaded = train(g, cfg, split_spec=spec, serial=False)
    assert serial.summary_text() == threaded.summary_text()


def test_checkpoint_never_below_initial_validation_accuracy():
    g = sensitive_block_graph(n=120, seed=5, avg_degree=10.0)
    cfg = quick_config(epochs=5)
    spec = SplitSpec(train_per_class_cap=20, seed=2, folds=2)
    splits = make_folds(g, spec)
    result = train(g, cfg, splits=splits)

    stack = build_encodings(g, cfg)
    from fairformer.model import forward
    for fold, split in enumerate(splits):
        params = init_model(cfg.model_config(seed=cfg.seed * 1000 + fold), stack.d)
        logits = forward(params, stack).data
        pred = (logits[:, 1] > logits[:, 0]).astype(int)
        initial = float((pred[split.val] == g.labels[split.val]).mean())
        assert result.val_accuracies[fold] >= initial


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_aborts_with_diagnostic():
    g = sensitive_block_graph(n=80, seed=6, avg_degree=10.0)
    cfg = quick_config(learning_rate=1e300, folds=1, epochs=10)
    with pytest.raises(TrainingError, match="diverged"):
        train(g, cfg, split_spec=SplitSpec(train_per_class_cap=15, seed=0, folds=1))


def test_run_directory_layout(tmp_path):
    g = sensitive_block_graph(n=100, seed=7, avg_degree=10.0)
    cfg = quick_config(epochs=3, folds=1)
    out = tmp_path / "run"
    train(g, cfg, split_spec=SplitSpec(train_per_class_cap=15, seed=0, folds=1), out_dir=out)
    assert (out / "config.txt").exists()
    assert (out / "train_log.txt").exists()
    assert (out / "report.txt").exists()
    assert (out / "timing.txt").exists()
    assert (out / "checkpoint_fold0.bin").exists()
    report = (out / "report.txt").read_text()
    assert "mean.accuracy" in report
    assert "wall" not in report  # timing lives in timing.txt only


def test_encoding_variants():
    g = sensitive_block_graph(n=60, seed=8, avg_degree=8.0)
    base = quick_config(k=2, t=3)
    full = build_encodings(g, base)
    assert full.tensor.shape == (60, 3, g.d + 3)

    no_st = build_encodings(g, replace(base, ablation="no_st"))
    assert no_st.tensor.shape == (60, 3, g.d)

    no_nf = build_encodings(g, replace(base, ablation="no_nf"))
    assert no_nf.tensor.shape == (60, 1, g.d + 3)

    lap = build_encodings(g, replace(base, ablation="lap_st"))
    assert lap.tensor.shape == full.tensor.shape
    assert not np.allclose(lap.tensor, full.tensor)

    adj = build_encodings(g, replace(base, ablation="adj_nf"))
    assert adj.tensor.shape == full.tensor.shape
    assert np.array_equal(adj.tensor[:, 0, :], full.tensor[:, 0, :])
    assert not np.allclose(adj.tensor[:, 1, :], full.tensor[:, 1, :])


def test_ablate_covers_variants_with_shared_splits():
    g = sensitive_block_graph(n=100, seed=9, avg_degree=10.0)
    cfg = quick_config(epochs=3, folds=2)
    results = ablate(g, cfg, split_spec=SplitSpec(train_per_class_cap=15, seed=0, folds=2))
    assert tuple(results) == ABLATION_VARIANTS
    hashes = {tuple(r.split_hashes) for r in results.values()}
    assert len(hashes) == 1


def test_sweep_rows_and_table():
    g = sensitive_block_graph(n=100, seed=10, avg_degree=10.0)
    cfg = quick_config(epochs=2, folds=1)
    rows = sweep(g, cfg, "t", range(1, 4),
                 split_spec=SplitSpec(train_per_class_cap=15, seed=0, folds=1))
    assert [value for value, _ in rows] == [1, 2, 3]
    table = sweep_table("t", rows)
    assert len(table.splitlines()) == 4
    assert table.splitlines()[0].startswith("t\t")
    with pytest.raises(FairformerError):
        sweep(g, cfg, "dropout", [0.1])


def test_bench_scaling_smoke():
    report = bench_scaling([200, 400], k=1, t=2, d_hidden=8, epochs_timed=1, repeats=1)
    assert report.sizes == [200, 400]
    assert len(report.encode_seconds) == 2
    assert np.isfinite(report.encode_exponent) and np.isfinite(report.epoch_exponent)
    assert "epoch_exponent" in report.table()
    with pytest.raises(FairformerError):
        bench_scaling([])


def test_mean_within_fold_range():
    g = sensitive_block_graph(n=120, seed=11, avg_degree=10.0)
    cfg = quick_config(epochs=5, folds=3)
    result = train(g, cfg, split_spec=SplitSpec(train_per_class_cap=15, seed=3, folds=3))
    accs = [r.accuracy for r in result.fold_reports]
    assert min(accs) <= result.mean["accuracy"] <= max(accs)
    assert len(result.fold_reports) == 3


def test_fair_selection_threshold_prefers_low_parity_checkpoints():
    g = sensitive_block_graph(n=160, seed=12, avg_degree=10.0)
    spec = SplitSpec(train_per_class_cap=25, seed=4, folds=1)
    plain = train(g, quick_config(epochs=40, folds=1), split_spec=spec)
    fair = train(g, quick_config(epochs=40, folds=1, fair_selection_threshold=1.0),
                 split_spec=spec)
    # threshold 1.0 never excludes anything, so selection matches plain mode
    assert fair.fold_reports == plain.fold_reports
    assert fair.val_accuracies == plain.val_accuracies
    strict = train(g, quick_config(epochs=40, folds=1, fair_selection_threshold=0.0),
                   split_spec=spec)
    assert isinstance(strict.fold_reports[0].delta_sp, float)

import contextlib
import gc
import itertools
import sys
import threading
import tracemalloc
import types
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from dataclasses import replace

import fairformer.spectral as spectral
import fairformer.train as train_module
from fairformer import autodiff as ad
from fairformer.data import Graph, Split, SplitSpec, make_folds, split_train_counts
from fairformer.errors import FairformerError, ModelError, SplitError, TrainingError
from fairformer.hops import HopStack, build_group_graph, hop_aggregate, scale_columns
from fairformer.model import cross_entropy, forward, init_model, load_model
from fairformer.oracles import dense_power_apply
from fairformer.synth import benchmark_graph, sensitive_block_graph
from model_oracle import forward_direct
from fairformer.train import (ABLATION_VARIANTS, Adam, TrainConfig, ablate, bench_scaling,
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
    base = dict(epochs=30, folds=2, k=1, t=2, layers=1, heads=1, d_hidden=16, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def test_epochs_must_be_positive():
    with pytest.raises(FairformerError):
        TrainConfig(epochs=0)


def test_bad_variant_rejected():
    with pytest.raises(FairformerError):
        TrainConfig(ablation="everything")


def test_negative_seed_rejected():
    with pytest.raises(FairformerError, match="seed=-1 must be >= 0"):
        TrainConfig(seed=-1)


def test_bad_cap_rejected_when_the_config_is_built():
    with pytest.raises(SplitError, match="train_per_class_cap must be positive"):
        TrainConfig(train_per_class_cap=0)


def test_separable_fixture_reaches_perfect_accuracy():
    g = separable_graph()
    cfg = quick_config(epochs=200, folds=1, t=0, ablation="no_st", train_per_class_cap=10)
    result = train(g, cfg)
    assert result.fold_reports[0].accuracy == 1.0


def test_same_seed_reproduces_run():
    g = sensitive_block_graph(n=120, seed=3, avg_degree=10.0)
    cfg = quick_config(train_per_class_cap=20)
    spec = SplitSpec(train_per_class_cap=20, seed=1, folds=2)
    a = train(g, cfg, splits=make_folds(g, spec))
    b = train(g, cfg, splits=make_folds(g, spec))
    assert a.summary_text() == b.summary_text()


def test_serial_keyword_is_ignored():
    # perfbench's `TrainWorkload` passes serial=True; drop this test along with that
    # keyword in the next declared benchmark change
    g = sensitive_block_graph(n=120, seed=4, avg_degree=10.0)
    cfg = quick_config(epochs=5, train_per_class_cap=20)
    splits = make_folds(g, SplitSpec(train_per_class_cap=20, seed=1, folds=2))
    assert (train(g, cfg, splits=splits, serial=True).summary_text()
            == train(g, cfg, splits=splits).summary_text())


def test_folds_match_serial_when_scoring_fans_out(monkeypatch):
    scorers = set()

    def recording_forward(params, stack, training=False, **kwargs):
        if not training:
            scorers.add(threading.get_ident())
        return forward(params, stack, training=training, **kwargs)

    monkeypatch.setattr(train_module, "forward", recording_forward)
    g = sensitive_block_graph(n=1100, seed=4, avg_degree=10.0)
    splits = make_folds(g, SplitSpec(seed=1, folds=2))
    assert all(s.val.size > train_module._SCORE_BLOCK < s.test.size for s in splits)
    cfg = quick_config(epochs=3)
    monkeypatch.setattr(train_module, "_WORKERS", 1)
    serial = train(g, cfg, splits=splits)
    assert scorers == {threading.get_ident()}  # one worker scores on the caller alone
    scorers.clear()
    monkeypatch.setattr(train_module, "_WORKERS", 2)  # whatever this machine has
    fanned = train(g, cfg, splits=splits)
    assert threading.get_ident() in scorers and len(scorers) > 1  # the caller and a helper
    assert serial.summary_text() == fanned.summary_text()


def helper_idents():
    return {thread.ident for thread in threading.enumerate()
            if thread.name.startswith("fairformer-helper")}


def test_a_second_train_starts_no_thread(monkeypatch):
    monkeypatch.setattr(train_module, "_WORKERS", 2)  # whatever this machine has
    g = sensitive_block_graph(n=1100, seed=4, avg_degree=10.0)
    splits = make_folds(g, SplitSpec(seed=1, folds=2))
    assert all(s.val.size > train_module._SCORE_BLOCK < s.test.size for s in splits)
    cfg = quick_config(epochs=3)
    train(g, cfg, splits=splits)
    helpers, count = helper_idents(), threading.active_count()
    assert helpers  # the sets were fanned out over a kept helper
    start, started = threading.Thread.start, []

    def recording_start(thread):
        started.append(thread.name)
        return start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    train(g, cfg, splits=splits)
    assert started == []
    assert threading.active_count() == count and helper_idents() == helpers


def test_a_failing_fold_ends_the_run_before_the_next_fold(monkeypatch):
    monkeypatch.setattr(train_module, "_WORKERS", 2)
    step = train_module._train_step
    stepped = []

    def failing(params, optimizer, rng, stack, labels, fold, epoch):
        stepped.append(fold)
        if fold == 0 and epoch >= 3:
            raise TrainingError(f"fold 0: loss diverged to nan at epoch {epoch}")
        return step(params, optimizer, rng, stack, labels, fold, epoch)

    monkeypatch.setattr(train_module, "_train_step", failing)
    g = sensitive_block_graph(n=120, seed=4, avg_degree=10.0)
    splits = make_folds(g, SplitSpec(train_per_class_cap=20, seed=1, folds=2))
    with pytest.raises(TrainingError) as caught:
        train(g, quick_config(epochs=6, train_per_class_cap=20), splits=splits)
    assert str(caught.value) == "fold 0: loss diverged to nan at epoch 3"
    assert set(stepped) == {0}  # fold 1 never took a step


def openblas_or_skip():
    calls = train_module._openblas_threads()
    if calls is None:
        pytest.skip("numpy ships no OpenBLAS whose thread count can be set")
    return calls


@pytest.fixture
def blas_threads():
    """numpy's OpenBLAS at two threads for the test, at its prior count afterwards."""
    get, put = openblas_or_skip()
    prior = get()
    put(2)
    yield get
    put(prior)


def test_one_blas_thread_scope_restores_the_count(blas_threads):
    scope = train_module._ONE_BLAS_THREAD
    with scope:
        assert blas_threads() == 1
        with scope:
            assert blas_threads() == 1
        assert blas_threads() == 1  # only the outermost scope restores
    assert blas_threads() == 2
    with pytest.raises(TrainingError):
        with scope:
            raise TrainingError("raised inside the scope")
    assert blas_threads() == 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_training_leaves_the_blas_thread_count_as_it_found_it(blas_threads, monkeypatch):
    g = sensitive_block_graph(n=80, seed=6, avg_degree=10.0)
    cfg = quick_config(epochs=2, train_per_class_cap=15)
    for workers in (1, 2):  # `train` holds one BLAS thread around its folds at either
        monkeypatch.setattr(train_module, "_WORKERS", workers)
        train(g, cfg)
        ablate(g, cfg)
        sweep(g, cfg, "t", [1, 2])
        assert blas_threads() == 2
        with monkeypatch.context() as patch, pytest.raises(TrainingError, match="diverged"):
            patch.setattr(train_module, "_LEARNING_RATE", 1e300)
            train(g, replace(cfg, epochs=10))
        assert blas_threads() == 2


def test_overlapping_blas_scopes_hold_one_thread_and_restore_the_count(blas_threads):
    scope = train_module._ONE_BLAS_THREAD
    seen = []

    def hold():
        for _ in range(200):
            with scope:
                seen.append(blas_threads())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hold) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert seen == [1] * 1600
    assert blas_threads() == 2


def test_one_blas_thread_scope_is_a_no_op_without_the_library(blas_threads, monkeypatch):
    monkeypatch.setattr(train_module, "_openblas_threads", lambda: None)
    with train_module._ONE_BLAS_THREAD:
        assert blas_threads() == 2
    assert blas_threads() == 2


def test_checkpoint_never_below_initial_validation_accuracy():
    g = sensitive_block_graph(n=120, seed=5, avg_degree=10.0)
    cfg = quick_config(epochs=5, train_per_class_cap=20)
    spec = SplitSpec(train_per_class_cap=20, seed=2, folds=2)
    splits = make_folds(g, spec)
    result = train(g, cfg, splits=splits)

    stack = build_encodings(g, cfg)
    scale_columns(stack, g.d)  # the stack train runs
    for fold, split in enumerate(splits):
        params = init_model(cfg.model_config(seed=cfg.seed * 1000 + fold), stack.d)
        logits = forward(params, stack).data
        pred = (logits[:, 1] > logits[:, 0]).astype(int)
        initial = float((pred[split.val] == g.labels[split.val]).mean())
        assert result.val_accuracies[fold] >= initial


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_aborts_with_diagnostic(monkeypatch):
    monkeypatch.setattr(train_module, "_LEARNING_RATE", 1e300)
    g = sensitive_block_graph(n=80, seed=6, avg_degree=10.0)
    cfg = quick_config(folds=1, epochs=10, train_per_class_cap=15)
    with pytest.raises(TrainingError, match="diverged"):
        train(g, cfg)


def run_files(out):
    """The bytes of every file a run wrote but its timing."""
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())
            if path.name != "timing.txt"}


def failing_from(monkeypatch, epoch, error):
    """`_train_step` raising `error` at every step from `epoch` on; returns the
    epochs of the steps that were run."""
    step = train_module._train_step
    epochs = []

    def failing(*args):
        epochs.append(args[-1])
        if args[-1] >= epoch:
            raise error
        return step(*args)

    monkeypatch.setattr(train_module, "_train_step", failing)
    return epochs


@pytest.mark.parametrize("error", [TrainingError("fold 0: loss diverged to nan at epoch 3"),
                                   ModelError("non-finite activations after encoder layer 0")],
                         ids=["training", "model"])
def test_patience_stop_drops_a_diverged_run_ahead_step(tmp_path, monkeypatch, error):
    # at a learning rate this small no epoch beats the initial validation accuracy,
    # so two stale epochs stop the fold at epoch 2, with step 3 already run beside
    # epoch 2's scoring
    monkeypatch.setattr(train_module, "_LEARNING_RATE", 1e-12)
    monkeypatch.setattr(train_module, "_PATIENCE", 2)
    g = sensitive_block_graph(n=100, seed=7, avg_degree=10.0)
    cfg = quick_config(epochs=10, folds=1, train_per_class_cap=15)
    clean = train(g, cfg, out_dir=tmp_path / "clean")
    assert clean.stop_reasons == ["patience"] and clean.epochs_run == [2]
    epochs = failing_from(monkeypatch, 3, error)
    for workers in (1, 2):
        monkeypatch.setattr(train_module, "_WORKERS", workers)
        epochs.clear()
        result = train(g, cfg, out_dir=tmp_path / str(workers))
        assert epochs == [1, 2, 3]
        assert result.stop_reasons == ["patience"] and result.epochs_run == [2]
        assert result.summary_text() == clean.summary_text()
        assert run_files(tmp_path / str(workers)) == run_files(tmp_path / "clean")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("workers", [1, 2])
def test_divergence_raises_the_message_of_the_epoch_it_happens_at(monkeypatch, workers):
    monkeypatch.setattr(train_module, "_WORKERS", workers)
    g = sensitive_block_graph(n=80, seed=6, avg_degree=10.0)
    cfg = quick_config(folds=1, epochs=10, train_per_class_cap=15)
    # epoch 1's weights overflow the validation forward; step 2, run beside it, fails too
    with monkeypatch.context() as patch, pytest.raises(TrainingError) as caught:
        patch.setattr(train_module, "_LEARNING_RATE", 1e300)
        train(g, cfg)
    assert str(caught.value) == ("fold 0: training diverged at epoch 1: "
                                 "softmax_rows: non-finite input")
    failing_from(monkeypatch, 3, ModelError("non-finite activations after encoder layer 0"))
    with pytest.raises(TrainingError) as caught:
        train(g, cfg)
    assert str(caught.value) == ("fold 0: training diverged at epoch 3: "
                                 "non-finite activations after encoder layer 0")
    assert isinstance(caught.value.__cause__, ModelError)
    diverged = TrainingError("fold 0: loss diverged to nan at epoch 3")
    failing_from(monkeypatch, 3, diverged)
    with pytest.raises(TrainingError) as caught:
        train(g, cfg)
    assert caught.value is diverged


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("at", [0, 1])
def test_an_error_scoring_the_initial_weights_keeps_its_type_and_message(monkeypatch, workers,
                                                                         at):
    # epoch 0 scores the initial weights before any step has been taken, so its error
    # is raised as it is; the same error one epoch later ends training there
    monkeypatch.setattr(train_module, "_WORKERS", workers)
    error = ModelError("stubbed scoring failure")
    scorings = []

    def failing_forward(params, stack, training=False, **kwargs):
        if not training:  # every set here is one piece, so one forward a scoring
            scorings.append(len(scorings))
            if scorings[-1] == at:
                raise error
        return forward(params, stack, training=training, **kwargs)

    monkeypatch.setattr(train_module, "forward", failing_forward)
    g = sensitive_block_graph(n=80, seed=6, avg_degree=10.0)
    with pytest.raises(FairformerError) as caught:
        train(g, quick_config(folds=1, epochs=10, train_per_class_cap=15))
    if at == 0:
        assert caught.value is error and str(caught.value) == "stubbed scoring failure"
    else:
        assert type(caught.value) is TrainingError and caught.value.__cause__ is error
        assert str(caught.value) == ("fold 0: training diverged at epoch 1: "
                                     "stubbed scoring failure")


@pytest.mark.parametrize("workers", [1, 2])
def test_train_holds_one_blas_thread_for_every_forward_of_its_folds(blas_threads, monkeypatch,
                                                                    workers):
    # validation beside a step, the last validation and the test scoring all run in
    # `train`'s one scope; the structure solve, before it, keeps the caller's count
    monkeypatch.setattr(train_module, "_WORKERS", workers)
    seen = []

    def recording_forward(params, stack, training=False, **kwargs):
        seen.append((training, blas_threads()))
        return forward(params, stack, training=training, **kwargs)

    def recording_encodings(g, cfg):
        seen.append(("encode", blas_threads()))
        return build_encodings(g, cfg)

    monkeypatch.setattr(train_module, "forward", recording_forward)
    monkeypatch.setattr(train_module, "build_encodings", recording_encodings)
    g = sensitive_block_graph(n=100, seed=7, avg_degree=10.0)
    train(g, quick_config(epochs=3, folds=2, train_per_class_cap=15))
    # per fold: epochs 0-2 scored beside steps 1-3, then epoch 3 and the test set
    fold = [(False, 1), (True, 1)] * 3 + [(False, 1), (False, 1)]
    assert seen[0] == ("encode", 2)
    assert sorted(seen[1:]) == sorted(fold * 2)  # a step and its scoring may interleave
    assert blas_threads() == 2


@pytest.mark.parametrize("n,patience,stop", [(100, 2, "patience"), (1100, 0, "epochs")])
def test_run_files_match_with_one_worker_and_two(tmp_path, monkeypatch, n, patience, stop):
    # n=1100 puts validation sets above one scoring piece
    scorers = set()

    def recording_forward(params, stack, training=False, **kwargs):
        if not training:
            scorers.add(threading.get_ident())
        return forward(params, stack, training=training, **kwargs)

    monkeypatch.setattr(train_module, "forward", recording_forward)
    if patience:  # 0 keeps the shipped patience, which 12 epochs never reach
        monkeypatch.setattr(train_module, "_PATIENCE", patience)
    g = sensitive_block_graph(n=n, seed=4, avg_degree=10.0)
    splits = make_folds(g, SplitSpec(train_per_class_cap=15, seed=1, folds=2))
    cfg = quick_config(epochs=12, train_per_class_cap=15)
    for workers in (1, 2):
        monkeypatch.setattr(train_module, "_WORKERS", workers)
        scorers.clear()
        train(g, cfg, splits=splits, out_dir=tmp_path / str(workers))
    assert threading.get_ident() in scorers and len(scorers) > 1  # the caller and a helper
    assert run_files(tmp_path / "1") == run_files(tmp_path / "2")
    assert f" stop={stop} ".encode() in run_files(tmp_path / "1")["report.txt"]


def test_checkpoint_holds_the_weights_of_the_best_epoch(tmp_path, monkeypatch):
    # steps run one ahead of the scoring, so the weights the fold holds when it
    # picks epoch 3 are already step 4's
    monkeypatch.setattr(train_module, "_WORKERS", 2)
    monkeypatch.setattr(train_module, "_LEARNING_RATE", 1e-2)
    g = sensitive_block_graph(n=100, seed=3, avg_degree=10.0)
    split = make_folds(g, SplitSpec(train_per_class_cap=15, seed=0, folds=1))[0]
    cfg = quick_config(epochs=8, folds=1, train_per_class_cap=15)
    result = train(g, cfg, splits=[split], out_dir=tmp_path)
    best = result.best_epochs[0]
    assert 0 < best < cfg.epochs
    stack = build_encodings(g, cfg)
    scale_columns(stack, g.d)  # the stack train runs
    params, optimizer, dropout_rng = train_module._init_fold(cfg, stack.d, 0)
    for epoch in range(1, best + 1):  # the steps one after another, as the reference
        train_module._train_step(params, optimizer, dropout_rng,
                                 train_module._rows(stack, split.train),
                                 g.labels[split.train], 0, epoch)
    saved = load_model(tmp_path / "checkpoint_fold0.bin")
    for name, tensor in params.tensors.items():
        assert saved[name].data.tobytes() == tensor.data.tobytes(), name


def test_run_ahead_step_and_validation_scoring_run_on_different_threads(monkeypatch):
    monkeypatch.setattr(train_module, "_WORKERS", 2)
    calls, overlapped = [], []
    scoring = threading.Event()

    def recording_forward(params, stack, training=False, **kwargs):
        if training:  # a step waits until a scoring has started, so it cannot take the piece
            overlapped.append(scoring.wait(timeout=10))
            scoring.clear()
        else:
            scoring.set()
        calls.append((training, threading.get_ident()))
        return forward(params, stack, training=training, **kwargs)

    monkeypatch.setattr(train_module, "forward", recording_forward)
    g = sensitive_block_graph(n=100, seed=7, avg_degree=10.0)
    train(g, quick_config(epochs=3, folds=1, train_per_class_cap=15))
    assert overlapped == [True] * 3
    caller = threading.get_ident()
    # one piece per scoring: epochs 0-2 are scored beside steps 1-3, on a helper;
    # epoch 3's validation and the test set, with nothing beside them, on the caller
    assert [training for training, _ in calls] == [False, True] * 3 + [False, False]
    assert [ident for training, ident in calls if training] == [caller] * 3
    assert caller not in [ident for training, ident in calls[:6] if not training]
    assert calls[6:] == [(False, caller)] * 2


def test_run_directory_layout(tmp_path):
    g = sensitive_block_graph(n=100, seed=7, avg_degree=10.0)
    cfg = quick_config(epochs=3, folds=1, train_per_class_cap=15)
    out = tmp_path / "run"
    train(g, cfg, out_dir=out)
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
    full = build_encodings(g, base)  # tokens 0 and 1 with counts (1, 2)
    assert full.tensor.shape == (60, 2, g.d + 3)

    no_st = build_encodings(g, replace(base, ablation="no_st"))
    assert no_st.tensor.shape == (60, 2, g.d)

    no_nf = build_encodings(g, replace(base, ablation="no_nf"))
    assert no_nf.tensor.shape == (60, 1, g.d + 3)

    lap = build_encodings(g, replace(base, ablation="lap_st"))
    assert lap.tensor.shape == full.tensor.shape
    assert not np.allclose(lap.tensor, full.tensor)

    adj = build_encodings(g, replace(base, ablation="adj_nf"))
    assert adj.tensor.shape == (60, 3, g.d + 3)
    assert np.array_equal(adj.tensor[:, 0, :], full.tensor[:, 0, :])
    assert not np.allclose(adj.tensor[:, 1, :], full.tensor[:, 1, :])


def test_ablate_covers_variants_with_shared_splits():
    g = sensitive_block_graph(n=100, seed=9, avg_degree=10.0)
    cfg = quick_config(epochs=3, folds=2, train_per_class_cap=15)
    results = ablate(g, cfg)
    assert tuple(results) == ABLATION_VARIANTS
    hashes = {tuple(r.split_hashes) for r in results.values()}
    assert len(hashes) == 1


def test_the_cap_is_drawn_and_recorded(tmp_path):
    g = sensitive_block_graph(n=100, seed=9, avg_degree=10.0)
    cfg = quick_config(epochs=2, folds=2, seed=1, train_per_class_cap=5)
    want = [s.content_hash() for s in make_folds(g, SplitSpec(train_per_class_cap=5, seed=1,
                                                              folds=2))]
    assert want != [s.content_hash() for s in make_folds(g, SplitSpec(seed=1, folds=2))]
    runs = [train(g, cfg, out_dir=tmp_path), *ablate(g, cfg).values(),
            *(result for _, result in sweep(g, cfg, "t", [1, 2]))]
    assert [result.split_hashes for result in runs] == [want] * len(runs)
    assert all("config.train_per_class_cap=5" in result.summary_text().splitlines()
               for result in runs)
    assert "train_per_class_cap=5" in (tmp_path / "config.txt").read_text().splitlines()


def recorded_solves(monkeypatch):
    """(k, which) of every `spectral._select` call: the main solves have k = t, the cut
    check's deflated solves k = 1."""
    calls = []
    select = spectral._select

    def recording(matvec, n, k, tol, seed, which):
        calls.append((k, which))
        return select(matvec, n, k, tol, seed, which)

    monkeypatch.setattr(spectral, "_select", recording)
    return calls


def test_ablate_solves_each_structure_source_once(monkeypatch):
    # full, no_nf and adj_nf share one adjacency basis; lap_st solves the Laplacian
    g = sensitive_block_graph(n=100, seed=9, avg_degree=10.0)
    calls = recorded_solves(monkeypatch)
    ablate(g, quick_config(epochs=2, folds=1, t=2, train_per_class_cap=15))
    assert calls.count((2, "LM")) == 1 and calls.count((2, "SA")) == 1
    assert set(calls) <= {(2, "LM"), (1, "LM"), (2, "SA")}


def test_sweep_over_layers_solves_once(monkeypatch):
    g = sensitive_block_graph(n=100, seed=10, avg_degree=10.0)
    calls = recorded_solves(monkeypatch)
    rows = sweep(g, quick_config(epochs=2, folds=1, t=2, train_per_class_cap=15), "layers",
                 [2, 1])
    assert [(value, result.config["layers"]) for value, result in rows] == [(2, 2), (1, 1)]
    assert calls.count((2, "LM")) == 1


@pytest.mark.parametrize("values", [[3, 1, 2], [1, 3, 2]])
def test_sweep_over_t_solves_once_at_the_largest_t(monkeypatch, values):
    g = sensitive_block_graph(n=100, seed=10, avg_degree=10.0)
    cfg = quick_config(epochs=2, folds=1, train_per_class_cap=15)
    calls = recorded_solves(monkeypatch)
    spectral.top_magnitude_eigenpairs(replace(g), 3, seed=cfg.seed)  # a copy keeps no basis
    solo, calls[:] = list(calls), []
    rows = sweep(g, cfg, "t", values)
    assert [value for value, _ in rows] == values
    assert [result.t_effective for _, result in rows] == values
    assert calls.count((3, "LM")) == 1 and calls == solo  # the t=3 solve and its cut check


def test_sweep_rows_and_table():
    g = sensitive_block_graph(n=100, seed=10, avg_degree=10.0)
    cfg = quick_config(epochs=2, folds=1, train_per_class_cap=15)
    rows = sweep(g, cfg, "t", range(1, 4))
    assert [value for value, _ in rows] == [1, 2, 3]
    table = sweep_table("t", rows)
    assert len(table.splitlines()) == 4
    assert table.splitlines()[0].startswith("t\t")
    with pytest.raises(FairformerError):
        sweep(g, cfg, "dropout", [0.1])


@pytest.fixture
def fresh_heap_thresholds():
    train_module._heap_thresholds.cache_clear()
    yield
    train_module._heap_thresholds.cache_clear()  # the next real call sets the same values again


def test_heap_thresholds_do_nothing_without_mallopt(monkeypatch, fresh_heap_thresholds):
    opened = []
    monkeypatch.setattr(train_module.ctypes, "CDLL",
                        lambda name: opened.append(name) or types.SimpleNamespace())
    assert train_module._heap_thresholds() is None
    assert opened == [None]


def test_heap_thresholds_set_mmap_and_trim_once_per_process(monkeypatch,
                                                           fresh_heap_thresholds):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(train_module.ctypes, "CDLL",
                        lambda name: types.SimpleNamespace(mallopt=mallopt))
    train_module._heap_thresholds()
    train_module._heap_thresholds()
    assert calls == [(-3, 8 * 2 ** 20), (-1, 16 * 2 ** 20)]  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD


class HeapSet(Exception):
    pass


def test_training_fixes_the_heap_thresholds_before_anything_else(monkeypatch):
    def first():
        raise HeapSet

    monkeypatch.setattr(train_module, "_heap_thresholds", first)
    monkeypatch.setattr(train_module, "build_encodings", lambda *a: pytest.fail("encoded first"))
    with pytest.raises(HeapSet):
        train(separable_graph(), quick_config())


def test_bench_scaling_smoke():
    report = bench_scaling([200, 400], k=1, t=2, d_hidden=8, epochs_timed=1)
    assert report.sizes == [200, 400]
    assert len(report.encode_seconds) == 2
    assert np.isfinite(report.encode_exponent) and np.isfinite(report.epoch_exponent)
    assert "epoch_exponent" in report.table()
    with pytest.raises(FairformerError):
        bench_scaling([])
    with pytest.raises(FairformerError, match="two distinct sizes"):
        bench_scaling([200, 200])
    with pytest.raises(FairformerError, match="epochs_timed=0"):
        bench_scaling([200, 400], epochs_timed=0)


def test_bench_times_the_training_step(monkeypatch):
    forwards, decays = [], []

    def recording_forward(params, stack, training=False, rng=None, **kwargs):
        forwards.append((training, isinstance(rng, np.random.Generator), stack.tensor.shape[0]))
        return forward(params, stack, training=training, rng=rng, **kwargs)

    adam_step = Adam.step
    b1 = train_module._ADAM_BETA1

    def recording_step(self):
        # the first moment's update shows the decay that was folded into the grad
        tensor, first = self.tensors[0], self.m[0]
        grad, data = tensor.grad, tensor.data
        adam_step(self)
        decayed = b1 * first + (1 - b1) * (grad + train_module._WEIGHT_DECAY * data)
        decays.append(np.array_equal(self.m[0], decayed))

    monkeypatch.setattr(train_module, "forward", recording_forward)
    monkeypatch.setattr(Adam, "step", recording_step)
    bench_scaling([200, 400], k=1, t=2, d_hidden=8, epochs_timed=2)
    # the first step at n = 200 is the untimed warm-up
    assert forwards == [(True, True, 200)] * 3 + [(True, True, 400)] * 2
    assert decays == [True] * 5 and train_module._WEIGHT_DECAY > 0


def test_bench_times_under_one_blas_thread(blas_threads, monkeypatch):
    seen = []

    def recording(fn):
        def wrapper(*args, **kwargs):
            seen.append(blas_threads())
            return fn(*args, **kwargs)
        return wrapper

    for name in ("build_encodings", "_train_step"):
        monkeypatch.setattr(train_module, name, recording(getattr(train_module, name)))
    bench_scaling([200, 400], k=1, t=2, d_hidden=8, epochs_timed=1)
    assert seen == [1] * 8  # the warm-up encode and step, then two encodes and a step per size
    assert blas_threads() == 2


def test_bench_times_a_cold_solve_in_every_encode(monkeypatch):
    # the graph remembers its basis, so a timed encode on it would skip the solve
    calls = recorded_solves(monkeypatch)
    bench_scaling([200, 400], k=1, t=2, d_hidden=8, epochs_timed=1)
    assert calls.count((2, "LM")) == 1 + 2 * 2  # the warm-up encode and every timed one


def test_bench_steps_on_the_scaled_stack_train_runs(monkeypatch):
    width = benchmark_graph(200).d
    spans = []

    def recording_forward(params, stack, training=False, rng=None, **kwargs):
        structure = stack.tensor[:, 0, width:]
        spans.append((structure.min(axis=0).tolist(), structure.max(axis=0).tolist()))
        return forward(params, stack, training=training, rng=rng, **kwargs)

    monkeypatch.setattr(train_module, "forward", recording_forward)
    bench_scaling([200, 400], k=1, t=2, d_hidden=8, epochs_timed=1)
    assert spans == [([-1.0, -1.0], [1.0, 1.0])] * 3  # the warm-up step, then one per size


def test_mean_within_fold_range():
    g = sensitive_block_graph(n=120, seed=11, avg_degree=10.0)
    cfg = quick_config(epochs=5, folds=3, train_per_class_cap=15)
    result = train(g, cfg, splits=make_folds(g, SplitSpec(train_per_class_cap=15, seed=3,
                                                          folds=3)))
    accs = [r.accuracy for r in result.fold_reports]
    assert min(accs) <= result.mean["accuracy"] <= max(accs)
    assert len(result.fold_reports) == 3


def test_single_group_validation_logs_nan_parity(tmp_path):
    g = separable_graph()
    group0, group1 = np.flatnonzero(g.sensitive == 0), np.flatnonzero(g.sensitive == 1)
    val = group0[:6]
    test = np.concatenate([group0[6:10], group1[:4]])
    cfg = quick_config(epochs=3, folds=1, t=0, ablation="no_st")
    rest = np.setdiff1d(np.arange(g.n), np.concatenate([val, test]))
    train_nodes = [rest[g.labels[rest] == c][:count]  # as many per class as a drawn split
                   for c, count in split_train_counts(g, cfg.train_per_class_cap).items()]
    split = Split(train=np.sort(np.concatenate(train_nodes)), val=val, test=test)
    result = train(g, cfg, splits=[split], out_dir=tmp_path)
    log = (tmp_path / "train_log.txt").read_text().splitlines()
    assert len(log) == 3 and all(line.endswith(" val_delta_sp=nan") for line in log)
    assert all(" val_acc=nan " not in line for line in log)
    assert 0.0 <= result.val_accuracies[0] <= 1.0  # selection still runs on accuracy


def test_unscorable_test_set_is_refused_before_encoding(monkeypatch):
    # a sensitive column of all 1s leaves every test set one group, so no statistical parity
    base = separable_graph(n=60)
    feats = base.features.copy()
    feats[:, base.sensitive_index] = 1.0
    g = Graph(adjacency=base.adjacency, features=feats, sensitive_index=base.sensitive_index,
              labels=base.labels, label_mask=base.label_mask)

    def unreachable(*args):
        raise AssertionError("the encoding was built for a test set that cannot be scored")

    monkeypatch.setattr(train_module, "build_encodings", unreachable)
    with pytest.raises(SplitError, match=r"^fold 0: the test set holds sensitive groups of "
                                         r"sizes \(0, 15\) and classes of sizes \(8, 7\)"):
        train(g, quick_config(folds=2))


def test_split_spec_disagreeing_with_the_config_is_refused_before_encoding(monkeypatch):
    def unreachable(*args):
        raise AssertionError("a fold was set up for a split spec the config disagrees with")

    monkeypatch.setattr(train_module, "build_encodings", unreachable)
    monkeypatch.setattr(train_module, "_run_fold", unreachable)
    g = separable_graph(n=60)
    with pytest.raises(FairformerError, match=r"^expected 2 splits, got 3$"):
        train(g, quick_config(folds=2), splits=make_folds(g, SplitSpec(seed=0, folds=3)))


@pytest.mark.parametrize("split_cap,cfg_cap,refused", [
    (5, 50, True), (5, 100, True), (50, 5, True), (100, 50, False),
], ids=["5-under-50", "5-under-100", "50-under-5", "100-under-50"])
def test_splits_drawn_at_another_cap_are_refused_before_encoding(monkeypatch, split_cap,
                                                                  cfg_cap, refused):
    g = sensitive_block_graph(n=100, seed=0)
    cfg = TrainConfig(epochs=1, folds=1, d_hidden=8, t=2, train_per_class_cap=cfg_cap)
    splits = make_folds(g, SplitSpec(train_per_class_cap=split_cap, folds=1))
    if not refused:  # here the cap binds neither draw, so the splits are the config's own
        assert ([s.content_hash() for s in splits]
                == [s.content_hash() for s in make_folds(g, cfg.split_spec())])
        assert train(g, cfg, splits=splits).split_hashes == [splits[0].content_hash()]
        return

    def unreachable(*args):
        raise AssertionError("the encoding was built for splits the config does not draw")

    monkeypatch.setattr(train_module, "build_encodings", unreachable)
    want = split_train_counts(g, cfg_cap)[0]
    got = int(np.sum(g.labels[splits[0].train] == 0))
    with pytest.raises(FairformerError, match=rf"^fold 0: the training set holds {got} nodes of "
                       rf"class 0, but a split at train_per_class_cap={cfg_cap} takes {want}$"):
        train(g, cfg, splits=splits)


def random_stack(n, d=5, tokens=3, seed=0):
    return HopStack(tensor=np.random.default_rng(seed).standard_normal((n, tokens, d)))


def scoring_params(d=5, seed=0):
    return init_model(quick_config(d_hidden=8, heads=2).model_config(seed), d)


@pytest.mark.parametrize("offset", ["one", "block-1", "block", "block+1", "2block+1"])
def test_blocked_scoring_matches_one_forward(offset):
    block = train_module._SCORE_BLOCK
    n = {"one": 1, "block-1": block - 1, "block": block, "block+1": block + 1,
         "2block+1": 2 * block + 1}[offset]
    params = scoring_params()
    stack = random_stack(n)
    got, ahead = train_module._score(params, stack)
    want = forward(params, stack).data
    assert ahead is None and got.shape == (n, 2)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert np.array_equal(got.argmax(axis=1), want.argmax(axis=1))


def one_forward_per_block(params, stack):
    block, n = train_module._SCORE_BLOCK, stack.tensor.shape[0]
    return np.concatenate([forward(params, train_module._rows(stack, slice(lo, lo + block))).data
                           for lo in range(0, n, block)])


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 129, 135, 143, 144, 250, 255, 256, 257, 383, 385, 390,
                               399, 400, 2 * 256 + 1])
def test_scoring_has_the_bytes_of_one_forward_per_block(monkeypatch, n, workers):
    monkeypatch.setattr(train_module, "_WORKERS", workers)
    params = scoring_params()
    stack = random_stack(n)
    want = one_forward_per_block(params, stack)
    assert train_module._score(params, stack)[0].tobytes() == want.tobytes()


@pytest.mark.parametrize("workers", [1, 2])
def test_scoring_at_the_default_width_has_the_bytes_of_one_forward_per_block(monkeypatch,
                                                                            workers):
    monkeypatch.setattr(train_module, "_WORKERS", workers)
    params = init_model(TrainConfig().model_config(0), 5)
    for n in (143, 144, 250, 400):
        stack = random_stack(n, seed=n)
        want = one_forward_per_block(params, stack)
        assert train_module._score(params, stack)[0].tobytes() == want.tobytes(), n


def test_score_pieces_are_one_range_per_block():
    block = train_module._SCORE_BLOCK
    for n in range(0, 3 * block + 2):
        pieces = train_module._score_pieces(n)
        assert [lo for lo, _ in pieces] == list(range(0, max(n, 1), block)), n  # one a block
        assert pieces[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(pieces, pieces[1:]))  # in order, no gap
    assert train_module._score_pieces(250) == [(0, 250)]
    assert train_module._score_pieces(4000)[-2:] == [(3584, 3840), (3840, 4000)]


def test_an_empty_set_scores_to_no_rows(monkeypatch):
    assert train_module._score_pieces(0) == [(0, 0)]
    for workers in (1, 2):
        monkeypatch.setattr(train_module, "_WORKERS", workers)
        logits, ahead = train_module._score(scoring_params(), random_stack(0), lambda: 3)
        assert logits.shape == (0, 2) and ahead == 3
        logits, ahead = train_module._score(scoring_params(), random_stack(0))
        assert logits.shape == (0, 2) and ahead is None


def test_scoring_memory_does_not_grow_with_the_set(monkeypatch):
    # one forward per block: a set of four blocks and a row peaks about as high as
    # one block, beside its logits (two float64 a row)
    monkeypatch.setattr(train_module, "_WORKERS", 1)
    params = init_model(TrainConfig().model_config(0), 5)
    block = train_module._SCORE_BLOCK
    peaks = []
    for n in (block, 4 * block + 1):
        stack = random_stack(n, seed=n)
        train_module._score(params, stack)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            train_module._score(params, stack)
            peaks.append(tracemalloc.get_traced_memory()[1] - base - 16 * n)
        finally:
            tracemalloc.stop()
    one_block, longer = peaks
    assert one_block > 100_000
    assert longer <= 1.5 * one_block, f"{longer} B past the logits against {one_block} B"


@pytest.mark.parametrize("n, count", [(143, 2), (250, 2), (256, 2), (257, 1), (513, 1),
                                      (143, 1), (250, 1), (256, 1), (257, 2), (513, 2)])
def test_scoring_without_beside_shares_a_set_under_one_blas_thread(blas_threads, monkeypatch,
                                                                   n, count):
    # a fold's last validation set and its test set are scored without `beside`;
    # from 257 rows on they are two pieces, and a helper takes one of them. The
    # BLAS count is the caller's, `count`: one thread inside `_ONE_BLAS_THREAD`,
    # as `train` holds it around its folds, or 2 outside it
    monkeypatch.setattr(train_module, "_WORKERS", 2)
    pieces = len(train_module._score_pieces(n))
    threads = min(pieces, 2)
    idents, seen = [], []
    arrived = threading.Condition()

    def recording_forward(params, piece, **kwargs):
        with arrived:  # a piece waits until `threads` threads have taken one
            idents.append(threading.get_ident())
            arrived.notify_all()
            arrived.wait_for(lambda: len(set(idents)) >= threads, timeout=10)
        seen.append(blas_threads())
        return forward(params, piece, **kwargs)

    monkeypatch.setattr(train_module, "forward", recording_forward)
    with train_module._ONE_BLAS_THREAD if count == 1 else contextlib.nullcontext():
        train_module._score(scoring_params(), random_stack(n))
    assert len(idents) == pieces and threading.get_ident() in idents
    assert len(set(idents)) == threads
    assert seen == [count] * pieces
    assert blas_threads() == 2


def test_scoring_records_no_tape(monkeypatch):
    params = scoring_params()
    sentinels = {name: np.full(t.data.shape, 7.0) for name, t in params.tensors.items()}
    for name, t in params.tensors.items():
        t.grad = sentinels[name]
    outputs = []

    def recording_forward(*args, **kwargs):
        outputs.append(forward(*args, **kwargs))
        return outputs[-1]

    monkeypatch.setattr(train_module, "forward", recording_forward)
    monkeypatch.setattr(train_module, "_WORKERS", 2)
    block = train_module._SCORE_BLOCK
    n = 2 * block + 1
    train_module._score(params, random_stack(n))
    assert len(outputs) == -(-n // block)  # one forward per block
    assert all(not out.requires_grad and out._backward_fn is None for out in outputs)
    for name, t in params.tensors.items():
        assert t.requires_grad and t.grad is sentinels[name]
        assert np.all(t.grad == 7.0)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_scoring_raises_the_first_failing_piece(monkeypatch, workers):
    monkeypatch.setattr(train_module, "_WORKERS", workers)
    block = train_module._SCORE_BLOCK
    stack = random_stack(2 * block + 1)
    ok = stack.tensor[0, 0, 0]
    ran = []

    def failing_forward(params, piece, **kwargs):  # every piece but the first fails
        ran.append(piece.tensor[0, 0, 0])
        if piece.tensor[0, 0, 0] != ok:
            raise ModelError(f"piece from {piece.tensor[0, 0, 0]!r}")
        return forward(params, piece, **kwargs)

    monkeypatch.setattr(train_module, "forward", failing_forward)
    with pytest.raises(ModelError) as caught:
        train_module._score(scoring_params(), stack)
    assert str(caught.value) == f"piece from {stack.tensor[block, 0, 0]!r}"
    starts = [lo for lo, _ in train_module._score_pieces(2 * block + 1)]
    assert sorted(ran) == sorted(stack.tensor[starts, 0, 0])  # every piece ran


def test_scoring_keeps_every_piece_under_fast_thread_switches(monkeypatch):
    block = train_module._SCORE_BLOCK
    params, stack = scoring_params(), random_stack(8 * block + 1)
    monkeypatch.setattr(train_module, "_WORKERS", 1)
    want = train_module._score(params, stack)[0].tobytes()
    monkeypatch.setattr(train_module, "_WORKERS", 8)
    got, besides = [], []

    def score_thrice():
        for _ in range(3):
            logits, ahead = train_module._score(params, stack, threading.get_ident)
            got.append(logits)
            besides.append(ahead)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        caller = threading.Thread(target=score_thrice)
        caller.start()
        caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not caller.is_alive()
    assert [logits.tobytes() for logits in got] == [want] * 3
    assert besides == [caller.ident] * 3


def test_a_failing_beside_reaches_the_caller_after_every_helper_finished(blas_threads,
                                                                        monkeypatch):
    # no helper may outlive a scoring call, also when `beside` raises an error that
    # is not the program's own: the helpers start only once it has raised
    monkeypatch.setattr(train_module, "_WORKERS", 3)
    n = 4 * train_module._SCORE_BLOCK + 1
    raised = threading.Event()
    blas_seen = []

    def waiting_forward(params, piece, **kwargs):
        assert raised.wait(timeout=10)
        out = forward(params, piece, **kwargs)
        blas_seen.append(blas_threads())  # the caller's count: `_score` sets none
        return out

    def beside():
        raised.set()
        raise RuntimeError("the step beside failed")

    monkeypatch.setattr(train_module, "forward", waiting_forward)
    with pytest.raises(RuntimeError, match="the step beside failed"):
        train_module._score(scoring_params(), random_stack(n), beside)
    assert blas_seen == [2] * len(train_module._score_pieces(n))
    assert blas_threads() == 2


def test_scoring_after_adam_step_sees_updated_weights(monkeypatch):
    monkeypatch.setattr(train_module, "_LEARNING_RATE", 1e-2)
    params = scoring_params()
    stack = random_stack(40)
    before, _ = train_module._score(params, stack)
    optimizer = Adam(params.trainable())
    loss = cross_entropy(forward(params, stack), np.arange(40) % 2)
    ad.backward(loss)
    optimizer.step()
    after, _ = train_module._score(params, stack)
    assert not np.allclose(after, before)
    np.testing.assert_allclose(after, forward(params, stack).data, rtol=0, atol=1e-12)


def test_training_step_peak_stays_near_its_forward_tape():
    # backward frees each interior node once its closure has run, so a step holds
    # its forward tape plus one frontier of grads; keeping every grad and closure
    # to the end of the step read about 3x the tape here
    cfg = TrainConfig()
    g = sensitive_block_graph(n=100, seed=0)
    stack = build_encodings(g, cfg)
    params, optimizer, dropout_rng = train_module._init_fold(cfg, stack.d, 0)
    train_module._train_step(params, optimizer, dropout_rng, stack, g.labels, 0, 0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = cross_entropy(forward(params, stack, training=True,
                                     rng=np.random.default_rng(1)), g.labels)
        tape = tracemalloc.get_traced_memory()[0] - base
        del loss
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        train_module._train_step(params, optimizer, dropout_rng, stack, g.labels, 0, 1)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert tape > 1_000_000
    assert peak <= 1.5 * tape, f"step peak {peak} B against a {tape} B forward tape"


def test_training_step_leaves_no_grads():
    cfg = TrainConfig()
    g = sensitive_block_graph(n=100, seed=0)
    stack = build_encodings(g, cfg)
    params, optimizer, dropout_rng = train_module._init_fold(cfg, stack.d, 0)
    for epoch in (1, 2):
        train_module._train_step(params, optimizer, dropout_rng, stack, g.labels, 0, epoch)
        assert all(t.grad is None for t in params.trainable())


def test_training_step_holds_no_grads_worth_after_adam():
    # Adam rebinds the weights and both moments to arrays of the same size, so
    # what a step leaves behind beyond a fresh fold is what it did not free; width
    # 128 gives a grad set large enough to tell a freed one from a held one
    cfg = TrainConfig(d_hidden=128)
    g = sensitive_block_graph(n=100, seed=0)
    stack = build_encodings(g, cfg)
    train_module._train_step(*train_module._init_fold(cfg, stack.d, 1), stack, g.labels, 1, 1)
    tracemalloc.start()
    try:
        params, optimizer, dropout_rng = train_module._init_fold(cfg, stack.d, 0)
        base = tracemalloc.get_traced_memory()[0]
        train_module._train_step(params, optimizer, dropout_rng, stack, g.labels, 0, 1)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    grads = sum(t.data.nbytes for t in params.trainable())
    assert grads > 1_000_000
    assert held < 0.5 * grads, f"a step left {held} B held against {grads} B of grads"


def test_finished_fold_weights_are_freed_without_an_out_dir(monkeypatch):
    g = sensitive_block_graph(n=100, seed=7, avg_degree=10.0)
    fold_params = []
    freed_at_fold1 = []
    init_fold, train_step = train_module._init_fold, train_module._train_step

    def tracking_init(cfg, d, fold):
        params, optimizer, dropout_rng = init_fold(cfg, d, fold)
        fold_params.append(weakref.ref(params))
        return params, optimizer, dropout_rng

    def checking_step(params, optimizer, dropout_rng, stack, labels, fold, epoch):
        if fold == 1 and epoch == 1:
            gc.collect()
            freed_at_fold1.append(fold_params[0]() is None)
        return train_step(params, optimizer, dropout_rng, stack, labels, fold, epoch)

    monkeypatch.setattr(train_module, "_init_fold", tracking_init)
    monkeypatch.setattr(train_module, "_train_step", checking_step)
    train(g, quick_config(epochs=3, folds=2, train_per_class_cap=15))
    assert freed_at_fold1 == [True]


def test_report_records_the_effective_t():
    g = sensitive_block_graph(n=40, seed=12, avg_degree=8.0)
    cfg = quick_config(epochs=1, folds=1, d_hidden=8, train_per_class_cap=5)
    for ablation, want in [("full", 40), ("lap_st", 39), ("no_st", 0), ("no_nf", 40),
                           ("adj_nf", 40)]:
        result = train(g, replace(cfg, t=50, ablation=ablation))
        lines = result.summary_text().splitlines()
        assert "config.t=50" in lines and f"t_effective={want}" in lines
    assert "t_effective=3" in train(g, replace(cfg, t=3)).summary_text().splitlines()


def test_hop_stack_that_cannot_fit_is_refused_before_it_is_allocated():
    g = sensitive_block_graph(n=200, seed=3, avg_degree=8.0)
    tracemalloc.start()
    try:
        # adjacency hops keep every token: 200 nodes x (10**8 + 1) tokens x 15 columns x
        # 8 bytes is 2.4 TB
        with pytest.raises(FairformerError, match=r"hop stack of k=100000000 .* needs about"):
            build_encodings(g, TrainConfig(k=10**8, t=5, ablation="adj_nf"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_group_mean_stack_memory_does_not_grow_with_k():
    g = sensitive_block_graph(n=200, seed=3, avg_degree=8.0)
    tracemalloc.start()
    try:
        stack = build_encodings(g, TrainConfig(k=10**8, t=5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stack.tensor.shape == (200, 2, g.d + 5) and stack.counts == (1, 10**8)
    assert peak < 1_000_000


def test_report_names_the_selected_epoch_and_why_training_stopped(tmp_path, monkeypatch):
    g = sensitive_block_graph(n=100, seed=7, avg_degree=10.0)
    cfg = quick_config(folds=1, train_per_class_cap=15)
    capped = train(g, replace(cfg, epochs=4))
    assert capped.stop_reasons == ["epochs"] and capped.epochs_run == [4]
    assert 0 <= capped.best_epochs[0] <= 4

    monkeypatch.setattr(train_module, "_PATIENCE", 2)
    stalled = train(g, replace(cfg, epochs=200), out_dir=tmp_path)
    best = stalled.best_epochs[0]
    assert stalled.stop_reasons == ["patience"] and stalled.epochs_run == [best + 2]
    if best:
        logged = (tmp_path / "train_log.txt").read_text().splitlines()[best - 1]
        assert f" epoch={best} " in logged
        assert f" val_acc={stalled.val_accuracies[0]!r} " in logged
    fold_line = next(line for line in (tmp_path / "report.txt").read_text().splitlines()
                     if line.startswith("fold=0 "))
    assert f" epochs={best + 2} best_epoch={best} stop=patience " in fold_line


def group_mean_features(n, d=5, seed=0):
    """Sensitive groups, and features with a nonzero mean so the tied tokens differ in the last bits."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, n), 3.0 + rng.standard_normal((n, d))


def dense_group_mean_hops(sens, x, k):
    """Hops 0..k of x through the dense group-mean matrix, every token kept: an
    independent route to the stack that the counted one stands for."""
    same = (sens[:, None] == sens[None, :]).astype(np.float64)
    mean = same / same.sum(axis=1, keepdims=True)
    return np.stack([dense_power_apply(mean, x, j) for j in range(k + 1)], axis=1)


def row_order_group_means(sens, x):
    """(2, d) group means, each group's rows added one at a time in row order."""
    table = np.zeros((2, x.shape[1]))
    for grp in (0, 1):
        rows = x[sens == grp]
        for row in rows:
            table[grp] = table[grp] + row
        table[grp] /= max(len(rows), 1)
    return table


@pytest.mark.parametrize("width", [1, 13])
@pytest.mark.parametrize("k", [0, 1, 2, 5])
@pytest.mark.parametrize("n,empty", [(1, None), (2, None), (257, None), (1000, None), (257, 0)],
                         ids=["1", "2", "257", "1000", "257-one-group"])
def test_group_mean_stack_lays_out_its_group_table_byte_for_byte(n, empty, k, width):
    sens, x = group_mean_features(n, d=width, seed=n + k)
    if empty is not None:
        sens = np.full(n, empty)
    stack = hop_aggregate(sens, x, k, normalization="group-mean")
    want = (x[:, None] if k == 0
            else np.stack([x, row_order_group_means(sens, x)[sens]], axis=1))
    assert stack.n == n and stack.d == width
    assert stack.tensor.dtype == want.dtype and stack.tensor.shape == want.shape
    assert stack.tensor.tobytes() == want.tobytes()
    order = np.random.default_rng(n).permutation(n)
    for idx in (slice(None), slice(0, n // 2), slice(n // 3, n), order, order[: n // 4],
                np.array([], dtype=np.intp), sens == 1):
        assert stack.rows(idx).tobytes() == want[idx].tobytes()
        assert stack.rows(idx).shape == want[idx].shape
    dense = dense_group_mean_hops(sens, x, k)
    for j in range(k + 1):  # every hop past 0 is token 1, to rounding
        np.testing.assert_allclose(stack.tensor[:, min(j, 1)], dense[:, j], rtol=0, atol=1e-12)


def test_training_never_lays_out_the_whole_group_mean_stack(monkeypatch):
    g = sensitive_block_graph(n=300, seed=4)
    cfg = quick_config(k=3, epochs=3, train_per_class_cap=30)
    built, whole, row_counts = [], [], []
    read_tensor, read_rows = HopStack.tensor.fget, HopStack.rows

    def recording_build(graph, config):
        built.append(build_encodings(graph, config))
        return built[-1]

    def counting_tensor(stack):
        whole.extend(s for s in built if s is stack)
        return read_tensor(stack)

    def counting_rows(stack, idx):
        got = read_rows(stack, idx)
        row_counts.extend(got.shape[0] for s in built if s is stack)
        return got

    monkeypatch.setattr(train_module, "build_encodings", recording_build)
    monkeypatch.setattr(HopStack, "tensor", property(counting_tensor))
    monkeypatch.setattr(HopStack, "rows", counting_rows)
    held = train(g, cfg)
    monkeypatch.undo()
    assert len(built) == 1 and built[0].counts == (1, 3)
    assert whole == [] and row_counts and max(row_counts) < g.n

    # train scales the stack it is given in place: a dense one, as here, to the bits of
    # the one held by blocks
    raw = build_encodings(g, cfg)
    monkeypatch.setattr(train_module, "build_encodings",
                        lambda graph, config: HopStack(raw.tensor, raw.counts))
    assert train(g, cfg).summary_text() == held.summary_text()


@pytest.mark.parametrize("k,heads,layers", list(itertools.product((2, 3), (1, 2), (1, 2))))
def test_collapsed_scoring_matches_every_token(k, heads, layers):
    block = train_module._SCORE_BLOCK
    sens, x = group_mean_features(2 * block + 1)
    collapsed = hop_aggregate(sens, x, k, normalization="group-mean")
    assert collapsed.tensor.shape[1] == 2 and collapsed.counts == (1, k)
    full = HopStack(tensor=dense_group_mean_hops(sens, x, k))
    cfg = quick_config(k=k, heads=heads, layers=layers, d_hidden=8)
    params = init_model(cfg.model_config(seed=10 * k + heads + layers), full.d)
    oracle = forward_direct(params, full.tensor) if heads == 1 else None
    for n in (1, block - 1, block, block + 1, 2 * block + 1):
        got, _ = train_module._score(params, train_module._rows(collapsed, slice(0, n)))
        want = forward(params, train_module._rows(full, slice(0, n))).data
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert np.array_equal(got.argmax(axis=1), want.argmax(axis=1))
        if oracle is not None:
            np.testing.assert_allclose(got, oracle[:n], rtol=0, atol=1e-12)


@pytest.mark.parametrize("overrides,tied", [
    ({}, True), ({"ablation": "no_st"}, True), ({"ablation": "lap_st"}, True),
    ({"ablation": "adj_nf"}, False), ({"ablation": "no_nf"}, False), ({"k": 1}, False),
    ({"k": 0}, False),
], ids=["full", "no_st", "lap_st", "adj_nf", "no_nf", "k1", "k0"])
def test_scoring_collapses_only_tied_group_mean_tokens(overrides, tied):
    g = sensitive_block_graph(n=60, seed=8, avg_degree=8.0)
    cfg = quick_config(**{"k": 3, "t": 3, **overrides})
    stack = build_encodings(g, cfg)
    if not tied:
        assert stack.counts is None
        assert stack.tensor.shape[1] == (1 if cfg.ablation == "no_nf" else cfg.k + 1)
        return
    assert stack.tensor.shape[1] == 2 and stack.counts == (1, 3)
    expanded = dense_group_mean_hops(g.sensitive, stack.tensor[:, 0], 3)
    for j in (1, 2, 3):  # every oracle hop past 0 is token 1
        np.testing.assert_allclose(stack.tensor[:, 1], expanded[:, j], rtol=0, atol=1e-12)


@pytest.mark.parametrize("k", range(4))
@pytest.mark.parametrize("ablation", ["full", "no_st", "lap_st"])
def test_build_encodings_runs_the_library_group_mean_stack(ablation, k):
    g = sensitive_block_graph(n=60, seed=8, avg_degree=8.0)
    cfg = quick_config(k=k, t=3, ablation=ablation)
    if ablation == "no_st":
        fused = g.features
    else:
        solve = (spectral.laplacian_small_eigenpairs if ablation == "lap_st"
                 else spectral.top_magnitude_eigenpairs)
        fused = spectral.fuse(g, solve(g, cfg.t, seed=cfg.seed))
    want = hop_aggregate(build_group_graph(g), fused, k, normalization="group-mean")
    got = build_encodings(g, cfg)
    assert got.counts == want.counts and np.array_equal(got.tensor, want.tensor)


@pytest.mark.parametrize("scale", [False, True], ids=["raw", "scaled"])
@pytest.mark.parametrize("t", [0, 1, 2, 5])
@pytest.mark.parametrize("ablation", ABLATION_VARIANTS)
def test_build_encodings_keeps_the_bytes_of_the_fused_copy(ablation, t, scale):
    # raw: the encoding perfbench checks against the basis; scaled: the stack train
    # runs, which scaling the fused copy's dense stack where it lies gives too
    g = sensitive_block_graph(n=60, seed=8, avg_degree=8.0)
    cfg = quick_config(k=3, t=t, ablation=ablation)
    if ablation == "no_st":
        fused = g.features.copy()
    else:
        basis = (spectral.laplacian_small_eigenpairs(g, t, seed=cfg.seed) if ablation == "lap_st"
                 else spectral.top_magnitude_eigenpairs(g, t, seed=cfg.seed))
        fused = spectral.fuse(g, basis)
    sens = g.sensitive.astype(np.intp)
    if ablation == "adj_nf":
        want = train_module.hop_aggregate_adjacency(g, fused, cfg.k).tensor
    elif ablation == "no_nf":
        want = fused[:, None]
    else:
        want = np.stack([fused, row_order_group_means(sens, fused)[sens]], axis=1)
    got, want = build_encodings(g, cfg), HopStack(want)
    if scale:
        scale_columns(got, g.d)
        scale_columns(want, g.d)
    assert got.tensor.shape == want.tensor.shape
    assert got.tensor.tobytes() == want.tensor.tobytes()


@pytest.mark.parametrize("ablation", ["full", "no_st", "lap_st", "no_nf"])
def test_group_mean_encoding_holds_no_node_rows_of_its_own(ablation):
    g = sensitive_block_graph(n=2000, seed=1, avg_degree=8.0)
    cfg = quick_config(k=3, t=5, ablation=ablation)
    build_encodings(g, cfg)  # the graph remembers its basis from here on
    tracemalloc.start()
    try:
        stack = build_encodings(g, cfg)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert stack.n == g.n and stack.d == g.d + (0 if ablation == "no_st" else cfg.t)
    # one byte a node of groups and the (2, d) table; one float64 column is 8 bytes a node
    assert held < 2 * g.n


def test_train_feeds_the_model_scaled_structure_columns(monkeypatch):
    # 20 labeled nodes a class: training, validation and test take every node
    g = sensitive_block_graph(n=40, seed=12, avg_degree=8.0)
    g = replace(g, labels=np.arange(g.n) % 2)
    calls = []

    def recording_forward(params, stack, training=False, **kwargs):
        calls.append((training, stack.tensor))
        return forward(params, stack, training=training, **kwargs)

    monkeypatch.setattr(train_module, "forward", recording_forward)
    cfg = quick_config(k=2, t=3, epochs=1, folds=1)
    split = make_folds(g, cfg.split_spec())[0]
    order = np.concatenate([split.train, split.val, split.test])
    assert np.array_equal(np.sort(order), np.arange(g.n))
    train(g, cfg, splits=[split])
    step = next(tensor for training, tensor in calls if training)
    val, test = (tensor for training, tensor in calls[-2:] if not training)
    tokens = np.concatenate([step, val, test])
    raw = build_encodings(g, cfg).tensor[order]
    assert tokens.shape == raw.shape == (g.n, 2, g.d + 3)
    assert np.array_equal(tokens[:, :, :g.d], raw[:, :, :g.d])
    structure = tokens[:, :, g.d:]
    assert np.array_equal(structure[:, 0].min(axis=0), [-1.0] * 3)
    assert np.array_equal(structure[:, 0].max(axis=0), [1.0] * 3)
    assert np.all(np.abs(structure[:, 1]) <= 1.0)  # a group mean of scaled columns


def test_training_and_scoring_run_the_same_tokens(monkeypatch):
    calls = []

    def recording_forward(params, stack, training=False, **kwargs):
        calls.append((training, stack.tensor.shape[1], stack.counts))
        return forward(params, stack, training=training, **kwargs)

    monkeypatch.setattr(train_module, "forward", recording_forward)
    g = sensitive_block_graph(n=100, seed=7, avg_degree=10.0)
    train(g, quick_config(k=3, epochs=2, folds=1, train_per_class_cap=15))
    assert [c for c in calls if c[0]] == [(True, 2, (1, 3))] * 2
    assert {c for c in calls if not c[0]} == {(False, 2, (1, 3))}

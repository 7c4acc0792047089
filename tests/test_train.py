import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from dataclasses import replace

import fairformer.spectral as spectral
import fairformer.train as train_module
from fairformer import autodiff as ad
from fairformer.data import Graph, Split, SplitSpec, make_folds
from fairformer.errors import FairformerError, SplitError, TrainingError
from fairformer.hops import HopStack, hop_aggregate
from fairformer.model import cross_entropy, forward, init_model
from fairformer.synth import sensitive_block_graph
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
    cfg = quick_config(epochs=3, folds=2)
    results = ablate(g, cfg, split_spec=SplitSpec(train_per_class_cap=15, seed=0, folds=2))
    assert tuple(results) == ABLATION_VARIANTS
    hashes = {tuple(r.split_hashes) for r in results.values()}
    assert len(hashes) == 1


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
    ablate(g, quick_config(epochs=2, folds=1, t=2),
           split_spec=SplitSpec(train_per_class_cap=15, seed=0, folds=1))
    assert calls.count((2, "LM")) == 1 and calls.count((2, "SA")) == 1
    assert set(calls) <= {(2, "LM"), (1, "LM"), (2, "SA")}


def test_sweep_over_layers_solves_once(monkeypatch):
    g = sensitive_block_graph(n=100, seed=10, avg_degree=10.0)
    calls = recorded_solves(monkeypatch)
    rows = sweep(g, quick_config(epochs=2, folds=1, t=2), "layers", range(1, 3),
                 split_spec=SplitSpec(train_per_class_cap=15, seed=0, folds=1))
    assert len(rows) == 2
    assert calls.count((2, "LM")) == 1


@pytest.mark.parametrize("values", [[3, 1, 2], [1, 3, 2]])
def test_sweep_over_t_solves_once_at_the_largest_t(monkeypatch, values):
    g = sensitive_block_graph(n=100, seed=10, avg_degree=10.0)
    cfg = quick_config(epochs=2, folds=1)
    calls = recorded_solves(monkeypatch)
    spectral.top_magnitude_eigenpairs(replace(g), 3, seed=cfg.seed)  # a copy keeps no basis
    solo, calls[:] = list(calls), []
    rows = sweep(g, cfg, "t", values,
                 split_spec=SplitSpec(train_per_class_cap=15, seed=0, folds=1))
    assert [value for value, _ in rows] == values
    assert [result.t_effective for _, result in rows] == values
    assert calls.count((3, "LM")) == 1 and calls == solo  # the t=3 solve and its cut check


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

    def recording_step(self):
        decays.append(self.weight_decay)
        adam_step(self)

    monkeypatch.setattr(train_module, "forward", recording_forward)
    monkeypatch.setattr(Adam, "step", recording_step)
    bench_scaling([200, 400], k=1, t=2, d_hidden=8, epochs_timed=2, repeats=1)
    # the first step at n = 200 is the untimed warm-up
    assert forwards == [(True, True, 200)] * 3 + [(True, True, 400)] * 2
    assert decays == [TrainConfig().weight_decay] * 5 and decays[0] > 0


def test_bench_times_a_cold_solve_in_every_encode(monkeypatch):
    # the graph remembers its basis, so a timed encode on it would skip the solve
    calls = recorded_solves(monkeypatch)
    bench_scaling([200, 400], k=1, t=2, d_hidden=8, epochs_timed=1, repeats=2)
    assert calls.count((2, "LM")) == 1 + 2 * 2  # the warm-up encode and every timed one


def test_mean_within_fold_range():
    g = sensitive_block_graph(n=120, seed=11, avg_degree=10.0)
    cfg = quick_config(epochs=5, folds=3)
    result = train(g, cfg, split_spec=SplitSpec(train_per_class_cap=15, seed=3, folds=3))
    accs = [r.accuracy for r in result.fold_reports]
    assert min(accs) <= result.mean["accuracy"] <= max(accs)
    assert len(result.fold_reports) == 3


def test_single_group_validation_logs_nan_parity(tmp_path):
    g = separable_graph()
    group0, group1 = np.flatnonzero(g.sensitive == 0), np.flatnonzero(g.sensitive == 1)
    val = group0[:6]
    test = np.concatenate([group0[6:10], group1[:4]])
    split = Split(train=np.setdiff1d(np.arange(g.n), np.concatenate([val, test])), val=val,
                  test=test)
    result = train(g, quick_config(epochs=3, folds=1, t=0, ablation="no_st"), splits=[split],
                   out_dir=tmp_path)
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
        train(g, quick_config(folds=2), split_spec=SplitSpec(seed=0, folds=2))


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
    got = train_module._score(params, stack)
    want = forward(params, stack).data
    assert got.shape == (n, 2)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert np.array_equal(got.argmax(axis=1), want.argmax(axis=1))


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
    train_module._score(params, random_stack(2 * train_module._SCORE_BLOCK + 1))
    assert len(outputs) == 3
    assert all(not out.requires_grad and out._backward_fn is None for out in outputs)
    for name, t in params.tensors.items():
        assert t.requires_grad and t.grad is sentinels[name]
        assert np.all(t.grad == 7.0)


def test_scoring_after_adam_step_sees_updated_weights():
    params = scoring_params()
    stack = random_stack(40)
    before = train_module._score(params, stack)
    optimizer = Adam(params.trainable(), lr=1e-2)
    loss = cross_entropy(forward(params, stack), np.arange(40) % 2)
    ad.backward(loss)
    optimizer.step()
    after = train_module._score(params, stack)
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


def test_report_records_the_effective_t():
    g = sensitive_block_graph(n=40, seed=12, avg_degree=8.0)
    spec = SplitSpec(train_per_class_cap=5, seed=0, folds=1)
    for ablation, want in [("full", 40), ("lap_st", 39), ("no_st", 0), ("no_nf", 40),
                           ("adj_nf", 40)]:
        result = train(g, quick_config(epochs=1, folds=1, t=50, d_hidden=8, ablation=ablation),
                       split_spec=spec)
        lines = result.summary_text().splitlines()
        assert "config.t=50" in lines and f"t_effective={want}" in lines
    assert "t_effective=3" in train(g, quick_config(epochs=1, folds=1, t=3, d_hidden=8),
                                    split_spec=spec).summary_text().splitlines()


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


def test_report_names_the_selected_epoch_and_why_training_stopped(tmp_path):
    g = sensitive_block_graph(n=100, seed=7, avg_degree=10.0)
    spec = SplitSpec(train_per_class_cap=15, seed=0, folds=1)
    capped = train(g, quick_config(epochs=4, folds=1), split_spec=spec)
    assert capped.stop_reasons == ["epochs"] and capped.epochs_run == [4]
    assert 0 <= capped.best_epochs[0] <= 4

    stalled = train(g, quick_config(epochs=200, folds=1, patience=2), split_spec=spec,
                    out_dir=tmp_path)
    best = stalled.best_epochs[0]
    assert stalled.stop_reasons == ["patience"] and stalled.epochs_run == [best + 2]
    if best:
        logged = (tmp_path / "train_log.txt").read_text().splitlines()[best - 1]
        assert f" epoch={best} " in logged
        assert f" val_acc={stalled.val_accuracies[0]!r} " in logged
    fold_line = next(line for line in (tmp_path / "report.txt").read_text().splitlines()
                     if line.startswith("fold=0 "))
    assert f" epochs={best + 2} best_epoch={best} stop=patience " in fold_line


def group_mean_stack(n, k, d=5, seed=0):
    """Same-group hops of features with a nonzero mean, so the tied tokens differ in the last bits."""
    rng = np.random.default_rng(seed)
    sens = rng.integers(0, 2, n)
    return hop_aggregate(sens, 3.0 + rng.standard_normal((n, d)), k, normalization="group-mean")


@pytest.mark.parametrize("k,heads,layers", list(itertools.product((2, 3), (1, 2), (1, 2))))
def test_collapsed_scoring_matches_every_token(k, heads, layers):
    block = train_module._SCORE_BLOCK
    full = group_mean_stack(2 * block + 1, k)
    collapsed = replace(group_mean_stack(2 * block + 1, 1), counts=(1, k))
    assert np.array_equal(collapsed.tensor, full.tensor[:, :2])
    cfg = quick_config(k=k, heads=heads, layers=layers, d_hidden=8)
    params = init_model(cfg.model_config(seed=10 * k + heads + layers), full.d)
    oracle = forward_direct(params, full.tensor) if heads == 1 else None
    for n in (1, block - 1, block, block + 1, 2 * block + 1):
        got = train_module._score(params, train_module._rows(collapsed, slice(0, n)))
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
    assert stack.counts == (1, 3)
    expanded = hop_aggregate(g.sensitive, stack.tensor[:, 0], 3, normalization="group-mean")
    assert np.array_equal(stack.tensor, expanded.tensor[:, :2])
    np.testing.assert_allclose(expanded.tensor[:, 2:], expanded.tensor[:, 1:2].repeat(2, axis=1),
                               rtol=0, atol=1e-12)


def test_training_and_scoring_run_the_same_tokens(monkeypatch):
    calls = []

    def recording_forward(params, stack, training=False, **kwargs):
        calls.append((training, stack.tensor.shape[1], stack.counts))
        return forward(params, stack, training=training, **kwargs)

    monkeypatch.setattr(train_module, "forward", recording_forward)
    g = sensitive_block_graph(n=100, seed=7, avg_degree=10.0)
    train(g, quick_config(k=3, epochs=2, folds=1, dropout=0.1),
          split_spec=SplitSpec(train_per_class_cap=15, seed=0, folds=1))
    assert [c for c in calls if c[0]] == [(True, 2, (1, 3))] * 2
    assert {c for c in calls if not c[0]} == {(False, 2, (1, 3))}

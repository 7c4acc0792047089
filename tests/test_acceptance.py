"""Acceptance suite: one test per release criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Budgeted criteria assert their own wall-clock limits.
"""

import os
import time
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import fairformer.autodiff as ad
from fairformer.cli import main as cli_main
from fairformer.data import SplitSpec, make_folds
from fairformer.hops import (HopStack, group_scaling_report, hop_aggregate,
                             hop_aggregate_adjacency)
from fairformer.model import ModelConfig, cross_entropy, forward, init_model
from fairformer.oracles import dense_eig, dense_power_apply, fd_gradient
from fairformer.spectral import spectral_alignment_report, top_magnitude_eigenpairs
from fairformer.synth import random_connected_graph, sensitive_block_graph
from fairformer.train import TrainConfig, bench_scaling, train


def verdict(criterion, passed, detail=""):
    line = f"[criterion {criterion}] {'PASS' if passed else 'FAIL'} {detail}".rstrip()
    print(line, flush=True)
    assert passed, line


def test_criterion_1_group_scaling_exact():
    start = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng(10_000 + trial)
        n = int(rng.integers(2, 201))
        rng.integers(1, 9)  # an unused draw, kept so that each instance's k stays the same
        k = int(rng.integers(1, 5))
        sens = rng.integers(0, 2, n).astype(np.float64)
        report = group_scaling_report(sens, k_max=k)
        assert report.exact_pass and report.float_pass
        worst = max(worst, report.max_abs_deviation)
    elapsed = time.perf_counter() - start
    verdict(1, worst == 0.0 and elapsed < 10.0,
            f"instances=100 max_abs_deviation={worst} elapsed={elapsed:.2f}s (budget 10s)")


def test_criterion_2_alignment_identity_and_decay():
    start = time.perf_counter()
    max_identity_err = 0.0
    checked = 0
    trial = 0
    while checked < 50:
        rng = np.random.default_rng(20_000 + trial)
        trial += 1
        n = int(rng.integers(10, 101))
        g = random_connected_graph(n, density=float(rng.uniform(0.2, 0.4)), seed=30_000 + trial)
        try:
            report = spectral_alignment_report(g, k_max=6)
        except Exception:
            continue  # strict-gap or degenerate draws are re-sampled
        if not report.decay_applicable:
            continue
        max_identity_err = max(max_identity_err, report.identity_max_error)
        assert report.identity_max_error <= 1e-8
        bound = report.decay_constant * report.eigenvalue_ratio ** report.k_values
        assert np.all(report.gaps <= bound + 1e-12)
        assert report.decay_ok
        checked += 1
    elapsed = time.perf_counter() - start
    verdict(2, max_identity_err <= 1e-8 and elapsed < 30.0,
            f"graphs=50 max_identity_error={max_identity_err:.3e} (tol 1e-8) "
            f"decay_bound=hop-1-fit elapsed={elapsed:.2f}s (budget 30s)")


def test_criterion_3_eigensolver_matches_oracle():
    worst = 0.0
    for trial in range(50):
        rng = np.random.default_rng(40_000 + trial)
        n = int(rng.integers(8, 101))
        t = int(rng.integers(1, min(11, n + 1)))
        a = rng.standard_normal((n, n))
        a = (a + a.T) / 2
        basis = top_magnitude_eigenpairs(a, t=t, tol=1e-11, seed=trial)
        lam_ref, vec_ref = dense_eig(a)
        dev_val = float(np.max(np.abs(basis.eigenvalues - lam_ref[:t])))
        dev_vec = float(np.max(np.abs(basis.structure_matrix - vec_ref[:, :t])))
        worst = max(worst, dev_val, dev_vec)
    verdict(3, worst <= 1e-6, f"matrices=50 t<=10 max_deviation={worst:.3e} (tol 1e-6)")


def _op_cases():
    return [
        ("matmul", lambda ts: ad.matmul(ts[0], ts[1]), [(3, 4), (4, 2)]),
        ("matmul_batched", lambda ts: ad.matmul(ts[0], ts[1]), [(2, 3, 4), (4, 2)]),
        ("add_bias", lambda ts: ad.add(ts[0], ts[1]), [(3, 5), (5,)]),
        ("linear", lambda ts: ad.matmul(ts[0], ts[1], bias=ts[2]), [(2, 3, 4), (4, 2), (2,)]),
        ("mul", lambda ts: ad.mul(ts[0], ts[1]), [(4, 3), (4, 3)]),
        ("scale", lambda ts: ad.scale(ts[0], 1.7), [(4, 3)]),
        ("transpose", lambda ts: ad.transpose_last(ts[0]), [(3, 4)]),
        ("permute", lambda ts: ad.permute(ts[0], (1, 0, 2)), [(2, 3, 4)]),
        ("reshape", lambda ts: ad.reshape(ts[0], (6, 4)), [(2, 3, 4)]),
        ("pick", lambda ts: ad.pick(ts[0], [0, 1, 2], [1, 0, 3]), [(3, 4)]),
        ("softmax", lambda ts: ad.softmax_rows(ts[0]), [(4, 4)]),
        ("log_softmax", lambda ts: ad.log_softmax_rows(ts[0]), [(4, 4)]),
        ("layer_norm", lambda ts: ad.layer_norm(ts[0], ts[1], ts[2]), [(3, 5), (5,), (5,)]),
        ("gelu", lambda ts: ad.gelu(ts[0]), [(4, 3)]),
        ("sum", lambda ts: ad.sum_all(ts[0]), [(4, 3)]),
    ]


def _max_rel_err(build, arrays, seed):
    rng = np.random.default_rng(seed)
    leaves = [ad.Tensor(a, requires_grad=True) for a in arrays]
    out = build(leaves)
    weights = rng.standard_normal(out.data.shape)
    loss = ad.sum_all(ad.mul(out, ad.Tensor(weights)))
    ad.backward(loss)

    def numeric(arrs):
        tensors = [ad.Tensor(a) for a in arrs]
        result = build(tensors)
        return float(np.sum(result.data * weights))

    fd = fd_gradient(numeric, [a.copy() for a in arrays], step=1e-5)
    worst = 0.0
    for leaf, want in zip(leaves, fd):
        denom = max(np.max(np.abs(want)), 1e-8)
        worst = max(worst, float(np.max(np.abs(leaf.grad - want)) / denom))
    return worst


def test_criterion_4_gradient_suite():
    worst_op = 0.0
    for name, build, shapes in _op_cases():
        for seed in range(20):
            rng = np.random.default_rng(zlib.crc32(name.encode()) + seed)  # no per-process salt
            arrays = [rng.standard_normal(s) * 0.9 for s in shapes]
            worst_op = max(worst_op, _max_rel_err(build, arrays, seed))
    assert worst_op <= 1e-4

    # end-to-end: every parameter of a 5-node, k=2, width-8 model
    stack = HopStack(tensor=np.random.default_rng(7).standard_normal((5, 3, 6)))
    cfg = ModelConfig(d_hidden=8, layers=1, heads=1, dropout=0.0, seed=11)
    params = init_model(cfg, 6)
    labels = np.array([0, 1, 1, 0, 1])

    logits = forward(params, stack)
    loss = cross_entropy(logits, labels)
    ad.backward(loss)
    names = sorted(params.tensors)
    got = {name: params[name].grad.copy() if params[name].grad is not None
           else np.zeros_like(params[name].data) for name in names}

    def loss_at(arrays):
        saved = [params[name].data for name in names]
        for name, arr in zip(names, arrays):
            params.tensors[name].data = arr
        value = float(cross_entropy(forward(params, stack), labels).data)
        for name, arr in zip(names, saved):
            params.tensors[name].data = arr
        return value

    fd = fd_gradient(loss_at, [params[name].data.copy() for name in names])
    worst_model = 0.0
    for name, want in zip(names, fd):
        denom = max(np.max(np.abs(want)), 1e-8)
        worst_model = max(worst_model, float(np.max(np.abs(got[name] - want)) / denom))
    verdict(4, worst_op <= 1e-4 and worst_model <= 1e-4,
            f"ops_worst_rel={worst_op:.3e} model_worst_rel={worst_model:.3e} (tol 1e-4)")


def test_criterion_5_hop_encodings_match_dense_oracles():
    worst_group = 0.0
    worst_adj = 0.0
    for trial in range(20):
        rng = np.random.default_rng(50_000 + trial)
        n = int(rng.integers(5, 201))
        d = int(rng.integers(1, 6))
        k = int(rng.integers(1, 5))
        sens = rng.integers(0, 2, n)
        h = rng.standard_normal((n, d))
        dense_as = (sens[:, None] == sens[None, :]).astype(np.float64)
        stack = hop_aggregate(sens, h, k=k, normalization="raw")
        for j in range(k + 1):
            want = dense_power_apply(dense_as, h, j)
            scale = max(1.0, float(np.max(np.abs(want))))
            worst_group = max(worst_group,
                              float(np.max(np.abs(stack.tensor[:, j, :] - want))) / scale)

        g = random_connected_graph(n if n >= 2 else 2, density=0.1, seed=60_000 + trial)
        h2 = rng.standard_normal((g.n, d))
        stack2 = hop_aggregate_adjacency(g, h2, k=k)
        dense_a = g.adjacency.toarray()
        for j in range(k + 1):
            want = dense_power_apply(dense_a, h2, j)
            scale = max(1.0, float(np.max(np.abs(want))))
            worst_adj = max(worst_adj,
                            float(np.max(np.abs(stack2.tensor[:, j, :] - want))) / scale)
    verdict(5, worst_group <= 1e-9 and worst_adj <= 1e-9,
            f"group_dev={worst_group:.3e} adjacency_dev={worst_adj:.3e} (tol 1e-9)")


FIXTURE_SEEDS = (0, 1, 2, 3, 4)


def fairness_fixture_config(seed):
    return TrainConfig(epochs=120, folds=1, k=2, t=6, d_hidden=32, dropout=0.1,
                       weight_decay=1e-4, patience=120, seed=seed, scale_structure=True)


def test_criterion_6_directional_fairness_effect():
    start = time.perf_counter()
    acc = {v: [] for v in ("full", "no_st", "adj_nf")}
    dsp = {v: [] for v in ("full", "no_st", "adj_nf")}
    for seed in FIXTURE_SEEDS:
        g = sensitive_block_graph(n=1000, seed=seed)
        splits = make_folds(g, SplitSpec(train_per_class_cap=100, seed=seed, folds=1))
        for variant in acc:
            cfg = replace(fairness_fixture_config(seed), ablation=variant)
            result = train(g, cfg, splits=splits)
            acc[variant].append(result.mean["accuracy"])
            dsp[variant].append(result.mean["delta_sp"])
    elapsed = time.perf_counter() - start
    mean_acc = {v: float(np.mean(a)) for v, a in acc.items()}
    mean_dsp = {v: float(np.mean(d)) for v, d in dsp.items()}
    best_acc = max(mean_acc.values())
    ordering = mean_dsp["full"] < mean_dsp["adj_nf"] and mean_dsp["full"] < mean_dsp["no_st"]
    close = mean_acc["full"] >= best_acc - 0.05
    wins = {v: sum(f < o for f, o in zip(dsp["full"], dsp[v])) for v in ("adj_nf", "no_st")}
    per_seed = " ".join(f"{seed}:{dsp['full'][i]:.4f}/{dsp['adj_nf'][i]:.4f}/{dsp['no_st'][i]:.4f}"
                        for i, seed in enumerate(FIXTURE_SEEDS))
    verdict(6, ordering and close and elapsed < 600.0,
            f"delta_sp full={mean_dsp['full']:.4f} adj_nf={mean_dsp['adj_nf']:.4f} "
            f"no_st={mean_dsp['no_st']:.4f} | acc full={mean_acc['full']:.3f} "
            f"best={best_acc:.3f} | per_seed full<adj_nf={wins['adj_nf']}/{len(FIXTURE_SEEDS)} "
            f"full<no_st={wins['no_st']}/{len(FIXTURE_SEEDS)} seed:full/adj_nf/no_st {per_seed} "
            f"| elapsed={elapsed:.0f}s (budget 600s)")


NBA_MANIFEST = os.environ.get("FAIRFORMER_NBA_MANIFEST", "")


@pytest.mark.skipif(not NBA_MANIFEST or not Path(NBA_MANIFEST).exists(),
                    reason="optional: set FAIRFORMER_NBA_MANIFEST to a dataset manifest")
def test_criterion_7_nba_best_effort():
    from fairformer.data import load_dataset, load_manifest
    node_path, edge_path, schema = load_manifest(NBA_MANIFEST)
    g = load_dataset(node_path, edge_path, schema)
    hits = 0
    details = []
    for seed in FIXTURE_SEEDS:
        cfg = TrainConfig(epochs=500, folds=1, k=2, t=5, layers=2, d_hidden=128, seed=seed)
        result = train(g, cfg, split_spec=SplitSpec(train_per_class_cap=50, seed=seed, folds=1))
        report = result.fold_reports[0]
        details.append(f"seed={seed} acc={report.accuracy:.3f} dsp={report.delta_sp:.3f}")
        if report.delta_sp < 0.05 and report.accuracy >= 0.69:
            hits += 1
    print(f"[criterion 7] seeds meeting (dsp<5%, acc>=69%): {hits}/5 | " + " ".join(details),
          flush=True)
    if hits < 3:
        pytest.xfail("best-effort target not reached (non-gating)")


def test_criterion_8_scaling_benchmark():
    start = time.perf_counter()
    report = bench_scaling([1000, 2000, 4000, 8000], k=2, t=4, d_hidden=32, seed=0,
                           epochs_timed=3)
    elapsed = time.perf_counter() - start
    verdict(8, report.passed and elapsed < 900.0,
            f"encode_exponent={report.encode_exponent:.3f} "
            f"epoch_exponent={report.epoch_exponent:.3f} (limit 1.3) "
            f"elapsed={elapsed:.0f}s (budget 900s)")


def test_criterion_9_cli_determinism(tmp_path):
    pairs = []
    verify_args = ["verify", "--n", "24", "--kmax", "4", "--seed", "3", "--graphs", "2"]
    train_args = ["train", "--synthetic", "80", "--epochs", "3", "--folds", "1", "--k", "1",
                  "--t", "2", "--hidden", "8", "--cap", "10", "--seed", "5"]
    for label, args, files in (
            ("verify", verify_args, ["report.txt"]),
            ("train", train_args, ["report.txt", "config.txt", "train_log.txt",
                                   "checkpoint_fold0.bin"])):
        out_a = tmp_path / f"{label}_a"
        out_b = tmp_path / f"{label}_b"
        assert cli_main(args + ["--out", str(out_a)]) == 0
        assert cli_main(args + ["--out", str(out_b)]) == 0
        for name in files:
            pairs.append(((out_a / name).read_bytes() == (out_b / name).read_bytes(),
                          f"{label}/{name}"))
    bad = [name for ok, name in pairs if not ok]
    verdict(9, not bad, f"byte-identical={len(pairs) - len(bad)}/{len(pairs)}"
            + (f" mismatches={bad}" if bad else ""))

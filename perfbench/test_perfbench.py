"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from catalog import END_TO_END, PER_LAYER  # noqa: E402
from spans import (END, NAME, Tracer, counting_graph, layer_metrics, rebinding_targets,  # noqa: E402
                   rebound, self_times)

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def span(name, start, end, parent=-1, run=1, attrs=None):
    return [name, start, end, parent, run, attrs]


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("a.child", 2.0, 3.0, parent=1),
        span("b", 5.0, 6.0, parent=0),
        span("overlapping", 20.0, 30.0),
        span("x", 21.0, 25.0, parent=4),
        span("y", 23.0, 27.0, parent=4),  # overlaps x: union 21..27 is covered once
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0, 4.0, 4.0, 4.0])


def test_layer_metrics_attribute_epochs_validation_and_test_scoring():
    rows = {"rows": 10}
    spans = [
        span("data.make_folds", 0.0, 0.5, run=0),
        span("model.forward_eval", 0.0, 1.0, attrs=rows),   # initial validation
        span("model.forward_train", 1.0, 2.0, attrs=rows),
        span("autodiff.matmul.fwd", 1.2, 1.4, parent=2, attrs={"flop": 4e9}),
        span("autodiff.backward", 2.0, 2.2),
        span("autodiff.matmul.bwd", 2.0, 2.1, parent=4, attrs={"flop": 8e9}),
        span("train.adam_step", 2.2, 2.5),
        span("model.forward_eval", 2.5, 3.5, attrs=rows),   # epoch 1 validation
        span("model.forward_eval", 4.0, 5.0, attrs=rows),   # test scoring
        span("metrics.evaluate", 5.0, 5.25),
    ]
    m = layer_metrics(spans, {1: 5.5}, untraced_wall=5.0)
    assert m["train.epochs"] == 1
    assert m["train.epoch_s.p50"] == pytest.approx(2.5)
    assert m["train.val_score_s"] == pytest.approx(2.0)
    assert m["model.forward_eval_s"] == pytest.approx(3.0)
    assert m["model.forward_train_s"] == pytest.approx(1.0)
    assert m["model.self_s"] == pytest.approx(3.0 + 0.8)
    assert m["model.eval_nodes"] == 30
    assert m["autodiff.matmul.gflop"] == pytest.approx(12.0)
    assert m["autodiff.matmul.gflops_rate"] == pytest.approx(12.0 / 0.3)
    assert m["autodiff.backward_self_s"] == pytest.approx(0.1)
    assert m["data.make_folds_s"] == pytest.approx(0.5)
    assert m["trace.overhead_s"] == pytest.approx(0.5)
    covered = 1.0 + 0.8 + 0.2 + 0.1 + 0.1 + 0.3 + 1.0 + 1.0 + 0.25
    assert m["trace.unaccounted_share"] == pytest.approx(1.0 - covered / 5.5)


def test_metric_names_and_benchmark_json_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == [tuple(m) for m in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [tuple(m) for m in PER_LAYER]
    names = [m[0] for m in END_TO_END + PER_LAYER] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.fullmatch(name), name


def test_worker_accepts_exactly_the_listed_workloads():
    import worker
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(worker.WORKLOAD_NAMES) == set(WORKLOADS) == {w["name"] for w in spec["workloads"]}


def test_rebinding_restores_every_attribute_even_after_an_error():
    targets = rebinding_targets(Tracer())
    originals = [owner.__dict__[attr] for owner, attr, _ in targets]
    with pytest.raises(RuntimeError):
        with rebound(targets):
            for owner, attr, replacement in targets:
                assert owner.__dict__[attr] is replacement
            raise RuntimeError("boom")
    for (owner, attr, _), original in zip(targets, originals):
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} not restored"


def test_traced_training_is_bit_identical_and_counts_matvecs():
    from fairformer.synth import sensitive_block_graph
    from fairformer.train import TrainConfig, train

    g = sensitive_block_graph(120, seed=3)
    cfg = TrainConfig(epochs=3, folds=1, d_hidden=8, seed=5)
    plain = train(g, cfg).summary_text()
    tracer = Tracer()
    with rebound(rebinding_targets(tracer)):
        traced = train(counting_graph(g, tracer), cfg).summary_text()
    assert traced == plain
    names = {s[NAME] for s in tracer.spans}
    assert {"spectral.top_magnitude", "model.forward_train", "model.forward_eval",
            "autodiff.matmul.bwd", "train.adam_step", "metrics.evaluate"} <= names
    solve = next(s for s in tracer.spans if s[NAME] == "spectral.top_magnitude")
    assert solve[-1]["matvecs"] > 0 and solve[END] is not None


def _pinless_env():
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env.pop("PYTHONPATH", None)
    return env


def test_worker_refuses_when_blas_threads_are_unpinned():
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "worker.py"),
                           "--workload", "cv_train", "--seed", "0", "--seconds", "1"],
                          env=_pinless_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "not pinned" in done.stderr and done.stdout == ""


def test_benchmark_fails_without_the_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cv_train",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, env=_pinless_env(), capture_output=True, text=True,
                          timeout=60)
    assert done.returncode != 0 and done.stdout == ""

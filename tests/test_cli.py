import hashlib
import itertools
import json
import logging
from pathlib import Path

import pytest
import yaml

from sgdetect import cli
from sgdetect import engine as engine_mod
from sgdetect import evaluation as eval_mod
from sgdetect import synth_data
from sgdetect.cli import main

FIXTURES = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"


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

    def test_paper_t_dataset_bytes(self, tmp_path, capsys):
        # labelled at the default Z^(150), so the z-detector certifies segments;
        # two linear, spherical and polynomial cuts each (CI pins the same bytes)
        out = tmp_path / "data6t"
        assert run_cli(["dataset", "--count", "6", "--lambda-min", "1/16", "--seed", "3",
                        "--out", str(out)]) == 0
        digests = {
            ".bin": "83920b67de3f8c128021374b404260c704a00abe3cc261a8fa90bc55aad637a2",
            ".json": "50db6556e1cc91235ae52757802e3ea063c064090682e8ca6c9fd207ffec8802",
        }
        for suffix, digest in digests.items():
            data = out.with_suffix(suffix).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, suffix

    def test_logs_one_record_per_function(self, tmp_path, capsys):
        make_tiny_dataset(tmp_path, count=5)
        captured = capsys.readouterr()
        records = [line for line in captured.err.splitlines()
                   if line.startswith("sgdetect.synth_data: function ")]
        assert [line.split()[2] for line in records] == [f"{i}/5:" for i in range(1, 6)]
        assert "sgdetect.synth_data" not in captured.out
        # the handler lives only as long as the command
        assert not logging.getLogger("sgdetect").handlers

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_count_below_one_is_config_error(self, count, tmp_path, capsys):
        assert run_cli(["dataset", "--level", "3", "--count", count,
                        "--out", str(tmp_path / "d.bin")]) == 2
        assert f"config error: --count must be >= 1, got {count}" in capsys.readouterr().err
        assert not (tmp_path / "d.bin").exists()


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

    def test_eval_csv_of_an_empty_report_names_the_target_columns(self, tmp_path, capsys):
        args = _report_with(tmp_path, "1/8", [])
        csv_path = tmp_path / "verdicts.csv"
        assert run_cli([*args, "--csv", str(csv_path)]) == 0
        assert "tpr: undefined" in capsys.readouterr().out
        assert csv_path.read_text().splitlines() == ["x0,x1,true_troubled"]

    def test_eval_csv_rows(self, tmp_path, capsys):
        args = _report_with(tmp_path, "1/8", [[0.0, 0.5], [0.1, 0.2]])
        csv_path = tmp_path / "verdicts.csv"
        assert run_cli([*args, "--csv", str(csv_path)]) == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "x0,x1,true_troubled"
        assert [line.rsplit(",", 1)[0] for line in lines[1:]] == ["0.0,0.5", "0.1,0.2"]

    def test_detect_and_eval_create_missing_output_directories(self, tmp_path, capsys):
        new = tmp_path / "new"
        assert run_cli(["detect", "--target", "builtin:circle", "--detector", "exact",
                        "--lambda-min", "1/8", "--out", str(new / "a" / "run.json"),
                        "--csv", str(new / "b" / "c" / "troubled.csv")]) == 0
        assert run_cli(["eval", "--report", str(new / "a" / "run.json"),
                        "--target", "builtin:circle", "--out", str(new / "d" / "tpr.json"),
                        "--csv", str(new / "e" / "f" / "verdicts.csv")]) == 0
        assert run_cli(["dataset", "--level", "3", "--count", "6", "--detector-t", "9",
                        "--lambda-min", "1/4", "--out", str(new / "g" / "data"),
                        "--csv", str(new / "h" / "i" / "data.csv")]) == 0
        assert (new / "h" / "i" / "data.csv").read_text().startswith("g0,")
        troubled = json.loads((new / "a" / "run.json").read_text())["troubled_points"]
        assert len(troubled) > 0
        assert len((new / "b" / "c" / "troubled.csv").read_text().splitlines()) == 1 + len(troubled)
        assert json.loads((new / "d" / "tpr.json").read_text())["tpr"] == 1.0
        assert len((new / "e" / "f" / "verdicts.csv").read_text().splitlines()) == 1 + len(troubled)

    def test_detect_zlevel(self, tmp_path, capsys):
        code = run_cli(["detect", "--target", "builtin:circle",
                        "--detector", "zlevel:9", "--lambda-min", "1/8"])
        assert code == 0

    def test_phantom_target(self, capsys):
        code = run_cli(["detect", "--target", "phantom:32", "--detector", "zlevel:4",
                        "--lambda-min", "4", "--level", "4"])
        # zlevel needs a cut; phantom has none -> config error
        assert code == 2

    def test_image_alias(self, tmp_path, tiny_model, write_pgm, capsys):
        from sgdetect.evaluation import shepp_logan

        img = tmp_path / "phantom.pgm"
        write_pgm(shepp_logan(33), img)
        code = run_cli(["detect", "--target", f"image:{img}",
                        "--detector", f"nn:{tiny_model}", "--lambda-min", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "visited points" in out
        assert "NaN evaluations: 0" in out


def _truncated_dataset(tmp_path):
    data = make_tiny_dataset(tmp_path)
    data.write_bytes(data.read_bytes()[:-1])
    return ["train", "--dataset", str(data), "--out", str(tmp_path / "model.json")]


def _dataset_header_with(tmp_path, damage):
    data = make_tiny_dataset(tmp_path)
    header = data.with_suffix(".json")
    doc = json.loads(header.read_text())
    damage(doc)
    header.write_text(json.dumps(doc))
    return ["train", "--dataset", str(data), "--out", str(tmp_path / "model.json")]


def _dataset_with_bad_grid_key(tmp_path):
    return _dataset_header_with(tmp_path, lambda doc: doc.update(grid="sum-3-2"))


def _dataset_without_grid_key(tmp_path):
    return _dataset_header_with(tmp_path, lambda doc: doc.pop("grid"))


def _dataset_with_text_sample_count(tmp_path):
    return _dataset_header_with(tmp_path, lambda doc: doc.update(n_samples="12"))


def _dataset_of_version_2(tmp_path):
    return _dataset_header_with(tmp_path, lambda doc: doc.update(version=2))


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


def _report_with(tmp_path, lambda_min, coords, visited=10):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "kind": "detection-run", "version": 1, "config": {"lambda_min": lambda_min},
        "counters": {"visited_points": visited},
        "troubled_points": [{"coords": c} for c in coords],
    }))
    return ["eval", "--report", str(path), "--target", "builtin:circle"]


def _report_with_text_lambda_min(tmp_path):
    return _report_with(tmp_path, "tiny", [[0.0, 0.5]])


def _report_with_zero_lambda_min(tmp_path):
    # points on the circle: scored anyway, they read 0.0 here and 1.0 at -1/16
    return _report_with(tmp_path, "0", [[0.85, 0.1], [0.2, 0.75]])


def _report_with_negative_lambda_min(tmp_path):
    return _report_with(tmp_path, "-1/16", [[0.85, 0.1], [0.2, 0.75]])


def _report_with_ragged_coords(tmp_path):
    return _report_with(tmp_path, "1/8", [[0.0, 0.5], [0.25]])


def _report_with_a_nan_coordinate(tmp_path):
    # json writes NaN, and reads it back, without complaint
    return _report_with(tmp_path, "1/8", [[0.0, 0.5], [float("nan"), 0.3]])


def _report_with_an_infinite_coordinate(tmp_path):
    # a sampled cut, on which an infinite point would score True
    args = _report_with(tmp_path, "1/8", [[float("inf"), 0.0]])
    return args[:-1] + ["builtin:sine"]


def _report_with_text_visited_count(tmp_path):
    return _report_with(tmp_path, "1/8", [[0.0, 0.5]], visited="many")


def _report_with_entries(tmp_path, **entries):
    args = _report_with(tmp_path, "1/8", [[0.0, 0.5]])
    path = tmp_path / "run.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), **entries}))
    return args


def _report_with_a_number_of_troubled_points(tmp_path):
    return _report_with_entries(tmp_path, troubled_points=5)


def _report_with_a_number_as_troubled_point(tmp_path):
    return _report_with_entries(tmp_path, troubled_points=[5])


def _report_with_a_list_config(tmp_path):
    return _report_with_entries(tmp_path, config=["1/8"])


def _report_of_version_2(tmp_path):
    args = _report_with(tmp_path, "1/8", [[0.0, 0.5]])
    path = tmp_path / "run.json"
    path.write_text(path.read_text().replace('"version": 1', '"version": 2'))
    return args


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


def _model_of_version_2(tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"kind": "detector-model", "version": 2}')
    return ["detect", "--target", "builtin:circle", "--detector", f"nn:{path}"]


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
        (_dataset_without_grid_key, "has no 'grid' entry"),
        (_dataset_with_text_sample_count, "n_samples '12' is not a non-negative integer"),
        (_model_that_is_a_report, "is not a detector-model file"),
        (_report_that_is_a_list, "is not a detection-run file"),
        (_config_with_bad_yaml, "is not valid YAML"),
        (_pgm_with_bad_header, "malformed PGM header"),
        (_report_without_troubled_points, "has no 'troubled_points' entry"),
        (_report_with_text_lambda_min, "lambda_min 'tiny' is not a number"),
        (_report_with_zero_lambda_min, "lambda_min '0' is not positive"),
        (_report_with_negative_lambda_min, "lambda_min '-1/16' is not positive"),
        (_report_with_ragged_coords, "coords are not equal-length lists of numbers"),
        (_report_with_a_nan_coordinate, "troubled point 1 has a non-finite coordinate"),
        (_report_with_an_infinite_coordinate, "troubled point 0 has a non-finite coordinate"),
        (_report_with_text_visited_count, "visited_points 'many' is not a non-negative integer"),
        (_report_with_a_number_of_troubled_points, "is not a valid run report"),
        (_report_with_a_number_as_troubled_point, "is not a valid run report"),
        (_report_with_a_list_config, "is not a valid run report"),
        (_model_without_config, "has no 'config' entry"),
        (_model_of_unknown_kind, "model kind must be 'ginn' or 'mlp', got 'cnn'"),
        (_model_missing_its_last_layer, "layers, its config builds"),
        (_model_with_a_short_bias, "'b' has shape"),
        (_dataset_of_version_2, "detector-dataset file of version 2"),
        (_model_of_version_2, "detector-model file of version 2"),
        (_report_of_version_2, "detection-run file of version 2"),
    ])
    def test_malformed_input_file(self, make_args, message, tmp_path, capsys):
        assert run_cli(make_args(tmp_path)) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag", [
        ("detect", "--out"), ("detect", "--csv"), ("eval", "--out"), ("eval", "--csv"),
        ("dataset", "--out"), ("dataset", "--csv"), ("train", "--out"),
    ])
    def test_output_under_a_regular_file_fails_before_the_work(self, command, flag, tmp_path,
                                                               monkeypatch, capsys):
        def unreachable(*args, **kwargs):
            raise AssertionError("the run started before its output path was checked")

        if command == "detect":
            args = ["detect", "--target", "builtin:circle", "--detector", "exact",
                    "--lambda-min", "1/8"]
        elif command == "eval":
            args = _report_with(tmp_path, "1/8", [[0.0, 0.5]])
        elif command == "dataset":
            args = ["dataset", "--count", "1"]
            if flag == "--csv":
                args += ["--out", str(tmp_path / "data.bin")]
        else:
            args = ["train", "--dataset", str(make_tiny_dataset(tmp_path))]
        monkeypatch.setattr(engine_mod, "run_batched", unreachable)
        monkeypatch.setattr(eval_mod, "tpr", unreachable)
        monkeypatch.setattr(synth_data, "generate_dataset", unreachable)
        monkeypatch.setattr(cli, "train", unreachable)
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert run_cli([*args, flag, str(blocker / "sub" / "x.out")]) == 2
        assert "error:" in capsys.readouterr().err
        assert blocker.read_text() == ""

    @pytest.mark.parametrize("subdivisions", ["0", "-1"])
    def test_subdivisions_below_one(self, subdivisions, tmp_path, capsys):
        report = tmp_path / "run.json"
        assert run_cli(["detect", "--target", "builtin:sine", "--detector", "zlevel:9",
                        "--lambda-min", "1/8", "--out", str(report)]) == 0
        assert run_cli(["eval", "--report", str(report), "--target", "builtin:sine",
                        "--subdivisions", subdivisions]) == 2
        assert "subdivisions must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("spec,message", [
        ("linear:inf,0:0", "finite normal vector and offset"),
        ("linear:1,0:nan", "finite normal vector and offset"),
        ("sphere:nan,0:0.5", "finite center and radius"),
        ("sphere:0,0:inf", "finite center and radius"),
        ("sphere:0,0:-1", "radius >= 0"),
    ])
    def test_cut_spec_out_of_range(self, spec, message, capsys):
        assert run_cli(["detect", "--target", "builtin:circle", "--detector", f"exact:{spec}",
                        "--lambda-min", "1/4"]) == 2
        err = capsys.readouterr().err
        assert "malformed cut spec" in err and message in err

    def test_budget_with_exact_detector(self, capsys):
        # the exact oracle never evaluates g: a budget could not bind
        assert run_cli(["detect", "--target", "builtin:circle", "--detector", "exact",
                        "--lambda-min", "1/8", "--budget", "10"]) == 2

    def test_eval_against_a_target_of_another_dimension(self, tmp_path, capsys):
        report = tmp_path / "run.json"
        assert run_cli(["detect", "--target", "builtin:circle", "--detector", "exact",
                        "--lambda-min", "1/8", "--out", str(report)]) == 0
        assert run_cli(["eval", "--report", str(report), "--target", "builtin:torus4d"]) == 3
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

    @pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5", ""])
    @pytest.mark.parametrize("command", [["grid"], ["detect", "--target", "builtin:circle"]])
    def test_bad_thread_variable_fails_every_subcommand(self, value, command, monkeypatch,
                                                        capsys):
        monkeypatch.setenv("SGDETECT_THREADS", value)
        assert run_cli(command) == 2
        assert ("config error: SGDETECT_THREADS must be an integer >= 1"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("jobs", ["abc", "0", "-1"])
    def test_bad_jobs_flag(self, jobs, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("SGDETECT_THREADS", raising=False)
        out = tmp_path / "d.bin"
        assert run_cli(["dataset", "--level", "3", "--count", "1", "--detector-t", "4",
                        "--lambda-min", "1", "--jobs", jobs, "--out", str(out)]) == 2
        assert "config error: --jobs must be an integer >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_jobs_in_config_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("SGDETECT_THREADS", raising=False)
        cfg = tmp_path / "run.yaml"
        cfg.write_text("jobs: 0\n")
        assert run_cli(["--config", str(cfg), "dataset", "--out", str(tmp_path / "d")]) == 2
        assert "config error: --jobs must be an integer >= 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("env,flag,expected", [
        (None, None, 1), ("3", None, 3), ("3", "2", 2), (None, "4", 4), (" 2 ", None, 2),
    ])
    def test_jobs_resolution(self, env, flag, expected, monkeypatch):
        import argparse

        from sgdetect.cli import _resolve_jobs

        if env is None:
            monkeypatch.delenv("SGDETECT_THREADS", raising=False)
        else:
            monkeypatch.setenv("SGDETECT_THREADS", env)
        args = argparse.Namespace(jobs=flag)
        _resolve_jobs(args)
        assert args.jobs == expected

    def test_good_thread_variable_is_echoed(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SGDETECT_THREADS", "1")
        make_tiny_dataset(tmp_path)
        assert "jobs: 1\n" in capsys.readouterr().out

    def test_dimension_mismatch(self, tmp_path, capsys):
        data = make_tiny_dataset(tmp_path, seed=2, count=8)
        model = tmp_path / "model.json"
        assert run_cli(["train", "--dataset", str(data), "--kind", "mlp",
                        "--epochs", "1", "--out", str(model)]) == 0
        # 2D model against the 4D torus target
        assert run_cli(["detect", "--target", "builtin:torus4d",
                        "--detector", f"nn:{model}"]) == 3

    def test_dataset_points_differ_from_its_grid(self, tmp_path, capsys):
        # a 41-point dataset under the 65-point grid's key and without a grid
        # hash, as datasets written through the library are
        import numpy as np

        from sgdetect.synth_data import Dataset, Samples, save_dataset

        labels = np.zeros((4, 41), dtype=np.uint8)
        labels[:, 0] = 1
        ds = Dataset.from_samples(Samples(np.ones((4, 41)), labels), grid_key="sum:6:d2",
                                  detector="zlevel:9", seed=0)
        data, _ = save_dataset(ds, tmp_path / "data.bin")
        model = tmp_path / "model.json"
        assert run_cli(["train", "--dataset", str(data), "--out", str(model)]) == 3
        assert ("dataset has 41 points per sample; its grid sum:6:d2 has 65"
                in capsys.readouterr().err)
        assert not model.exists()

    def test_model_grid_hash_mismatch(self, tiny_model, tmp_path, capsys):
        # the model's grid key rebuilds a grid whose hash is not the stored one
        doc = json.loads(tiny_model.read_text())
        doc["grid_hash"] = "0" * 16
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(doc))
        assert run_cli(["detect", "--target", "builtin:circle", "--lambda-min", "1/8",
                        "--detector", f"nn:{tampered}"]) == 3
        assert "grid hash 0000000000000000 does not match" in capsys.readouterr().err

    @pytest.mark.parametrize("fixture,expected", [("ginn2d.json", "5ee38c614a28f0ae"),
                                                  ("ginn4d.json", "21a01a586ef30458")])
    def test_fixture_grid_hashes_match(self, fixture, expected):
        from sgdetect.cli import _build_reference
        from sgdetect.neural.model import grid_fingerprint
        from sgdetect.sparse_grid import GridSpec

        doc = json.loads((FIXTURES / fixture).read_text())
        spec = GridSpec.from_key(doc["grid_key"])
        _, graph = _build_reference(spec.rule, spec.level, spec.dim)
        assert doc["grid_hash"] == grid_fingerprint(graph) == expected

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


def exit_code(args):
    """main's return value, or the status argparse exits with."""
    try:
        return run_cli(args)
    except SystemExit as exc:
        return exc.code


def echoed_options(out: str) -> dict:
    """The ``options`` mapping of the resolved-config echo in ``out``."""
    lines = out.splitlines()
    start = lines.index("resolved-config:")
    block = itertools.takewhile(lambda line: line.startswith(" "), lines[start + 1:])
    return yaml.safe_load("\n".join([lines[start], *block]))["resolved-config"]["options"]


class TestConfigReplay:
    """An echo's options, passed back as --config with only the required flags,
    run the same command again: same output bytes, same echo."""

    def replay(self, tmp_path, capsys, argv, required, outputs):
        assert run_cli(argv) == 0
        options = echoed_options(capsys.readouterr().out)
        written = {path: path.read_bytes() for path in outputs}
        for path in outputs:
            path.unlink()
        cfg = tmp_path / "echo.yaml"
        cfg.write_text(yaml.safe_dump(options))
        assert run_cli(["--config", str(cfg), argv[0], *required]) == 0
        assert echoed_options(capsys.readouterr().out) == options
        assert {path: path.read_bytes() for path in outputs} == written

    def test_grid(self, tmp_path, capsys):
        out = tmp_path / "grid"
        self.replay(tmp_path, capsys,
                    ["grid", "--rule", "prod", "--level", "5", "--dim", "3", "--out", str(out)],
                    [], [out / "grid.json", out / "graph.json"])

    def test_dataset_with_csv(self, tmp_path, capsys):
        data, table = tmp_path / "d.bin", tmp_path / "d.csv"
        self.replay(tmp_path, capsys,
                    ["dataset", "--level", "3", "--count", "6", "--detector-t", "9",
                     "--lambda-min", "1/4", "--seed", "1", "--coeff-convention", "stddev",
                     "--out", str(data), "--csv", str(table)],
                    ["--out", str(data)], [data, data.with_suffix(".json"), table])

    def test_train_with_leaky_slope(self, tmp_path, capsys):
        data = make_tiny_dataset(tmp_path, seed=2, count=8)
        model = tmp_path / "model.json"
        capsys.readouterr()
        self.replay(tmp_path, capsys,
                    ["train", "--dataset", str(data), "--kind", "mlp", "--features", "4",
                     "--epochs", "2", "--batch-size", "16", "--leaky-slope", "0.2",
                     "--out", str(model)],
                    ["--dataset", str(data), "--out", str(model)], [model])

    def test_detect_at_another_level_with_csv(self, tmp_path, capsys):
        report, table = tmp_path / "run.json", tmp_path / "run.csv"
        self.replay(tmp_path, capsys,
                    ["detect", "--target", "builtin:bows", "--detector", "zlevel:9",
                     "--level", "5", "--lambda-min", "1/16", "--out", str(report),
                     "--csv", str(table)],
                    ["--target", "builtin:bows"], [report, table])

    def test_eval_with_csv(self, tmp_path, capsys):
        report = tmp_path / "run.json"
        assert run_cli(["detect", "--target", "builtin:circle", "--detector", "exact",
                        "--lambda-min", "1/8", "--out", str(report)]) == 0
        capsys.readouterr()
        scores, table = tmp_path / "tpr.json", tmp_path / "tpr.csv"
        self.replay(tmp_path, capsys,
                    ["eval", "--report", str(report), "--target", "builtin:circle",
                     "--check-level", "5", "--subdivisions", "50", "--out", str(scores),
                     "--csv", str(table)],
                    ["--report", str(report), "--target", "builtin:circle"], [scores, table])

    def test_nn_detect_echoes_the_model_grid(self, tiny_model, capsys):
        # an nn: detector runs on its model's grid, whatever --level says
        capsys.readouterr()
        assert run_cli(["detect", "--target", "builtin:circle", "--lambda-min", "1/8",
                        "--detector", f"nn:{tiny_model}", "--level", "9"]) == 0
        options = echoed_options(capsys.readouterr().out)
        model_grid = json.loads(tiny_model.read_text())["grid_key"]
        assert f"{options['rule']}:{options['level']}:d2" == model_grid


class TestConfigValues:
    def config(self, tmp_path, text):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(text)
        return str(cfg)

    def test_equals_form_of_the_flag(self, tmp_path, capsys):
        cfg = self.config(tmp_path, "dim: 4\nlevel: 8\n")
        assert run_cli([f"--config={cfg}", "grid"]) == 0
        joined = capsys.readouterr().out
        assert run_cli(["--config", cfg, "grid"]) == 0
        assert joined == capsys.readouterr().out
        assert "points: 401" in joined

    @pytest.mark.parametrize("text,argv,option", [
        ("level: 8.5", ["grid"], "level"),
        ("count: 2.0", ["dataset", "--out", "{tmp}/d.bin"], "count"),
        ("subdivisions: 2.5", ["eval", "--report", "{tmp}/r.json", "--target", "builtin:circle"],
         "subdivisions"),
        ("rule: foo", ["grid"], "rule"),
        ("level: null", ["grid"], "level"),
        ("tau: null", ["detect", "--target", "builtin:circle"], "tau"),
    ])
    def test_a_value_the_flag_rejects_exits_2(self, text, argv, option, tmp_path, capsys):
        cfg = self.config(tmp_path, text)
        assert exit_code(["--config", cfg, *(a.format(tmp=tmp_path) for a in argv)]) == 2
        assert option in capsys.readouterr().err
        assert not (tmp_path / "d.bin").exists()

    @pytest.mark.parametrize("flag,value", [("--lambda-min", "0.1"), ("--tau", "0.25")])
    def test_a_value_reads_as_its_flag(self, flag, value, tmp_path, capsys):
        argv = ["detect", "--target", "builtin:circle", "--detector", "zlevel:9", "--level", "4"]
        assert run_cli([*argv, flag, value]) == 0
        by_flag = echoed_options(capsys.readouterr().out)
        cfg = self.config(tmp_path, f"{flag[2:].replace('-', '_')}: {value}\n")
        assert run_cli(["--config", cfg, *argv]) == 0
        assert echoed_options(capsys.readouterr().out) == by_flag
        assert str(by_flag[flag[2:].replace("-", "_")]) == {"0.1": "1/10"}.get(value, value)

    def test_flags_override_the_file(self, tmp_path, capsys):
        cfg = self.config(tmp_path, "level: 8\ndim: 4\n")
        assert run_cli(["--config", cfg, "grid", "--level", "6"]) == 0
        assert echoed_options(capsys.readouterr().out)["level"] == 6

    def test_null_where_the_default_is_null(self, tmp_path, capsys):
        cfg = self.config(tmp_path, "budget: null\ncsv: null\nout: null\n")
        assert run_cli(["--config", cfg, "detect", "--target", "builtin:circle",
                        "--detector", "zlevel:9", "--lambda-min", "1/8"]) == 0
        options = echoed_options(capsys.readouterr().out)
        assert options["budget"] is options["csv"] is options["out"] is None

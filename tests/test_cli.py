"""CLI verbs end to end (in-process): outputs, determinism, exit codes."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from pndnet.checkpoint import load_checkpoint
from pndnet.cli import BENCH_CSV_HEADER, EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from pndnet.imageio import read_ppm
from pndnet.synthetic import make_blob_corpus

TINY_CONFIG = """
# desk-scale pipeline used by the CLI tests
image_size=32
resize_size=36
backbone_channels=8,16
out_channels=32
epochs=2
seed=13
"""


@pytest.fixture(scope="module")
def cli_env(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    make_blob_corpus(data, n_train=16, n_test=8, n_classes=4, image_size=64, seed=2)
    config = root / "run.cfg"
    config.write_text(TINY_CONFIG, encoding="utf-8")
    ckpt = root / "model.ckpt"
    assert main(["train", "--data", str(data), "--config", str(config),
                 "--out", str(ckpt)]) == EXIT_OK
    return {"root": root, "data": data, "config": config, "ckpt": ckpt}


class TestTrain:
    def test_outputs_exist(self, cli_env):
        assert cli_env["ckpt"].is_file()
        history = json.loads((cli_env["root"] / "model.ckpt.history.json").read_text())
        assert len(history) == 2
        assert {"epoch", "lr", "loss", "train_accuracy"} <= set(history[0])

    def test_repeat_run_identical_outputs(self, cli_env, tmp_path):
        out = tmp_path / "again.ckpt"
        assert main(["train", "--data", str(cli_env["data"]), "--config",
                     str(cli_env["config"]), "--out", str(out)]) == EXIT_OK
        assert out.read_bytes() == cli_env["ckpt"].read_bytes()
        assert (tmp_path / "again.ckpt.history.json").read_text() == \
            (cli_env["root"] / "model.ckpt.history.json").read_text()

    def test_seed_flag_overrides_config(self, cli_env, tmp_path):
        out = tmp_path / "seeded.ckpt"
        assert main(["train", "--data", str(cli_env["data"]), "--config",
                     str(cli_env["config"]), "--out", str(out), "--seed", "99"]) == EXIT_OK
        assert out.read_bytes() != cli_env["ckpt"].read_bytes()
        assert load_checkpoint(out).seed == 99

    def test_five_folds_emit_reports_and_average(self, cli_env, tmp_path):
        out = tmp_path / "cv.ckpt"
        assert main(["train", "--data", str(cli_env["data"]), "--config",
                     str(cli_env["config"]), "--out", str(out), "--folds", "5"]) == EXIT_OK
        report = json.loads((tmp_path / "cv.ckpt.cv.json").read_text())
        assert len(report["folds"]) == 5
        assert report["avg"]["fold"] == "avg"
        for key in ("val_accuracy", "test_accuracy", "precision", "recall", "f1"):
            assert key in report["avg"]
            assert report["avg"][key] == pytest.approx(
                np.mean([row[key] for row in report["folds"]]))
        for fold in range(5):
            assert (tmp_path / f"cv.ckpt.fold{fold}").is_file()

    def test_zero_folds_is_data_error(self, cli_env, tmp_path):
        assert main(["train", "--data", str(cli_env["data"]), "--config",
                     str(cli_env["config"]), "--out", str(tmp_path / "x.ckpt"),
                     "--folds", "0"]) == EXIT_DATA

    def test_missing_data_dir_is_usage_error(self, cli_env, tmp_path, capsys):
        code = main(["train", "--data", str(tmp_path / "none"), "--config",
                     str(cli_env["config"]), "--out", str(tmp_path / "x.ckpt")])
        assert code == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err

    def test_missing_config_is_usage_error(self, cli_env, tmp_path):
        assert main(["train", "--data", str(cli_env["data"]), "--config",
                     str(tmp_path / "none.cfg"), "--out", str(tmp_path / "x.ckpt")]) == EXIT_USAGE

    def test_bad_config_key_is_data_error(self, cli_env, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("not_a_key=1\n", encoding="utf-8")
        assert main(["train", "--data", str(cli_env["data"]), "--config", str(bad),
                     "--out", str(tmp_path / "x.ckpt")]) == EXIT_DATA


class TestEval:
    def test_report_schema(self, cli_env, tmp_path):
        report_path = tmp_path / "report.json"
        assert main(["eval", "--data", str(cli_env["data"]), "--ckpt", str(cli_env["ckpt"]),
                     "--report", str(report_path)]) == EXIT_OK
        doc = json.loads(report_path.read_text())
        assert set(doc) == {"confusion_matrix", "per_class", "macro", "micro",
                            "accuracy", "top_k"}
        assert len(doc["confusion_matrix"]) == 4
        assert "1" in doc["top_k"] and "3" in doc["top_k"]

    def test_missing_checkpoint(self, cli_env, tmp_path, capsys):
        code = main(["eval", "--data", str(cli_env["data"]), "--ckpt",
                     str(tmp_path / "none.ckpt"), "--report", str(tmp_path / "r.json")])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err != ""

    def test_class_mismatch_is_data_error(self, cli_env, tmp_path):
        two = tmp_path / "two"
        make_blob_corpus(two, n_train=4, n_test=2, n_classes=2, image_size=64, seed=3)
        assert main(["eval", "--data", str(two), "--ckpt", str(cli_env["ckpt"]),
                     "--report", str(tmp_path / "r.json")]) == EXIT_DATA

    def test_eval_idempotent_byte_identical_report(self, cli_env, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main(["eval", "--data", str(cli_env["data"]),
                         "--ckpt", str(cli_env["ckpt"]), "--report", str(out)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()


class TestPredict:
    def test_jsonl_per_image(self, cli_env, tmp_path, capsys):
        image = next((cli_env["data"] / "class0").glob("test_*.ppm"))
        assert main(["predict", "--ckpt", str(cli_env["ckpt"]), "--input", str(image)]) == EXIT_OK
        line = json.loads(capsys.readouterr().out.strip())
        assert line["path"] == str(image)
        assert 0 <= line["class_index"] < 4
        assert len(line["probabilities"]) == 4

    def test_directory_input_writes_file(self, cli_env, tmp_path):
        out = tmp_path / "preds.jsonl"
        directory = cli_env["data"] / "class1"
        assert main(["predict", "--ckpt", str(cli_env["ckpt"]), "--input", str(directory),
                     "--out", str(out)]) == EXIT_OK
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(lines) == len(list(directory.glob("*.ppm")))

    def test_predict_idempotent(self, cli_env, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        directory = cli_env["data"] / "class3"
        for out in (a, b):
            assert main(["predict", "--ckpt", str(cli_env["ckpt"]), "--input",
                         str(directory), "--out", str(out)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()


class TestGradcamVerb:
    def test_writes_p5_and_sidecar(self, cli_env, tmp_path, capsys):
        image = next((cli_env["data"] / "class2").glob("test_*.ppm"))
        out_dir = tmp_path / "cams"
        assert main(["gradcam", "--ckpt", str(cli_env["ckpt"]), "--input", str(image),
                     "--class", "2", "--out-dir", str(out_dir)]) == EXIT_OK
        pgm = out_dir / f"{image.stem}.cam.pgm"
        sidecar = out_dir / f"{image.stem}.cam.json"
        assert pgm.read_bytes().startswith(b"P5\n8 8\n255\n")
        doc = json.loads(sidecar.read_text())
        assert doc["class_index"] == 2 and doc["shape"] == [8, 8]
        values = np.array(doc["values"])
        assert values.min() >= 0.0 and values.max() <= 1.0

    def test_bad_class_is_data_error(self, cli_env, tmp_path):
        image = next((cli_env["data"] / "class0").glob("test_*.ppm"))
        assert main(["gradcam", "--ckpt", str(cli_env["ckpt"]), "--input", str(image),
                     "--class", "9", "--out-dir", str(tmp_path)]) == EXIT_DATA


class TestSplitVerb:
    def test_plan_json(self, cli_env, tmp_path):
        out = tmp_path / "plan.json"
        assert main(["split", "--data", str(cli_env["data"]), "--seed", "4",
                     "--folds", "5", "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert set(doc) == {"seed", "train", "test", "folds"}
        assert len(doc["folds"]) == 5
        assert sorted(i for f in doc["folds"] for i in f) == sorted(doc["train"])

    def test_deterministic_stdout(self, cli_env, capsys):
        assert main(["split", "--data", str(cli_env["data"]), "--seed", "4"]) == EXIT_OK
        first = capsys.readouterr().out
        assert main(["split", "--data", str(cli_env["data"]), "--seed", "4"]) == EXIT_OK
        assert capsys.readouterr().out == first


class TestGradcheckVerb:
    def test_single_op(self, capsys):
        assert main(["gradcheck", "--ops", "matmul", "--repeats", "2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "matmul" in out and "PASS" in out and "conv2d" not in out

    def test_default_run_passes(self, capsys):
        assert main(["gradcheck", "--repeats", "1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_unknown_op_is_data_error(self, capsys):
        assert main(["gradcheck", "--ops", "bogus"]) == EXIT_DATA


class TestBenchVerb:
    def test_csv_row_and_counts(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--p", "13", "--c", "64,2048", "--repeats", "2",
                     "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == BENCH_CSV_HEADER
        rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
        big = next(r for r in rows if r["c"] == "2048")
        p, c = 13, 2048
        assert int(big["dense_macs"]) == p * p * c + p * c * c
        assert int(big["rank1_macs"]) == p * c + c * c
        assert float(big["max_abs_diff"]) <= 1e-5

    def test_nonpositive_sizes_are_usage_error(self):
        assert main(["bench", "--p", "0", "--c", "4"]) == EXIT_USAGE


class TestUsage:
    def test_unknown_verb(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_unknown_flag(self, capsys):
        assert main(["gradcheck", "--frobnicate"]) == EXIT_USAGE

    def test_missing_required_flag(self):
        assert main(["train"]) == EXIT_USAGE

    def test_thread_cap_without_threadpoolctl_fails_loudly(self, monkeypatch, capsys):
        monkeypatch.setenv("PND_THREADS", "2")
        monkeypatch.setitem(sys.modules, "threadpoolctl", None)   # import raises ImportError
        assert main(["gradcheck", "--ops", "matmul", "--repeats", "1"]) == EXIT_USAGE
        assert "threadpoolctl" in capsys.readouterr().err

    def test_thread_cap_must_be_an_integer(self, monkeypatch, capsys):
        monkeypatch.setenv("PND_THREADS", "many")
        assert main(["gradcheck", "--ops", "matmul", "--repeats", "1"]) == EXIT_USAGE
        assert "PND_THREADS" in capsys.readouterr().err

"""CLI verbs end to end (in-process): outputs, determinism, exit codes."""

import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from pndnet.backbone import Backbone
from pndnet.checkpoint import load_checkpoint, save_checkpoint
from pndnet.cli import BENCH_CSV_HEADER, EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from pndnet.graph import PROPAGATION_MACS, dense_mac_count, rank1_mac_count
from pndnet.imageio import read_ppm, write_ppm
from pndnet.model import PNDNet
from pndnet.synthetic import make_blob_corpus

import oracles
from test_checkpoint import one_tensor_file, with_config_value

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

    def test_negative_gcn_width_is_data_error(self, cli_env, tmp_path, capsys):
        bad = tmp_path / "width.cfg"
        bad.write_text(TINY_CONFIG + "gcn_width=-3\n", encoding="utf-8")
        assert main(["train", "--data", str(cli_env["data"]), "--config", str(bad),
                     "--out", str(tmp_path / "x.ckpt")]) == EXIT_DATA
        assert "gcn_width" in capsys.readouterr().err
        assert not (tmp_path / "x.ckpt").exists()

    @pytest.mark.parametrize("lo,hi", [(0, 0), (-0.5, 1.0), (1.5, 0.5)])
    def test_bad_blur_sigma_is_data_error(self, cli_env, tmp_path, capsys, lo, hi):
        # a zero sigma used to reach the blur and diverge training with NaNs (exit 3)
        bad = tmp_path / "blur.cfg"
        bad.write_text(TINY_CONFIG + f"blur_p=1\nblur_sigma_lo={lo}\nblur_sigma_hi={hi}\n",
                       encoding="utf-8")
        assert main(["train", "--data", str(cli_env["data"]), "--config", str(bad),
                     "--out", str(tmp_path / "x.ckpt")]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "blur sigma" in err
        assert not (tmp_path / "x.ckpt").exists()

    @pytest.mark.parametrize("setting", ["lr=nan", "lr=inf", "lr_decay_factor=nan",
                                         "lr_decay_factor=inf"])
    def test_non_finite_lr_is_data_error(self, cli_env, tmp_path, capsys, setting):
        # lr=inf used to end as a numerical failure (exit 3), and an infinite
        # decay factor to train silently at lr=0 after the decay epoch
        bad = tmp_path / "lr.cfg"
        bad.write_text(TINY_CONFIG + setting + "\n", encoding="utf-8")
        assert main(["train", "--data", str(cli_env["data"]), "--config", str(bad),
                     "--out", str(tmp_path / "x.ckpt")]) == EXIT_DATA
        err = capsys.readouterr().err
        key = setting.split("=")[0]
        assert err.startswith(f"error: {key} must be finite") and "Traceback" not in err
        assert not (tmp_path / "x.ckpt").exists()

    @pytest.mark.parametrize("setting,field", [("rotation=nan", "rotation_deg"),
                                               ("rotation=inf", "rotation_deg"),
                                               ("scale=nan", "scale_delta"),
                                               ("blur_p=1.0\nblur_sigma_hi=inf", "blur_sigma_hi")])
    def test_non_finite_augment_value_is_data_error(self, cli_env, tmp_path, capsys, setting, field):
        # rotation=nan used to train with rotation silently off (exit 0), and an
        # infinite rotation or blur sigma to end in numpy's OverflowError traceback
        bad = tmp_path / "augment.cfg"
        bad.write_text(TINY_CONFIG + setting + "\n", encoding="utf-8")
        assert main(["train", "--data", str(cli_env["data"]), "--config", str(bad),
                     "--out", str(tmp_path / "x.ckpt")]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{field} must be finite" in err and "Traceback" not in err
        assert not (tmp_path / "x.ckpt").exists()


    @pytest.mark.parametrize("setting", ["spp_levels=2,,3", "backbone_channels=8,16,", "lr_decay_epoch=-5"])
    def test_empty_list_item_or_negative_decay_epoch_is_data_error(self, cli_env, tmp_path, capsys,
                                                                   setting):
        # spp_levels=2,,3 used to train as (2, 3), and lr_decay_epoch=-5 at
        # the decayed lr from epoch 1, both with exit 0
        bad = tmp_path / "typo.cfg"
        bad.write_text(TINY_CONFIG + setting + "\n", encoding="utf-8")
        assert main(["train", "--data", str(cli_env["data"]), "--config", str(bad),
                     "--out", str(tmp_path / "x.ckpt")]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: ") and setting.split("=")[0] in err and "Traceback" not in err
        assert not (tmp_path / "x.ckpt").exists()


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

    def test_renamed_class_is_data_error(self, cli_env, tmp_path, capsys):
        # same class count, other names: the metrics would be on permuted labels
        data = tmp_path / "renamed"
        shutil.copytree(cli_env["data"], data)
        (data / "class0").rename(data / "zclass0")
        assert main(["eval", "--data", str(data), "--ckpt", str(cli_env["ckpt"]),
                     "--report", str(tmp_path / "r.json")]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "['class0', 'class1', 'class2', 'class3']" in err
        assert "['class1', 'class2', 'class3', 'zclass0']" in err
        assert not (tmp_path / "r.json").exists()

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

    @pytest.mark.parametrize("case", ["utf8_config", "empty_image"])
    def test_bad_input_is_data_error(self, cli_env, tmp_path, capsys, case):
        ckpt, image = cli_env["ckpt"], next((cli_env["data"] / "class0").glob("test_*.ppm"))
        if case == "utf8_config":   # a config byte that is not UTF-8
            ckpt = tmp_path / "bad.ckpt"
            data = bytearray(cli_env["ckpt"].read_bytes())
            data[12] = 0xFF
            ckpt.write_bytes(bytes(data))
        else:
            image = tmp_path / "empty.ppm"
            image.write_bytes(b"P6\n0 0\n255\n")
        assert main(["predict", "--ckpt", str(ckpt), "--input", str(image)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("key,value", [("n_classes", "four"), ("channel_means", "1.0,x,3.0"),
                                           ("channel_means", "nan,nan,nan"), ("class_names", "a,b,c")])
    def test_malformed_checkpoint_metadata_is_data_error(self, cli_env, tmp_path, capsys,
                                                         key, value):
        ckpt = tmp_path / "bad.ckpt"
        save_checkpoint(with_config_value(load_checkpoint(cli_env["ckpt"]), key, value), ckpt)
        image = next((cli_env["data"] / "class0").glob("test_*.ppm"))
        assert main(["predict", "--ckpt", str(ckpt), "--input", str(image)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err and "Traceback" not in err

    @pytest.mark.parametrize("extents", [(65536,) * 4, (2 ** 32 - 1, 2 ** 32 - 1, 3), (1,) * 65],
                             ids=["count-wraps-to-zero", "count-past-int64", "rank-65"])
    def test_crafted_tensor_header_is_data_error(self, cli_env, tmp_path, capsys, extents):
        # the first two once escaped as a ValueError traceback from reshape
        ckpt = tmp_path / "crafted.ckpt"
        ckpt.write_bytes(one_tensor_file(extents, name="backbone/conv0/weight"))
        image = next((cli_env["data"] / "class0").glob("test_*.ppm"))
        assert main(["predict", "--ckpt", str(ckpt), "--input", str(image)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'backbone/conv0/weight'" in err and "Traceback" not in err

    def test_predict_idempotent(self, cli_env, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        directory = cli_env["data"] / "class3"
        for out in (a, b):
            assert main(["predict", "--ckpt", str(cli_env["ckpt"]), "--input",
                         str(directory), "--out", str(out)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()


# non-square, every side above the tiny config's resize_size of 36; 230x120
# resizes 3.3x down, so the crop's y-taps skip most source rows
PHOTO_SHAPES = [(45, 71), (83, 52), (230, 120), (37, 120), (64, 40), (50, 99), (120, 47), (71, 58)]


@pytest.fixture(scope="module")
def photo_data(cli_env):
    """Two non-square images per class of the trained checkpoint."""
    root = cli_env["root"] / "photos"
    rng = np.random.default_rng(23)
    for i, shape in enumerate(PHOTO_SHAPES):
        d = root / f"class{i % 4}"
        d.mkdir(parents=True, exist_ok=True)
        write_ppm(d / f"photo_{i}.ppm", rng.integers(0, 256, (*shape, 3), dtype=np.uint8))
    return root


class TestPhotoSizedInputs:
    """``predict`` and ``eval`` on images larger than ``resize_size``, whose
    eval preprocessing resizes only the centre crop it keeps: the printed
    probabilities and the metrics are byte-equal to those of resizing each
    whole image, then cropping (``oracles.preprocess_eval``)."""

    @staticmethod
    def outputs_both_ways(monkeypatch, capsys, argv_to) -> tuple[list[str], list[str]]:
        """[stdout, output file or ""] of ``argv_to(name)``'s run as it is,
        then with ``PNDNet.eval_input`` on the whole-image oracle."""
        calls = []

        def whole_image(self, image, channel_means):
            calls.append(image.shape[:2])
            cfg = self.config
            return oracles.preprocess_eval(image, channel_means, cfg.resize_size, cfg.image_size)

        runs = []
        for name in ("windowed", "whole_image"):
            argv, out = argv_to(name)
            assert main(argv) == EXIT_OK
            runs.append([capsys.readouterr().out, "" if out is None else out.read_text(encoding="utf-8")])
            monkeypatch.setattr(PNDNet, "eval_input", whole_image)
        assert sorted(calls) == sorted(PHOTO_SHAPES)
        return runs[0], runs[1]

    def test_predict_equals_the_whole_image_path(self, cli_env, photo_data, tmp_path, capsys,
                                                 monkeypatch):
        inputs = tmp_path / "inputs"   # predict reads one directory
        inputs.mkdir()
        for path in photo_data.glob("*/*.ppm"):
            shutil.copy(path, inputs / path.name)

        def argv_to(name):
            return ["predict", "--ckpt", str(cli_env["ckpt"]), "--input", str(inputs)], None

        windowed, whole = self.outputs_both_ways(monkeypatch, capsys, argv_to)
        lines = [json.loads(line) for line in windowed[0].splitlines()]
        assert len(lines) == len(PHOTO_SHAPES) and all(len(l["probabilities"]) == 4 for l in lines)
        assert windowed == whole

    def test_eval_equals_the_whole_image_path(self, cli_env, photo_data, tmp_path, capsys,
                                              monkeypatch):
        def argv_to(name):
            out = tmp_path / f"{name}.json"
            return ["eval", "--data", str(photo_data), "--ckpt", str(cli_env["ckpt"]),
                    "--report", str(out)], out

        windowed, whole = self.outputs_both_ways(monkeypatch, capsys, argv_to)
        assert json.loads(windowed[1])["accuracy"] is not None
        assert windowed[0].replace("windowed", "whole_image") == whole[0]   # the logged accuracy
        assert windowed[1] == whole[1]


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

    def test_predicted_class_costs_no_extra_forward(self, cli_env, tmp_path, capsys, monkeypatch):
        image = next((cli_env["data"] / "class2").glob("test_*.ppm"))
        argv = ["gradcam", "--ckpt", str(cli_env["ckpt"]), "--input", str(image)]
        calls = []
        forward = Backbone.forward

        def counted(self, x):
            calls.append(x.shape)
            return forward(self, x)

        monkeypatch.setattr(Backbone, "forward", counted)
        assert main([*argv, "--out-dir", str(tmp_path / "predicted")]) == EXIT_OK
        assert len(calls) == 1
        line = json.loads(capsys.readouterr().out)
        # the heatmap of the predicted class is the one --class would ask for
        assert main([*argv, "--class", str(line["class_index"]),
                     "--out-dir", str(tmp_path / "named")]) == EXIT_OK
        for suffix in (".cam.pgm", ".cam.json"):
            name = image.stem + suffix
            assert (tmp_path / "predicted" / name).read_bytes() == (tmp_path / "named" / name).read_bytes()

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
        assert main(["gradcheck", "--ops", "cross_entropy", "--repeats", "2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "cross_entropy" in out and "PASS" in out and "conv2d" not in out

    def test_fused_node_and_head_ops(self, capsys):
        assert main(["gradcheck", "--ops", "spp_max_pool,region_pool,head_logits", "--repeats", "2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "spp_max_pool" in out and "region_pool" in out and "head_logits" in out
        assert "FAIL" not in out

    def test_default_run_passes(self, capsys):
        assert main(["gradcheck", "--repeats", "1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_unknown_op_is_data_error(self, capsys):
        # a test oracle's op is not in the registry
        for ops in ("bogus", "layer_norm", "matmul", "mul", "sum", "mean"):
            assert main(["gradcheck", "--ops", ops]) == EXIT_DATA
            assert ops in capsys.readouterr().err

    @pytest.mark.parametrize("repeats", ["0", "-2"])
    def test_nonpositive_repeats_is_usage_error(self, capsys, repeats):
        assert main(["gradcheck", "--ops", "cross_entropy", "--repeats", repeats]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and "--repeats" in err


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

    def test_shared_counter_is_never_lowered(self, tmp_path, monkeypatch):
        preload = 10 ** 15
        monkeypatch.setattr(PROPAGATION_MACS, "macs", preload)
        out = tmp_path / "bench.csv"
        assert main(["bench", "--p", "4,13", "--c", "8", "--repeats", "2",
                     "--out", str(out)]) == EXIT_OK
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [(int(r[2]), int(r[3])) for r in rows] == [
            (dense_mac_count(p, 8, 8), rank1_mac_count(p, 8, 8)) for p in (4, 13)]
        assert PROPAGATION_MACS.macs >= preload + sum(int(r[2]) + int(r[3]) for r in rows)

    def test_same_seed_runs_agree_except_wall_clock_columns(self, tmp_path):
        tables = []
        for name in ("a.csv", "b.csv"):
            assert main(["bench", "--p", "4,13", "--c", "3,8", "--seed", "5", "--repeats", "1",
                         "--out", str(tmp_path / name)]) == EXIT_OK
            lines = (tmp_path / name).read_text().splitlines()
            header = lines[0].split(",")
            kept = [i for i, col in enumerate(header) if not col.endswith("_seconds")]
            tables.append([[line.split(",")[i] for i in kept] for line in lines])
        assert len(kept) == 5 and len(tables[0]) == 5
        assert tables[0] == tables[1]

    def test_nonpositive_sizes_are_usage_error(self):
        assert main(["bench", "--p", "0", "--c", "4"]) == EXIT_USAGE

    @pytest.mark.parametrize("argv,flag", [(["--p", "x", "--c", "4"], "--p"),
                                           (["--p", "4,", "--c", "4"], "--p"),
                                           (["--p", "4", "--c", "4,,8"], "--c")],
                             ids=["letter", "trailing-comma", "empty-item"])
    def test_malformed_sizes_are_usage_error(self, capsys, argv, flag):
        # a size that int() rejects used to escape main as a ValueError traceback
        assert main(["bench", *argv]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {flag} ") and "Traceback" not in err

    @pytest.mark.parametrize("repeats", ["0", "-1"])
    def test_nonpositive_repeats_is_usage_error(self, tmp_path, capsys, repeats):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--p", "13", "--c", "8", "--repeats", repeats,
                     "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and "--repeats" in err
        assert not out.exists()


def _verb_argv(verb: str, cli_env, out: Path) -> list[str]:
    """One run of ``verb`` that writes its output to ``out``."""
    image = next((cli_env["data"] / "class0").glob("test_*.ppm"))
    data, ckpt = str(cli_env["data"]), str(cli_env["ckpt"])
    return {"train": ["train", "--data", data, "--config", str(cli_env["config"]), "--out", str(out)],
            "eval": ["eval", "--data", data, "--ckpt", ckpt, "--report", str(out)],
            "predict": ["predict", "--ckpt", ckpt, "--input", str(image), "--out", str(out)],
            "gradcam": ["gradcam", "--ckpt", ckpt, "--input", str(image), "--out-dir", str(out)],
            "split": ["split", "--data", data, "--out", str(out)],
            "bench": ["bench", "--p", "4", "--c", "4", "--repeats", "1", "--out", str(out)]}[verb]


class TestOutputPaths:
    @pytest.mark.parametrize("verb", ["predict", "split", "bench"])
    def test_missing_parent_directories_are_made(self, cli_env, tmp_path, capsys, verb):
        # these three once escaped as a FileNotFoundError traceback
        here, nested = tmp_path / "out.txt", tmp_path / "missing" / "deeper" / "out.txt"
        assert main(_verb_argv(verb, cli_env, here)) == EXIT_OK
        first = capsys.readouterr()
        assert main(_verb_argv(verb, cli_env, nested)) == EXIT_OK
        second = capsys.readouterr()
        assert second.err == first.err == ""
        assert second.out == first.out.replace(str(here), str(nested))
        assert (first.out == "") == (verb == "predict")
        if verb != "bench":   # bench rows hold timings
            assert nested.read_bytes() == here.read_bytes()

    @pytest.mark.parametrize("case", ["directory", "under-a-file"])
    @pytest.mark.parametrize("verb", ["train", "eval", "predict", "split", "bench"])
    def test_unwritable_path_is_usage_error(self, cli_env, tmp_path, capsys, verb, case):
        (tmp_path / "file").write_text("x")
        out = tmp_path if case == "directory" else tmp_path / "file" / "out.txt"
        assert main(_verb_argv(verb, cli_env, out)) == EXIT_USAGE
        err = capsys.readouterr().err
        flag = "--report" if verb == "eval" else "--out"
        assert err.startswith(f"usage error: {flag} {out} ") and "Traceback" not in err

    @pytest.mark.parametrize("case", ["a-file", "under-a-file"])
    def test_unwritable_out_dir_is_usage_error(self, cli_env, tmp_path, capsys, case):
        (tmp_path / "file").write_text("x")
        out = tmp_path / "file" if case == "a-file" else tmp_path / "file" / "cams"
        assert main(_verb_argv("gradcam", cli_env, out)) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"usage error: --out-dir {out} ")


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
        assert main(["gradcheck", "--ops", "cross_entropy", "--repeats", "1"]) == EXIT_USAGE
        assert "threadpoolctl" in capsys.readouterr().err

    def test_thread_cap_must_be_an_integer(self, monkeypatch, capsys):
        monkeypatch.setenv("PND_THREADS", "many")
        assert main(["gradcheck", "--ops", "cross_entropy", "--repeats", "1"]) == EXIT_USAGE
        assert "PND_THREADS" in capsys.readouterr().err

"""End-to-end CLI coverage on a miniature experiment."""

import csv
import hashlib
import json
import math
import re
import shlex
import shutil
import struct
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from pfnn import blas, cli
from pfnn.autodiff import Tensor
from pfnn.blas import openblas_kernel, openblas_threads
from pfnn.checkpoint import load_checkpoint, save_checkpoint
from pfnn.cli import main
from pfnn.config import experiment_from_mapping, read_kv_file
from pfnn.datagen import LabeledImageSet, read_dataset, write_dataset
from pfnn.evalkit import build_report, parse_report, write_report
from pfnn.layers import ModelSpec, build_model
from pfnn.losses import cross_entropy
from pfnn.trainer import predict


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def is_float_cell(cell: str) -> bool:
    """A cell that parses as a float but not as an integer."""
    try:
        float(cell)
    except ValueError:
        return False
    try:
        int(cell)
    except ValueError:
        return True
    return False


TRAIN_ARGS = ["--conv-widths", "3", "--head-units", "8", "--max-epochs", "2",
              "--learning-rate", "1e-3", "--batch-size", "16", "--val-fraction", "0.25",
              "--dropout-rate", "0.1"]


@pytest.fixture(scope="module")
def mini(tmp_path_factory):
    """One dataset + trained run shared by the read-only command tests."""
    root = tmp_path_factory.mktemp("mini")
    data = root / "d.mids"
    assert main(["gen-data", "--counts", "20,28,32", "--side", "12", "--seed", "3",
                 "--out", str(data)]) == 0
    run = root / "run"
    assert main(["train", "--data", str(data), "--out", str(run), "--seed", "3",
                 *TRAIN_ARGS]) == 0
    return data, run


class TestGenData:
    def test_identical_flags_identical_file(self, tmp_path):
        a, b = tmp_path / "a.mids", tmp_path / "b.mids"
        for out in (a, b):
            assert main(["gen-data", "--counts", "5,6,7", "--side", "10", "--seed", "1",
                         "--out", str(out)]) == 0
        assert sha256(a) == sha256(b)

    def test_omitted_seed_is_still_deterministic(self, tmp_path):
        a, b = tmp_path / "a.mids", tmp_path / "b.mids"
        for out in (a, b):
            assert main(["gen-data", "--counts", "4,5,6", "--side", "9",
                         "--out", str(out)]) == 0
        assert sha256(a) == sha256(b)

    def test_malformed_augment_spec_is_an_error(self, tmp_path):
        assert main(["gen-data", "--counts", "5,6,7", "--augment", "normal",
                     "--out", str(tmp_path / "x.mids")]) == 1

    def test_imbalanced_corpus_shares(self, tmp_path, capsys):
        out = tmp_path / "d.mids"
        assert main(["gen-data", "--counts", "152,820,1028", "--side", "8", "--seed", "7",
                     "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "normal: 152 (7.6%)" in printed
        assert "benign: 820 (41.0%)" in printed
        assert "malignant: 1028 (51.4%)" in printed

    def test_missing_out_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen-data", "--counts", "3,3,3"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: pfnn gen-data") and "required: --out" in err

    def test_empty_counts_error_exit(self, tmp_path):
        assert main(["gen-data", "--counts", "0,0,0", "--out", str(tmp_path / "x.mids")]) == 1

    def test_augment_and_holdout(self, tmp_path):
        out = tmp_path / "d.mids"
        blind = tmp_path / "blind.mids"
        assert main(["gen-data", "--counts", "20,60,80", "--side", "8", "--seed", "2",
                     "--out", str(out), "--augment", "normal:0.3",
                     "--holdout", "15", "--holdout-out", str(blind)]) == 0
        assert len(read_dataset(blind)) == 15

    @pytest.mark.parametrize("noise", ["nan", "inf", "-0.1"])
    def test_bad_noise_is_one_error_line_naming_the_field(self, tmp_path, capsys, noise):
        capsys.readouterr()
        assert main(["gen-data", "--counts", "5,5,5", "--side", "8", "--noise", noise,
                     "--out", str(tmp_path / "d.mids")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: noise_level must be finite and >= 0")
        assert not (tmp_path / "d.mids").exists()

    def test_holdout_out_equal_to_out_is_an_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        assert main(["gen-data", "--counts", "5,5,5", "--side", "8", "--holdout", "3",
                     "--out", "h.mids", "--holdout-out", "./h.mids"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0] == "error: --holdout-out and --out are the same file: h.mids"
        assert not (tmp_path / "h.mids").exists()

    @pytest.mark.parametrize("flag,value,expected", [
        ("--counts", "5,5,5,", "--counts: invalid literal for int() with base 10: ''"),
        ("--augment", "normal:abc", "--augment: could not convert string to float: 'abc'"),
        ("--augment", "foo:0.3", "--augment: unknown class 'foo'; choose from normal, benign, malignant"),
        ("--augment", "9:0.3", "--augment: class index 9 out of range"),
        ("--augment", "normal:1.5", "--augment: target share 1.5 must lie in (current share 0.3333, 1)"),
    ], ids=["counts-trailing-comma", "augment-share", "augment-unknown-class", "augment-class-index",
            "augment-share-range"])
    def test_unparsable_value_is_one_error_line_naming_the_flag(self, tmp_path, capsys, flag, value, expected):
        capsys.readouterr()
        assert main(["gen-data", "--counts", "5,5,5", "--side", "8", flag, value,
                     "--out", str(tmp_path / "d.mids")]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {expected}"]
        assert not (tmp_path / "d.mids").exists()

    @pytest.mark.parametrize("holdout", [[], ["--holdout", "0"]], ids=["no-holdout", "holdout-0"])
    def test_holdout_out_without_a_holdout_is_an_error(self, tmp_path, capsys, holdout):
        capsys.readouterr()
        assert main(["gen-data", "--counts", "5,5,5", "--side", "8", *holdout,
                     "--holdout-out", str(tmp_path / "hh.mids"), "--out", str(tmp_path / "o.mids")]) == 1
        expected = "--holdout must be positive, got 0" if holdout else \
            "--holdout and --holdout-out must be given together"
        assert capsys.readouterr().err.splitlines() == [f"error: {expected}"]
        assert not list(tmp_path.iterdir())


class TestTrain:
    def test_run_directory_artifacts(self, mini):
        _, run = mini
        for name in ("config.snapshot", "history.csv", "checkpoint.pfnn",
                     "train.mids", "val.mids", "test.mids", "manifest.txt", "run.log"):
            assert (run / name).exists(), name

    def test_manifest_covers_hashable_artifacts(self, mini):
        _, run = mini
        lines = (run / "manifest.txt").read_text().splitlines()
        named = {line.split()[-1] for line in lines}
        assert "history.csv" in named and "checkpoint.pfnn" in named
        assert "run.log" not in named  # timestamps stay out of hashed content
        for line in lines:
            digest, name = line.split()
            assert sha256(run / name) == digest

    def test_rerun_from_snapshot_is_bit_identical(self, mini, tmp_path, monkeypatch):
        """A rerun from the config snapshot, then eval, pca, gradcam and report
        on each run, write the same bytes: every file but run.log."""
        data, run = mini
        first, second = tmp_path / "first", tmp_path / "second"
        shutil.copytree(run, first / "run", ignore=shutil.ignore_patterns("eval", "pca", "gradcam"))
        assert main(["train", "--data", str(data), "--out", str(second / "run"),
                     "--config", str(run / "config.snapshot")]) == 0
        for root in (first, second):
            monkeypatch.chdir(root)  # index.csv lists the gallery paths as given
            for argv in (["eval", "--split", "train", "--split", "test"], ["pca"],
                         ["gradcam", "--correct", "2", "--wrong", "2"]):
                assert main([*argv, "--run", "run"]) == 0
            assert main(["report", "--compare", "run", "--out", "comparison"]) == 0

        def outputs(root):
            return {p.relative_to(root): p.read_bytes() for p in root.rglob("*")
                    if p.is_file() and p.name != "run.log"}

        written = outputs(first)
        assert {p.suffix for p in written} >= {".csv", ".json", ".ppm", ".pfnn", ".mids", ".txt"}
        assert written == outputs(second)

        # every float cell is repr-exact; np.savetxt writes case_*_raw.csv at %.18e
        for rel, raw in written.items():
            if rel.suffix != ".csv" or rel.name.endswith("_raw.csv"):
                continue
            for row in csv.reader(raw.decode().splitlines()):
                for cell in row:
                    if is_float_cell(cell):
                        assert repr(float(cell)) == cell, (rel, cell)

    def test_run_log_records_numpy_and_the_openblas_kernel_and_threads(self, mini):
        _, run = mini
        start = next(line for line in (run / "run.log").read_text().splitlines() if "train start:" in line)
        assert start.endswith(f" numpy={np.__version__} openblas_kernel={openblas_kernel()} "
                              f"blas_threads={openblas_threads()}")
        assert openblas_kernel() != "unknown" and int(openblas_threads()) >= 1

    def test_blas_environment_reaches_run_log_only(self, mini, tmp_path, monkeypatch):
        data, run = mini
        monkeypatch.setattr(cli, "blas_environment", lambda: "numpy=0 openblas_kernel=Other blas_threads=7")
        rerun = tmp_path / "rerun"
        assert main(["train", "--data", str(data), "--out", str(rerun),
                     "--config", str(run / "config.snapshot")]) == 0
        for name in ("manifest.txt", "history.csv", "checkpoint.pfnn"):
            assert (rerun / name).read_bytes() == (run / name).read_bytes(), name
        assert "openblas_kernel=Other blas_threads=7" in (rerun / "run.log").read_text()

    def test_numpy_without_bundled_openblas_logs_unknown(self, monkeypatch, tmp_path):
        # a numpy whose package directory holds no numpy.libs/libscipy_openblas64_*.so
        monkeypatch.setattr(blas, "np", SimpleNamespace(__file__=str(tmp_path / "numpy" / "__init__.py"),
                                                        __version__="9.9.9"))
        assert (openblas_kernel(), openblas_threads()) == ("unknown", "unknown")
        assert blas.blas_environment() == "numpy=9.9.9 openblas_kernel=unknown blas_threads=unknown"

    def test_ablation_flags_reach_the_model(self, mini, tmp_path):
        data, _ = mini
        run = tmp_path / "ablation"
        assert main(["train", "--data", str(data), "--out", str(run), "--seed", "3",
                     "--gagm", "off", "--sevector", "off", *TRAIN_ARGS]) == 0
        snapshot = read_kv_file(run / "config.snapshot")
        assert snapshot["enable_gagm"] == "false"
        assert snapshot["enable_sevector"] == "false"
        exp = experiment_from_mapping(snapshot)
        assert not exp.model.enable_gagm

    def test_truncated_dataset_is_one_error_line(self, mini, tmp_path, capsys):
        data, _ = mini
        truncated = tmp_path / "short.mids"
        truncated.write_bytes(data.read_bytes()[:7])
        capsys.readouterr()
        assert main(["train", "--data", str(truncated), "--out", str(tmp_path / "r")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "short.mids" in err[0]

    def test_non_finite_pixels_are_one_error_line(self, mini, tmp_path, capsys):
        data, _ = mini
        dataset = read_dataset(data)
        dataset.images[0, 0, 0, 0] = np.nan
        corrupt = tmp_path / "nan.mids"
        write_dataset(corrupt, dataset)
        capsys.readouterr()
        assert main(["train", "--data", str(corrupt), "--out", str(tmp_path / "r")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "nan.mids" in err[0]

    def test_out_of_range_pixels_are_one_error_line(self, mini, tmp_path, capsys):
        data, _ = mini
        dataset = read_dataset(data)
        dataset.images[0, 0, 0, 0] = 1.5
        dataset.images[1, 0, 0, 0] = -0.25
        corrupt = tmp_path / "range.mids"
        write_dataset(corrupt, dataset)
        capsys.readouterr()
        assert main(["train", "--data", str(corrupt), "--out", str(tmp_path / "r")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "range.mids" in err[0] and "2 pixel" in err[0]

    def test_unknown_config_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("gagm_strength=2\n")
        code = main(["train", "--data", "nowhere.mids", "--out", str(tmp_path / "r"),
                     "--config", str(bad)])
        assert code == 1

    def test_divergent_run_exits_nonzero_keeping_partial_artifacts(self, tmp_path):
        # same data/seed combination the trainer divergence test verifies; the
        # overflow raises no warning, which the suite would fail
        data = tmp_path / "d.mids"
        assert main(["gen-data", "--counts", "6,6,6", "--side", "8", "--seed", "13",
                     "--out", str(data)]) == 0
        run = tmp_path / "boom"
        code = main(["train", "--data", str(data), "--out", str(run), "--seed", "1",
                     "--learning-rate", "1e200", "--conv-widths", "3",
                     "--head-units", "8", "--max-epochs", "5", "--batch-size", "8",
                     "--val-fraction", "0.3", "--dropout-rate", "0.0",
                     "--test-fraction", "0"])
        assert code == 1
        assert (run / "config.snapshot").exists()
        assert (run / "history.csv").exists()
        assert not (run / "checkpoint.pfnn").exists()

    @pytest.mark.parametrize("lambda_fs", ["1e305", "1e308"])
    def test_overflowing_lambda_fs_is_one_error_line_and_a_finite_history(self, tmp_path, capsys,
                                                                         lambda_fs):
        # Adam's second moment overflows; any numpy warning would fail the suite
        data = tmp_path / "d.mids"
        assert main(["gen-data", "--counts", "20,20,20", "--side", "8", "--seed", "1",
                     "--out", str(data)]) == 0
        run = tmp_path / "run"
        capsys.readouterr()
        assert main(["train", "--data", str(data), "--out", str(run), "--conv-widths", "2",
                     "--head-units", "8", "--max-epochs", "3", "--batch-size", "8",
                     "--lambda-fs", lambda_fs]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "'conv1/kernel'" in err[0]
        with open(run / "history.csv", newline="") as fh:
            history = list(csv.DictReader(fh))
        assert all(math.isfinite(float(v)) for row in history for v in row.values())

    def test_divergent_rerun_leaves_no_stale_artifacts(self, tmp_path):
        data = tmp_path / "d.mids"
        assert main(["gen-data", "--counts", "6,6,6", "--side", "8", "--seed", "13",
                     "--out", str(data)]) == 0
        run = tmp_path / "run"
        args = ["train", "--out", str(run), "--seed", "1", "--conv-widths", "3", "--head-units", "8",
                "--batch-size", "8", "--val-fraction", "0.3", "--dropout-rate", "0.0"]
        diverge = ["--max-epochs", "5", "--learning-rate", "1e200"]
        assert main([*args, "--data", str(data), "--max-epochs", "2"]) == 0
        assert (run / "manifest.txt").exists() and (run / "test.mids").exists()
        assert main([*args, "--data", str(data), *diverge]) == 1
        # the old manifest, checkpoint and splits are gone with the old run
        assert sorted(p.name for p in run.iterdir()) == ["config.snapshot", "history.csv", "run.log"]
        # but an input that sits in the run directory under a split's name stays
        shutil.copy(data, run / "train.mids")
        assert main([*args, "--data", str(run / "train.mids"), *diverge]) == 1
        assert (run / "train.mids").read_bytes() == data.read_bytes()

    def test_divergent_rerun_drops_old_eval_pca_and_gradcam_outputs(self, tmp_path, capsys):
        data = tmp_path / "d.mids"
        assert main(["gen-data", "--counts", "8,8,8", "--side", "8", "--seed", "13",
                     "--out", str(data)]) == 0
        run = tmp_path / "run"
        args = ["train", "--data", str(data), "--out", str(run), "--seed", "1",
                "--conv-widths", "3", "--head-units", "8", "--batch-size", "8",
                "--val-fraction", "0.3", "--dropout-rate", "0.0"]
        assert main([*args, "--max-epochs", "2"]) == 0
        assert main(["eval", "--run", str(run), "--split", "test", "--split", "train"]) == 0
        assert main(["pca", "--run", str(run), "--components", "2"]) == 0
        assert main(["gradcam", "--run", str(run), "--correct", "1", "--wrong", "1"]) == 0
        for sub in ("eval", "pca", "gradcam"):
            assert any((run / sub).iterdir())
        (run / "notes.txt").write_text("kept\n")
        assert main([*args, "--max-epochs", "5", "--learning-rate", "1e200"]) == 1
        # every file the three commands wrote is gone, and with them their directories
        assert sorted(p.name for p in run.iterdir()) == [
            "config.snapshot", "history.csv", "notes.txt", "run.log"]
        capsys.readouterr()
        assert main(["report", "--compare", str(run), "--out", str(tmp_path / "cmp")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "report_test.json" in err[0]

    def test_rerun_keeps_other_files_in_output_directories(self, tmp_path):
        data = tmp_path / "d.mids"
        assert main(["gen-data", "--counts", "8,8,8", "--side", "8", "--seed", "13",
                     "--out", str(data)]) == 0
        run = tmp_path / "run"
        (run / "eval").mkdir(parents=True)
        (run / "eval" / "report_test.json").write_text("{}")
        (run / "eval" / "notes.txt").write_text("kept\n")
        shutil.copy(data, run / "eval" / "table1.csv")  # the input, under an output's name
        args = ["train", "--data", str(run / "eval" / "table1.csv"), "--out", str(run),
                "--seed", "1", "--conv-widths", "3", "--head-units", "8", "--max-epochs", "1",
                "--batch-size", "8", "--val-fraction", "0.3"]
        assert main(args) == 0
        assert sorted(p.name for p in (run / "eval").iterdir()) == ["notes.txt", "table1.csv"]
        assert (run / "eval" / "table1.csv").read_bytes() == data.read_bytes()

    @pytest.mark.parametrize("flag,value,message", [
        ("--val-fraction", "0.005", "validation split is empty"),
        ("--test-fraction", "0.97", "has 1 sample(s)"),
    ], ids=["empty-val-split", "one-image-classes"])
    def test_rerun_that_cannot_start_leaves_the_last_run_untouched(self, mini, tmp_path, capsys,
                                                                   flag, value, message):
        data, run = mini
        used = tmp_path / "used"
        shutil.copytree(run, used)
        assert main(["eval", "--run", str(used)]) == 0

        def files():  # run.log gains the start line
            return {p: p.read_bytes() for p in used.rglob("*") if p.is_file() and p.name != "run.log"}

        before = files()
        capsys.readouterr()
        assert main(["train", "--data", str(data), "--out", str(used), *TRAIN_ARGS, flag, value]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
        assert files() == before

    def test_manifest_is_replaced_whole(self, mini, tmp_path):
        data, run = mini
        rerun = tmp_path / "rerun"
        shutil.copytree(run, rerun)
        (rerun / "manifest.txt").write_text("stale\n")
        assert main(["train", "--data", str(data), "--out", str(rerun),
                     "--config", str(run / "config.snapshot")]) == 0
        assert (rerun / "manifest.txt").read_bytes() == (run / "manifest.txt").read_bytes()
        assert not any(p.suffix == ".partial" for p in rerun.iterdir())


class TestEval:
    def test_reports_tables_and_overfit(self, mini, capsys):
        _, run = mini
        assert main(["eval", "--run", str(run), "--split", "test", "--split", "train"]) == 0
        out_dir = run / "eval"
        report = parse_report(out_dir / "report_test.json")
        assert report.overfit_acc is not None
        train_report = parse_report(out_dir / "report_train.json")
        assert report.overfit_acc == pytest.approx(train_report.accuracy - report.accuracy)
        table1 = (out_dir / "table1.csv").read_text().splitlines()
        assert len(table1) == 2
        assert "overfit" in capsys.readouterr().out

    def test_emitted_auc_matches_library_call(self, mini):
        from pfnn.evalkit import roc_curve

        _, run = mini
        main(["eval", "--run", str(run)])
        report = parse_report(run / "eval" / "report_test.json")
        exp = experiment_from_mapping(read_kv_file(run / "config.snapshot"))
        model = build_model(exp.model)
        model.load_state(load_checkpoint(run / "checkpoint.pfnn"))
        test_set = read_dataset(run / "test.mids")
        probs, _ = predict(model, test_set.images)
        for c, name in enumerate(test_set.class_names):
            expected = roc_curve(probs[:, c], test_set.labels == c)
            assert report.roc[name].auc == expected.auc

    def test_doctored_checkpoint_is_an_error(self, mini, tmp_path, capsys):
        _, run = mini
        doctored = tmp_path / "doctored"
        shutil.copytree(run, doctored)
        state = load_checkpoint(doctored / "checkpoint.pfnn")
        del state["bn1/running_mean"]
        save_checkpoint(doctored / "checkpoint.pfnn", state)
        capsys.readouterr()
        assert main(["eval", "--run", str(doctored)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "bn1/running_mean" in err[0]

    def test_checkpoint_with_conv_bias_is_one_error_line(self, mini, tmp_path, capsys):
        # checkpoints written while the convs still had a bias carry conv1/bias
        _, run = mini
        old = tmp_path / "old"
        shutil.copytree(run, old)
        state = load_checkpoint(old / "checkpoint.pfnn")
        state["conv1/bias"] = np.zeros(3)
        save_checkpoint(old / "checkpoint.pfnn", state)
        capsys.readouterr()
        assert main(["eval", "--run", str(old)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "'conv1/bias'" in err[0]

    def test_repeated_tensor_name_is_one_error_line(self, mini, tmp_path, capsys):
        _, run = mini
        twice = tmp_path / "twice"
        shutil.copytree(run, twice)
        path = twice / "checkpoint.pfnn"
        save_checkpoint(tmp_path / "extra.pfnn", {"out/bias": np.full(3, 7.0)})
        path.write_bytes(path.read_bytes() + (tmp_path / "extra.pfnn").read_bytes()[len(b"PFNN1"):])
        capsys.readouterr()
        assert main(["eval", "--run", str(twice)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "'out/bias'" in err[0]

    def test_huge_tensor_extents_are_one_error_line(self, mini, tmp_path, capsys):
        _, run = mini
        huge = tmp_path / "huge"
        shutil.copytree(run, huge)
        name = b"conv1/kernel"
        (huge / "checkpoint.pfnn").write_bytes(
            b"PFNN1" + struct.pack("<H", len(name)) + name
            + struct.pack("<B3I", 3, 2**31, 2**31, 4) + bytes(64))
        capsys.readouterr()
        assert main(["eval", "--run", str(huge)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "checkpoint.pfnn" in err[0] and "'conv1/kernel'" in err[0]

    @pytest.mark.parametrize("name,value,message", [
        ("head/bias", np.nan, "'head/bias' holds a non-finite value"),
        ("bn1/running_var", -1.0, "'bn1/running_var' holds a negative variance"),
        ("bn1/running_mean", None, "'bn1/running_mean': checkpoint shape (1,)"),
        ("conv1/kernel", 1e308, "split 'test' are not finite"),  # finite, but overflows
    ], ids=["nan", "negative-variance", "stat-shape", "overflow"])
    def test_bad_checkpoint_values_are_one_error_line(self, mini, tmp_path, capsys, name, value, message):
        _, run = mini
        bad = tmp_path / "bad"
        shutil.copytree(run, bad)
        state = load_checkpoint(bad / "checkpoint.pfnn")
        state[name] = np.zeros(1) if value is None else np.full_like(state[name], value)
        save_checkpoint(bad / "checkpoint.pfnn", state)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would be one more line on stderr
            assert main(["eval", "--run", str(bad), "--out", str(tmp_path / "e")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]

    def test_missing_split_is_an_error(self, mini, tmp_path, capsys):
        data, _ = mini
        run = tmp_path / "no-test"
        assert main(["train", "--data", str(data), "--out", str(run), "--test-fraction", "0",
                     *TRAIN_ARGS]) == 0
        capsys.readouterr()
        assert main(["eval", "--run", str(run)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "test.mids" in err[0]

    def test_data_file_is_evaluated_as_split_data(self, mini, tmp_path):
        data, run = mini
        out = tmp_path / "e"
        assert main(["eval", "--run", str(run), "--data", str(data), "--out", str(out)]) == 0
        assert not (out / "report_test.json").exists()
        exp = experiment_from_mapping(read_kv_file(run / "config.snapshot"))
        model = build_model(exp.model)
        model.load_state(load_checkpoint(run / "checkpoint.pfnn"))
        dataset = read_dataset(data)
        labels = dataset.labels.astype(np.intp)
        probs, _ = predict(model, dataset.images)
        loss = float(cross_entropy(Tensor(probs), labels).data)
        expected = build_report(run.name, "data", labels, probs.argmax(axis=1), probs, loss,
                                dataset.class_names)
        write_report(expected, tmp_path / "expected.json")
        assert (out / "report_data.json").read_bytes() == (tmp_path / "expected.json").read_bytes()


class TestGradcamCommand:
    def test_overlays_and_index(self, mini):
        _, run = mini
        out = run / "gradcam"
        assert main(["gradcam", "--run", str(run), "--class", "malignant",
                     "--correct", "2", "--wrong", "2", "--out", str(out)]) == 0
        with open(out / "index.csv") as fh:
            rows = list(csv.DictReader(fh))
        ppms = list(out.glob("case_*.ppm"))
        assert len(ppms) == len(rows) <= 4

    @pytest.mark.parametrize("flag", ["--correct", "--wrong"])
    def test_negative_count_is_one_error_line(self, mini, tmp_path, capsys, flag):
        _, run = mini
        capsys.readouterr()
        assert main(["gradcam", "--run", str(run), flag, "-1", "--out", str(tmp_path / "g")]) == 1
        err = capsys.readouterr().err.splitlines()
        counts = "n_correct=-1, n_wrong=3" if flag == "--correct" else "n_correct=3, n_wrong=-1"
        assert err == [f"error: case counts must be >= 0, got {counts}"]
        assert not list((tmp_path / "g").glob("case_*"))


class TestPcaCommand:
    def test_auto_layer_recorded_with_projections(self, mini):
        _, run = mini
        out = run / "pca"
        assert main(["pca", "--run", str(run), "--layer", "auto", "--components", "3",
                     "--out", str(out)]) == 0
        meta = read_kv_file(out / "pca_meta.txt")
        assert meta["layer"] in ("pool_fused", "attended", "head_features")
        with open(out / "projections.csv") as fh:
            header = fh.readline().strip().split(",")
        assert header[:4] == ["sample_id", "pc1", "pc2", "pc3"]
        assert header[-2:] == ["label", "predicted"]
        curves = (out / "variance_selected.csv").read_text().splitlines()
        last_cumulative = float(curves[-1].rsplit(",", 1)[1])
        assert last_cumulative <= 1.0 + 1e-9

    def test_unknown_layer_rejected(self, mini):
        _, run = mini
        assert main(["pca", "--run", str(run), "--layer", "not_a_layer"]) == 1

    def test_auto_layer_skips_a_constant_candidate(self, mini, tmp_path):
        _, run = mini
        dead = tmp_path / "dead"
        shutil.copytree(run, dead)
        state = load_checkpoint(dead / "checkpoint.pfnn")
        state["head/weight"][:] = 0.0
        state["head/bias"][:] = -1.0  # every head ReLU is dead, so head_features is constant
        save_checkpoint(dead / "checkpoint.pfnn", state)
        out = tmp_path / "pca"
        assert main(["pca", "--run", str(dead), "--layer", "auto", "--out", str(out)]) == 0
        meta = read_kv_file(out / "pca_meta.txt")
        assert meta["layer"] in ("pool_fused", "attended")
        assert meta["selection"].endswith("; skipped constant layer(s) head_features")
        assert not (out / "variance_head_features.csv").exists()
        assert (out / "variance_pool_fused.csv").exists()

    def test_auto_layer_takes_one_pass(self, mini, tmp_path, monkeypatch):
        _, run = mini
        images_forwarded = []
        forward = ModelSpec.forward

        def counted(self, x, *args, **kwargs):
            images_forwarded.append(x.shape[0])
            return forward(self, x, *args, **kwargs)

        monkeypatch.setattr(ModelSpec, "forward", counted)
        assert main(["pca", "--run", str(run), "--layer", "auto", "--out", str(tmp_path)]) == 0
        assert sum(images_forwarded) == len(read_dataset(run / "test.mids"))


class TestEmptySplit:
    @pytest.fixture
    def empty(self, mini, tmp_path):
        data, _ = mini
        names = read_dataset(data).class_names
        path = tmp_path / "empty.mids"
        write_dataset(path, LabeledImageSet(np.zeros((0, 12, 12, 1)), np.zeros(0), names))
        return path

    @pytest.mark.parametrize("command", ["eval", "pca", "gradcam"])
    def test_is_one_error_line_naming_the_file(self, mini, empty, tmp_path, capsys, command):
        _, run = mini
        capsys.readouterr()
        assert main([command, "--run", str(run), "--data", str(empty),
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "empty.mids" in err[0] and "no images" in err[0]

    def test_label_out_of_range_names_the_file(self, mini, tmp_path, capsys):
        data, run = mini
        dataset = read_dataset(data)
        raw = bytearray(data.read_bytes())
        raw[len(raw) - 4 * dataset.images.size - len(dataset)] = 7  # the first label
        bad = tmp_path / "badlabel.mids"
        bad.write_bytes(bytes(raw))
        capsys.readouterr()
        assert main(["eval", "--run", str(run), "--data", str(bad)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "badlabel.mids" in err[0] and "label out of range" in err[0]


class TestZeroSizeImages:
    """A MIDS1 header with H = W = 0 and no pixel bytes."""

    @pytest.fixture
    def zero(self, tmp_path):
        names = b"".join(struct.pack("<H", len(name)) + name.encode()
                         for name in ("normal", "benign", "malignant"))
        path = tmp_path / "z.mids"
        path.write_bytes(b"MIDS1" + struct.pack("<4I", 30, 0, 0, 3) + names + bytes(30))
        return path

    @pytest.mark.parametrize("command", ["train", "eval", "pca", "gradcam"])
    def test_is_one_error_line_naming_the_file_and_keeps_the_run(self, mini, zero, tmp_path, capsys,
                                                                 command):
        _, run = mini
        used = tmp_path / "used"
        shutil.copytree(run, used)
        before = {p: p.read_bytes() for p in used.rglob("*") if p.is_file()}
        target = ["--out", str(used)] if command == "train" else ["--run", str(used)]
        capsys.readouterr()
        assert main([command, "--data", str(zero), *target]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {zero}: images must have H and W >= 1")
        assert {p: p.read_bytes() for p in used.rglob("*") if p.is_file()} == before


class TestClassTable:
    @pytest.fixture(params=[2, 4], ids=["2-class", "4-class"])
    def other_table(self, mini, tmp_path, request):
        data, _ = mini
        dataset = read_dataset(data)
        names = ("normal", "benign", "malignant", "other")[:request.param]
        path = tmp_path / f"classes{request.param}.mids"
        write_dataset(path, LabeledImageSet(dataset.images, dataset.labels % request.param, names))
        return path

    @pytest.mark.parametrize("command", ["train", "eval", "pca", "gradcam"])
    def test_is_one_error_line_naming_the_file(self, mini, other_table, tmp_path, capsys, command):
        _, run = mini
        argv = [command, "--data", str(other_table), "--out", str(tmp_path / "out")]
        if command != "train":
            argv += ["--run", str(run)]
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert other_table.name in err[0] and "classes" in err[0]


class TestRunInput:
    """eval, pca and gradcam read either stored splits or one --data file."""

    @pytest.mark.parametrize("argv", [
        *([c, "--split", "test", "--data", "d.mids"] for c in ("eval", "pca", "gradcam")),
        *([c, "--split", "bogus"] for c in ("eval", "pca", "gradcam")),
        *([c, "--split", "test", "--split", "val"] for c in ("pca", "gradcam")),
    ], ids=lambda argv: " ".join(argv))
    def test_is_a_usage_error(self, mini, tmp_path, capsys, argv):
        _, run = mini
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--run", str(run), "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "--split" in capsys.readouterr().err.splitlines()[-1]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["pca", "--layer", "auto"], ["pca", "--layer", "head_features"], ["gradcam"],
    ], ids=["pca-auto", "pca-head_features", "gradcam"])
    def test_overflowing_model_is_one_error_line(self, mini, tmp_path, capsys, argv):
        _, run = mini
        bad = tmp_path / "bad"
        shutil.copytree(run, bad, ignore=shutil.ignore_patterns("eval", "pca", "gradcam"))
        state = load_checkpoint(bad / "checkpoint.pfnn")
        state["conv1/kernel"] = np.full_like(state["conv1/kernel"], 1e308)  # finite, but overflows
        save_checkpoint(bad / "checkpoint.pfnn", state)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would be one more line on stderr
            assert main([*argv, "--run", str(bad), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "checkpoint.pfnn" in err[0] and "split 'test' are not finite" in err[0]
        assert not list((tmp_path / "out").glob("case_*"))


class TestConfigRange:
    @pytest.mark.parametrize("flag,value,key", [
        ("--conv-widths", "0", "conv_widths"),
        ("--learning-rate", "-0.5", "learning_rate"),
        ("--learning-rate", "nan", "learning_rate"),
        ("--seed", "-1", "seed"),
        ("--lambda-fs", "inf", "lambda_fs"),
        ("--min-delta", "nan", "min_delta"),
    ])
    def test_bad_value_leaves_an_existing_run_untouched(self, mini, tmp_path, capsys, flag, value, key):
        data, run = mini
        used = tmp_path / "used"
        shutil.copytree(run, used)
        assert main(["eval", "--run", str(used)]) == 0
        before = {p: p.read_bytes() for p in used.rglob("*") if p.is_file()}
        capsys.readouterr()
        assert main(["train", "--data", str(data), "--out", str(used), *TRAIN_ARGS, flag, value]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and key in err[0]
        assert {p: p.read_bytes() for p in used.rglob("*") if p.is_file()} == before

    def test_negative_gen_data_seed_names_the_key(self, tmp_path, capsys):
        capsys.readouterr()
        assert main(["gen-data", "--counts", "3,3,3", "--seed", "-1",
                     "--out", str(tmp_path / "d.mids")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "seed" in err[0]
        assert not (tmp_path / "d.mids").exists()


class TestFlags:
    @pytest.mark.parametrize("command,flag", [
        *((c, f) for c in ("eval", "pca", "gradcam", "report") for f in ("--seed", "--config")),
        ("gen-data", "--config"),
    ])
    def test_flag_the_command_does_not_read_is_a_usage_error(self, mini, tmp_path, capsys,
                                                            command, flag):
        _, run = mini
        argv = {"report": ["--compare", str(run)],
                "gen-data": ["--counts", "3,3,3"]}.get(command, ["--run", str(run)])
        with pytest.raises(SystemExit) as exc:
            main([command, *argv, "--out", str(tmp_path / "out"), flag, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


class TestReportCommand:
    def test_compare_two_runs(self, mini, tmp_path):
        data, run = mini
        other = tmp_path / "other"
        assert main(["train", "--data", str(data), "--out", str(other), "--seed", "4",
                     "--gagm", "off", *TRAIN_ARGS]) == 0
        main(["eval", "--run", str(run)])
        assert main(["eval", "--run", str(other)]) == 0
        out = tmp_path / "cmp"
        assert main(["report", "--compare", str(run), str(other), "--out", str(out)]) == 0
        rows = (out / "table1.csv").read_text().splitlines()
        assert len(rows) == 3
        assert rows[1].split(",")[0] == run.name
        assert rows[2].split(",")[0] == other.name

    def test_compare_requires_prior_eval(self, mini, tmp_path):
        data, _ = mini
        fresh = tmp_path / "fresh"
        main(["train", "--data", str(data), "--out", str(fresh), "--seed", "9", *TRAIN_ARGS])
        assert main(["report", "--compare", str(fresh), "--out", str(tmp_path / "c")]) == 1

    @pytest.mark.parametrize("path,value", [
        (("accuracy",), [1, 2]), (("loss",), "0.5"), (("macro_f1",), True), (("recall_min",), None),
        (("f1_std",), 10**400), (("overfit_acc",), {}), (("model",), 3),
        (("class_names",), ["normal", 1, "malignant"]), (("support",), [1.5, 2, 3]),
        (("roc", "benign", "auc"), "high"), (("roc", "benign", "fpr", 1), "x"),
        (("roc", "benign", "tpr"), [0.0]),
    ], ids=["list", "string", "bool", "null", "huge-int", "overfit-object", "int-model",
            "int-class-name", "float-support", "string-auc", "string-fpr", "short-tpr"])
    def test_mistyped_field_is_one_error_line(self, mini, tmp_path, capsys, path, value):
        _, run = mini
        assert main(["eval", "--run", str(run), "--out", str(tmp_path / "e")]) == 0
        doc = json.loads((tmp_path / "e" / "report_test.json").read_text())
        *parents, key = path
        target = doc
        for name in parents:
            target = target[name]
        target[key] = value
        field = next(name for name in reversed(path) if isinstance(name, str))
        broken = tmp_path / "broken"
        (broken / "eval").mkdir(parents=True)
        (broken / "eval" / "report_test.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["report", "--compare", str(broken), "--out", str(tmp_path / "c")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "report_test.json" in err[0] and repr(field) in err[0]

    @pytest.mark.parametrize("doc", ['{"model": "x"}', "[1, 2]"], ids=["missing-field", "list"])
    def test_malformed_report_is_one_error_line(self, tmp_path, capsys, doc):
        run = tmp_path / "broken"
        (run / "eval").mkdir(parents=True)
        (run / "eval" / "report_test.json").write_text(doc)
        capsys.readouterr()
        assert main(["report", "--compare", str(run), "--out", str(tmp_path / "c")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "report_test.json" in err[0]


def readme_recipe() -> list[list[str]]:
    """The arguments of each ``pfnn`` line in the README's recipe block (the
    ``sh`` block that runs ``pfnn report``), ``\\`` continuations joined."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = next(b for b in re.findall(r"```sh\n(.*?)```", text, re.S) if "pfnn report" in b)
    return [shlex.split(line, comments=True)[1:]
            for line in block.replace("\\\n", " ").splitlines() if line.startswith("pfnn ")]


def test_readme_recipe_evaluates_every_run_it_compares():
    parser = cli.build_parser()
    evaluated: set[tuple[str, str]] = set()
    commands = [parser.parse_args(argv) for argv in readme_recipe()]
    assert [args.command for args in commands].count("report") == 1
    for args in commands:
        if args.command == "eval":
            evaluated.update((args.run, split) for split in (["data"] if args.data else args.split or ["test"]))
        elif args.command == "report":
            missing = [run for run in args.compare if (run, args.split) not in evaluated]
            assert not missing, f"report --compare reads runs no earlier eval wrote: {missing}"

"""End-to-end CLI coverage on a miniature experiment."""

import csv
import hashlib
import shutil

import numpy as np
import pytest

from pfnn.checkpoint import load_checkpoint, save_checkpoint
from pfnn.cli import main
from pfnn.config import experiment_from_mapping, read_kv_file
from pfnn.datagen import read_dataset, write_dataset
from pfnn.evalkit import parse_report


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


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

    def test_empty_counts_error_exit(self, tmp_path):
        assert main(["gen-data", "--counts", "0,0,0", "--out", str(tmp_path / "x.mids")]) == 1

    def test_augment_and_holdout(self, tmp_path):
        out = tmp_path / "d.mids"
        blind = tmp_path / "blind.mids"
        assert main(["gen-data", "--counts", "20,60,80", "--side", "8", "--seed", "2",
                     "--out", str(out), "--augment", "normal:0.3",
                     "--holdout", "15", "--holdout-out", str(blind)]) == 0
        assert len(read_dataset(blind)) == 15


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

    def test_rerun_from_snapshot_is_bit_identical(self, mini, tmp_path):
        data, run = mini
        rerun = tmp_path / "rerun"
        assert main(["train", "--data", str(data), "--out", str(rerun),
                     "--config", str(run / "config.snapshot")]) == 0
        assert (rerun / "history.csv").read_bytes() == (run / "history.csv").read_bytes()
        assert sha256(rerun / "checkpoint.pfnn") == sha256(run / "checkpoint.pfnn")

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
        import warnings

        # same data/seed combination the trainer divergence test verifies
        data = tmp_path / "d.mids"
        assert main(["gen-data", "--counts", "6,6,6", "--side", "8", "--seed", "13",
                     "--out", str(data)]) == 0
        run = tmp_path / "boom"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(["train", "--data", str(data), "--out", str(run), "--seed", "1",
                         "--learning-rate", "1e200", "--conv-widths", "3",
                         "--head-units", "8", "--max-epochs", "5", "--batch-size", "8",
                         "--val-fraction", "0.3", "--dropout-rate", "0.0",
                         "--test-fraction", "0"])
        assert code == 1
        assert (run / "config.snapshot").exists()
        assert (run / "history.csv").exists()
        assert not (run / "checkpoint.pfnn").exists()


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
        from pfnn.layers import build_model
        from pfnn.trainer import predict

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

    def test_missing_split_is_an_error(self, mini):
        _, run = mini
        assert main(["eval", "--run", str(run), "--split", "data"]) == 1


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

    @pytest.mark.parametrize("doc", ['{"model": "x"}', "[1, 2]"], ids=["missing-field", "list"])
    def test_malformed_report_is_one_error_line(self, tmp_path, capsys, doc):
        run = tmp_path / "broken"
        (run / "eval").mkdir(parents=True)
        (run / "eval" / "report_test.json").write_text(doc)
        capsys.readouterr()
        assert main(["report", "--compare", str(run), "--out", str(tmp_path / "c")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "report_test.json" in err[0]

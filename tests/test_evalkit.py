"""Metric battery against brute-force counting and all-pairs AUC oracles."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from oracles import auc_concordance, metrics_brute_force, roc_curve_loop

from pfnn.evalkit import (
    EvalReport,
    build_report,
    classification_report,
    confusion,
    overfit_deltas,
    parse_report,
    report_from_dict,
    roc_curve,
    write_csv,
    write_report,
    write_tables,
)


def random_probs(rng, n, c):
    raw = rng.uniform(0.01, 1.0, (n, c))
    return raw / raw.sum(axis=1, keepdims=True)


class TestConfusion:
    def test_perfect_predictions_are_diagonal(self):
        labels = np.array([0, 1, 2, 1, 0])
        matrix = confusion(labels, labels, 3)
        assert np.all(matrix == np.diag([2, 2, 1]))

    def test_counting_example(self):
        matrix = confusion(np.array([0, 1, 2]), np.array([1, 1, 1]), 3)
        assert matrix.sum(axis=1).tolist() == [1, 1, 1]
        assert matrix[:, 1].sum() == 3

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            confusion(np.array([0, 3]), np.array([0, 0]), 3)

    def test_diagonal_matrix_means_accuracy_one(self):
        matrix = confusion(np.array([0, 0, 1, 2]), np.array([0, 0, 1, 2]), 3)
        assert classification_report(matrix)["accuracy"] == 1.0


class TestClassificationReport:
    def test_perfect_three_class(self):
        matrix = np.diag([5, 5, 5])
        stats = classification_report(matrix)
        assert stats["macro_f1"] == 1.0
        assert stats["f1_std"] == 0.0
        assert stats["recall_min"] == 1.0
        assert stats["degenerate"] == ()

    def test_collapsed_predictor_hand_values(self):
        # balanced labels, everything predicted class 0
        labels = np.repeat([0, 1, 2], 4)
        preds = np.zeros(12, dtype=int)
        stats = classification_report(confusion(labels, preds, 3))
        assert stats["f1"][0] == pytest.approx(0.5)
        assert stats["f1"][1] == 0.0 and stats["f1"][2] == 0.0
        assert stats["macro_f1"] == pytest.approx(1 / 6)
        assert stats["recall_min"] == 0.0
        assert "precision[1]" in stats["degenerate"]

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        c = int(rng.integers(2, 5))
        n = int(rng.integers(1, 21))
        labels = rng.integers(0, c, n)
        preds = rng.integers(0, c, n)
        stats = classification_report(confusion(labels, preds, c))
        ref = metrics_brute_force(labels, preds, c)
        for key in ("precision", "recall", "f1"):
            np.testing.assert_allclose(stats[key], ref[key], atol=1e-12)
        for key in ("accuracy", "macro_f1", "f1_std", "recall_min", "recall_std",
                    "f1_mean", "recall_mean"):
            assert stats[key] == pytest.approx(ref[key], abs=1e-12)

    def test_micro_recall_equals_accuracy(self):
        rng = np.random.default_rng(77)
        labels = rng.integers(0, 3, 40)
        preds = rng.integers(0, 3, 40)
        matrix = confusion(labels, preds, 3)
        micro_recall = np.trace(matrix) / matrix.sum()
        assert classification_report(matrix)["accuracy"] == micro_recall

    def test_sample_order_invariance(self):
        rng = np.random.default_rng(78)
        labels = rng.integers(0, 4, 30)
        preds = rng.integers(0, 4, 30)
        perm = rng.permutation(30)
        a = classification_report(confusion(labels, preds, 4))
        b = classification_report(confusion(labels[perm], preds[perm], 4))
        assert a == b


class TestOverfitDeltas:
    def make(self, acc, f1, loss):
        return EvalReport(model="m", split="s", class_names=("a", "b"),
                          precision=(1, 1), recall=(1, 1), f1=(f1, f1), support=(1, 1),
                          accuracy=acc, loss=loss, macro_f1=f1, f1_mean=f1, f1_std=0,
                          recall_mean=1, recall_min=1, recall_std=0)

    def test_identical_reports_zero(self):
        r = self.make(0.9, 0.9, 0.2)
        assert overfit_deltas(r, r) == (0.0, 0.0, 0.0)

    def test_sign_conventions(self):
        train = self.make(0.99, 0.98, 0.05)
        test = self.make(0.97, 0.95, 0.20)
        acc, f1, loss = overfit_deltas(train, test)
        assert acc == pytest.approx(0.02)
        assert f1 == pytest.approx(0.03)
        assert loss == pytest.approx(0.15)


class TestRocCurve:
    def test_perfect_separation(self):
        curve = roc_curve(np.array([0.9, 0.8, 0.2, 0.1]), np.array([True, True, False, False]))
        assert curve.auc == 1.0
        assert curve.fpr[0] == 0.0 and curve.tpr[0] == 0.0
        assert curve.fpr[-1] == 1.0 and curve.tpr[-1] == 1.0

    def test_all_equal_scores_is_chance(self):
        curve = roc_curve(np.full(6, 0.5), np.array([1, 0, 1, 0, 1, 0], dtype=bool))
        assert curve.auc == 0.5
        assert len(curve.fpr) == 2  # single tie-grouped step

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_concordance_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 51))
        # quantized scores force plenty of ties
        scores = np.round(rng.uniform(0, 1, n), 1)
        positives = rng.integers(0, 2, n).astype(bool)
        if positives.all() or not positives.any():
            positives[0] = ~positives[0]
        curve = roc_curve(scores, positives)
        assert curve.auc == pytest.approx(auc_concordance(scores, positives), abs=1e-12)

    @pytest.mark.parametrize("seed", range(40))
    def test_repr_equal_to_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 400))
        # every fourth case quantizes the scores (ties); one in eight mixes -0.0 into 0.0
        scores = rng.uniform(-1, 1, n)
        if seed % 4 == 0:
            scores = np.round(scores, 1)
        if seed % 8 == 0:
            scores[rng.integers(0, 2, n).astype(bool)] = -0.0
            scores[: n // 3] = 0.0
        positives = rng.integers(0, 2, n).astype(bool)
        positives[0], positives[-1] = True, False
        curve = roc_curve(scores, positives)
        got = (curve.fpr, curve.tpr, curve.thresholds, curve.auc)
        assert repr(got) == repr(roc_curve_loop(scores, positives))

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(99)
        scores = rng.uniform(-3, 3, 30)
        positives = rng.integers(0, 2, 30).astype(bool)
        positives[0], positives[1] = True, False
        base = roc_curve(scores, positives).auc
        warped = roc_curve(np.exp(scores), positives).auc
        assert base == pytest.approx(warped, abs=1e-12)

    def test_degenerate_labels_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            roc_curve(np.array([0.1, 0.2]), np.array([True, True]))


class TestReportFiles:
    def build(self, seed=0, model="demo"):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 3, 30)
        probs = random_probs(rng, 30, 3)
        preds = probs.argmax(axis=1)
        return build_report(model, "test", labels, preds, probs, 0.31,
                            ("normal", "benign", "malignant"))

    def test_three_roc_curves(self):
        report = self.build()
        assert sorted(report.roc) == ["benign", "malignant", "normal"]
        assert all(curve is not None for curve in report.roc.values())

    def test_json_round_trip_identity(self, tmp_path):
        report = self.build()
        report.overfit_acc, report.overfit_f1, report.overfit_loss = 0.01, 0.02, 0.03
        path = tmp_path / "report.json"
        write_report(report, path)
        assert parse_report(path) == report

    def test_dict_key_order_is_pinned(self):
        data = asdict(self.build())
        assert list(data) == [
            "model", "split", "class_names", "precision", "recall", "f1", "support",
            "accuracy", "loss", "macro_f1", "f1_mean", "f1_std", "recall_mean",
            "recall_min", "recall_std", "degenerate", "roc", "overfit_acc",
            "overfit_f1", "overfit_loss",
        ]
        assert list(data["roc"]) == ["normal", "benign", "malignant"]
        assert list(data["roc"]["normal"]) == ["fpr", "tpr", "thresholds", "auc"]

    def test_json_round_trip_keeps_undefined_curves(self, tmp_path):
        labels = np.array([0, 0, 1, 1, 0, 1])
        probs = random_probs(np.random.default_rng(3), 6, 3)
        report = build_report("demo", "test", labels, probs.argmax(axis=1), probs, 0.5,
                              ("normal", "benign", "malignant"))
        assert report.roc["malignant"] is None
        path = tmp_path / "report.json"
        write_report(report, path)
        assert parse_report(path) == report

    @pytest.mark.parametrize("doc,fragment", [
        ({"model": "x"}, "missing field(s) 'split'"),
        ([1, 2], "must be a JSON object, got list"),
    ], ids=["missing-field", "top-level-list"])
    def test_malformed_report_is_a_value_error(self, tmp_path, doc, fragment):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="bad.json") as caught:
            parse_report(path)
        assert fragment in str(caught.value)

    def test_roc_curve_missing_field_is_a_value_error(self, tmp_path):
        data = asdict(self.build())
        del data["roc"]["benign"]["auc"]
        path = tmp_path / "report.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="roc curve 'benign' is missing field.*'auc'"):
            parse_report(path)

    def test_comparison_tables_have_one_row_per_model(self, tmp_path):
        reports = [self.build(seed=1, model="one"), self.build(seed=2, model="two")]
        paths = write_tables(reports, tmp_path)
        assert paths == [tmp_path / "table1.csv", tmp_path / "table2.csv", tmp_path / "scatter_pairs.csv"]
        assert sorted(tmp_path.iterdir()) == sorted(paths)
        t1 = paths[0].read_text().splitlines()
        t2 = paths[1].read_text().splitlines()
        assert t1[0] == "model,accuracy,loss,macro_f1,f1_std,recall_min,recall_std,overfit_acc,overfit_f1,overfit_loss"
        assert t2[0] == "model,f1_mean,f1_std,recall_mean,recall_std"
        assert len(t1) == 3 and len(t2) == 3
        assert t1[1].startswith("one,") and t1[2].startswith("two,")

    def test_scatter_pairs_cover_figure_axes(self, tmp_path):
        report = self.build()
        report.overfit_loss = 0.1
        body = write_tables([report], tmp_path)[2].read_text()
        for pair in ("accuracy_vs_loss", "macro_f1_vs_recall_min",
                     "recall_std_vs_overfit_loss", "f1_mean_vs_recall_mean"):
            assert pair in body

    def test_integer_metric_prints_as_float_and_none_as_empty(self, tmp_path):
        doc = asdict(self.build(model="ints"))
        doc["accuracy"], doc["loss"] = 1, 0
        table1 = write_tables([report_from_dict(doc)], tmp_path)[0]
        row = table1.read_text().splitlines()[1].split(",")
        assert row[:3] == ["ints", "1.0", "0.0"]
        assert row[-3:] == ["", "", ""]  # overfit_* are None without a train split

    def test_perfect_classifier_fixture(self, tmp_path):
        labels = np.repeat([0, 1, 2], 5)
        probs = np.zeros((15, 3))
        probs[np.arange(15), labels] = 1.0
        report = build_report("perfect", "test", labels, labels, probs, 0.0,
                              ("normal", "benign", "malignant"))
        assert report.macro_f1 == 1.0
        table1 = write_tables([report], tmp_path)[0]
        row = table1.read_text().splitlines()[1]
        assert row.split(",")[3] == "1.0"


def test_write_csv_cells(tmp_path):
    """Floats of any width are written repr-exact as Python floats, None as an
    empty cell, anything else by str; the csv module quotes as needed."""
    path = tmp_path / "cells.csv"
    write_csv(path, ["f64", "f32", "inf", "none", "int", "str"],
              [[np.float64(0.1), np.float32(0.1), float("-inf"), None, 7, "a,b"],
               (np.float64(1e-300), np.float32(3.0), float("inf"), None, -2, "")])
    assert path.read_bytes() == (b"f64,f32,inf,none,int,str\r\n"
                                 b'0.1,0.10000000149011612,-inf,,7,"a,b"\r\n'
                                 b"1e-300,3.0,inf,,-2,\r\n")

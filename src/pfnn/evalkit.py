"""Classifier evaluation: confusion matrix, per-class precision/recall/F1,
macro and dispersion aggregates, overfit deltas, and one-vs-rest ROC/AUC.

Zero-denominator rates (a class with no predictions or no instances)
yield 0 and are flagged as degenerate rather than raising; dispersion
statistics are population standard deviations across the classes.
"""

from __future__ import annotations

import csv
import json
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

TABLE1_FIELDS = ("model", "accuracy", "loss", "macro_f1", "f1_std", "recall_min",
                 "recall_std", "overfit_acc", "overfit_f1", "overfit_loss")
TABLE2_FIELDS = ("model", "f1_mean", "f1_std", "recall_mean", "recall_std")
SCATTER_PAIRS = (
    ("accuracy", "loss"),
    ("macro_f1", "recall_min"),
    ("recall_std", "overfit_loss"),
    ("f1_mean", "recall_mean"),
)


def confusion(labels, predictions, num_classes: int) -> np.ndarray:
    """Counts[t][p] of samples with true class t predicted as p."""
    labels = np.asarray(labels)
    predictions = np.asarray(predictions)
    if labels.shape != predictions.shape or labels.ndim != 1:
        raise ValueError(f"labels {labels.shape} and predictions {predictions.shape} must be equal-length 1-D")
    for name, values in (("labels", labels), ("predictions", predictions)):
        if values.size and (values.min() < 0 or values.max() >= num_classes):
            raise ValueError(f"{name} contain values outside [0, {num_classes})")
    matrix = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(matrix, (labels, predictions), 1)
    return matrix


@dataclass
class ClassificationStats:
    precision: tuple[float, ...]
    recall: tuple[float, ...]
    f1: tuple[float, ...]
    support: tuple[int, ...]
    accuracy: float
    macro_f1: float
    f1_mean: float
    f1_std: float
    recall_mean: float
    recall_min: float
    recall_std: float
    degenerate: tuple[str, ...]


def classification_report(matrix: np.ndarray) -> ClassificationStats:
    matrix = np.asarray(matrix)
    total = int(matrix.sum())
    if total < 1:
        raise ValueError("classification_report: no samples")
    diag = np.diag(matrix).astype(np.float64)
    col_sums = matrix.sum(axis=0).astype(np.float64)
    row_sums = matrix.sum(axis=1).astype(np.float64)
    degenerate: list[str] = []
    precision = np.zeros(matrix.shape[0])
    recall = np.zeros(matrix.shape[0])
    f1 = np.zeros(matrix.shape[0])
    for c in range(matrix.shape[0]):
        if col_sums[c] > 0:
            precision[c] = diag[c] / col_sums[c]
        else:
            degenerate.append(f"precision[{c}]")
        if row_sums[c] > 0:
            recall[c] = diag[c] / row_sums[c]
        else:
            degenerate.append(f"recall[{c}]")
        if precision[c] + recall[c] > 0:
            f1[c] = 2.0 * precision[c] * recall[c] / (precision[c] + recall[c])
        else:
            degenerate.append(f"f1[{c}]")
    return ClassificationStats(
        precision=tuple(precision.tolist()),
        recall=tuple(recall.tolist()),
        f1=tuple(f1.tolist()),
        support=tuple(int(s) for s in row_sums),
        accuracy=float(diag.sum() / total),
        macro_f1=float(f1.mean()),
        f1_mean=float(f1.mean()),
        f1_std=float(f1.std()),
        recall_mean=float(recall.mean()),
        recall_min=float(recall.min()),
        recall_std=float(recall.std()),
        degenerate=tuple(degenerate),
    )


@dataclass
class RocCurve:
    fpr: tuple[float, ...]
    tpr: tuple[float, ...]
    thresholds: tuple[float, ...]
    auc: float


def roc_curve(scores, positives) -> RocCurve:
    """One-vs-rest ROC by sweeping the distinct scores descending.

    Equal scores collapse into one threshold step, which makes the
    trapezoidal AUC equal to pairwise concordance with ties counted half.
    """
    scores = np.asarray(scores, dtype=np.float64)
    positives = np.asarray(positives, dtype=bool)
    if scores.shape != positives.shape or scores.ndim != 1:
        raise ValueError("scores and positives must be equal-length 1-D")
    pos_total = int(positives.sum())
    neg_total = int(positives.size - pos_total)
    if pos_total == 0 or neg_total == 0:
        raise ValueError("ROC needs at least one positive and one negative sample")
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    # ends: the last index of each run of equal scores. A run's threshold is
    # its first score, which fixes the sign when -0.0 and 0.0 share a run.
    ends = np.append(np.flatnonzero(s[1:] != s[:-1]), s.size - 1)
    tp = np.cumsum(positives[order])[ends]
    fp = ends + 1 - tp
    fpr = [0.0, *(fp / neg_total).tolist()]
    tpr = [0.0, *(tp / pos_total).tolist()]
    thresholds = [float("inf"), *s[np.append(0, ends[:-1] + 1)].tolist()]
    auc = 0.0
    for k in range(1, len(fpr)):
        auc += (fpr[k] - fpr[k - 1]) * (tpr[k] + tpr[k - 1]) / 2.0
    return RocCurve(tuple(fpr), tuple(tpr), tuple(thresholds), float(auc))


@dataclass
class EvalReport:
    """Everything the tables and figures need for one model on one split."""

    model: str
    split: str
    class_names: tuple[str, ...]
    precision: tuple[float, ...]
    recall: tuple[float, ...]
    f1: tuple[float, ...]
    support: tuple[int, ...]
    accuracy: float
    loss: float
    macro_f1: float
    f1_mean: float
    f1_std: float
    recall_mean: float
    recall_min: float
    recall_std: float
    degenerate: tuple[str, ...] = ()
    roc: dict[str, RocCurve | None] = field(default_factory=dict)
    overfit_acc: float | None = None
    overfit_f1: float | None = None
    overfit_loss: float | None = None


def build_report(model: str, split: str, labels, predictions, probs, loss: float,
                 class_names) -> EvalReport:
    """Assemble the full report; per-class ROC is skipped (None) for any
    class that is all-positive or all-negative on this split."""
    class_names = tuple(class_names)
    matrix = confusion(labels, predictions, len(class_names))
    stats = classification_report(matrix)
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    roc: dict[str, RocCurve | None] = {}
    for c, name in enumerate(class_names):
        is_c = labels == c
        if 0 < int(is_c.sum()) < labels.size:
            roc[name] = roc_curve(probs[:, c], is_c)
        else:
            roc[name] = None
    return EvalReport(model=model, split=split, class_names=class_names, loss=float(loss),
                      roc=roc, **asdict(stats))


def overfit_deltas(train_report: EvalReport, test_report: EvalReport) -> tuple[float, float, float]:
    """(train_acc - test_acc, train_macro_f1 - test_macro_f1, test_loss - train_loss).

    The loss delta is oriented test minus train so that, like the other
    two, a large positive value reads as overfitting.
    """
    return (
        train_report.accuracy - test_report.accuracy,
        train_report.macro_f1 - test_report.macro_f1,
        test_report.loss - train_report.loss,
    )


# ---------------------------------------------------------------------------
# serialization


def _is_number(value) -> bool:
    """A JSON number that ``float()`` takes: not a bool, and no integer beyond float range."""
    return isinstance(value, float) or (type(value) is int and abs(value) <= sys.float_info.max)


def _list_of(check):
    return lambda value: isinstance(value, (list, tuple)) and all(map(check, value))


# by annotation: a check of a field's JSON form (a list may be asdict's tuple) and its name
_FIELD_FORMS = {
    "str": (lambda value: isinstance(value, str), "a string"),
    "float": (_is_number, "a number"),
    "float | None": (lambda value: value is None or _is_number(value), "a number or null"),
    "tuple[str, ...]": (_list_of(lambda value: isinstance(value, str)), "a list of strings"),
    "tuple[float, ...]": (_list_of(_is_number), "a list of numbers"),
    "tuple[int, ...]": (_list_of(lambda value: type(value) is int), "a list of integers"),
    "dict[str, RocCurve | None]": (lambda value: isinstance(value, dict), "a JSON object"),
}


def _from_fields(cls, data, where: str):
    """``cls`` from its JSON form: each field checked by its annotation, lists back to tuples."""
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(data).__name__}")
    missing = [f.name for f in fields(cls) if f.name not in data]
    if missing:
        raise ValueError(f"{where} is missing field(s) {', '.join(map(repr, missing))}")
    for f in fields(cls):
        is_form, form = _FIELD_FORMS[f.type]
        if not is_form(data[f.name]):
            raise ValueError(f"{where} field {f.name!r} must be {form}, got {data[f.name]!r:.40}")
    return cls(**{f.name: tuple(data[f.name]) if isinstance(data[f.name], list) else data[f.name]
                  for f in fields(cls)})


def report_from_dict(data: dict) -> EvalReport:
    """Decode ``asdict`` of an ``EvalReport``. A non-object, a missing field, a field
    not in the JSON form of its annotation, or an ROC curve whose lists differ in
    length is a ``ValueError`` naming the field."""
    report = _from_fields(EvalReport, data, "report")
    report.roc = {name: None if curve is None else _from_fields(RocCurve, curve, f"roc curve {name!r}")
                  for name, curve in report.roc.items()}
    for name, curve in report.roc.items():
        if curve is not None and not len(curve.fpr) == len(curve.tpr) == len(curve.thresholds):
            raise ValueError(f"roc curve {name!r} fields 'fpr', 'tpr' and 'thresholds' differ in length")
    return report


def write_report(report: EvalReport, path) -> None:
    Path(path).write_text(json.dumps(asdict(report), indent=2) + "\n", encoding="utf-8")


def parse_report(path) -> EvalReport:
    try:
        return report_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _cell(value):
    return repr(float(value)) if isinstance(value, (float, np.floating)) else value


def write_csv(path, header, rows) -> None:
    """The header row, then ``rows``. A float cell (``float`` or ``np.floating``)
    is written repr-exact as ``repr(float(v))``, None as an empty cell, and
    anything else by ``str``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)


def write_tables(reports, out_dir) -> list[Path]:
    """Write the cross-model tables into ``out_dir``, one row per report, and
    return their paths: table1.csv (global performance and overfitting),
    table2.csv (inter-class equity and dispersion) and scatter_pairs.csv (the
    metric pairs the figures plot). A JSON integer metric prints as a float."""
    out_dir = Path(out_dir)
    paths = []
    for name, columns in (("table1.csv", TABLE1_FIELDS), ("table2.csv", TABLE2_FIELDS)):
        rows = []
        for r in reports:
            values = (getattr(r, column) for column in columns[1:])
            rows.append([r.model, *(v if v is None else float(v) for v in values)])
        paths.append(out_dir / name)
        write_csv(paths[-1], columns, rows)
    rows = []
    for r in reports:
        for x_name, y_name in SCATTER_PAIRS:
            x, y = getattr(r, x_name), getattr(r, y_name)
            if x is not None and y is not None:
                rows.append([r.model, f"{x_name}_vs_{y_name}", float(x), float(y)])
    paths.append(out_dir / "scatter_pairs.csv")
    write_csv(paths[-1], ["model", "pair", "x", "y"], rows)
    return paths


def write_roc_csv(report: EvalReport, out_dir) -> list[Path]:
    """One fpr/tpr/threshold CSV per class that has a defined curve."""
    out_dir = Path(out_dir)
    paths = []
    for name, curve in report.roc.items():
        if curve is None:
            continue
        path = out_dir / f"roc_{report.split}_{name}.csv"
        rows = ((fpr, tpr, thr, curve.auc) for fpr, tpr, thr in zip(curve.fpr, curve.tpr, curve.thresholds))
        write_csv(path, ["fpr", "tpr", "threshold", "auc"], rows)
        paths.append(path)
    return paths

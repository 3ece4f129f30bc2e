"""Command-line entry point wiring the library into reproducible runs.

Subcommands: gen-data, train, eval, gradcam, pca, report. Every command
is deterministic under fixed flags and seed; run directories carry a
config snapshot, the split datasets, and a content manifest so any run
can be reproduced byte-identically. Timestamps live only in run.log.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import os
import sys
from datetime import datetime
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .blas import blas_environment
from .checkpoint import load_checkpoint, save_checkpoint
from .config import (
    CONFIG_KEYS,
    ExperimentConfig,
    experiment_from_mapping,
    experiment_to_mapping,
    read_kv_file,
    write_kv_file,
)
from .datagen import (
    GenSpec,
    LabeledImageSet,
    augment_to_share,
    class_distribution,
    generate,
    holdout_extract,
    read_dataset,
    write_dataset,
)
from .evalkit import (
    build_report,
    overfit_deltas,
    parse_report,
    write_report,
    write_roc_csv,
    write_scatter_pairs,
    write_table1,
    write_table2,
)
from .interpret import (
    cam_case_gallery,
    pca,
    select_feature_layer,
    write_projections,
    write_variance_curve,
)
from .layers import ModelSpec, build_model
from .losses import cross_entropy
from .trainer import NonFiniteOutputs, TrainingDiverged, fit, predict, stratified_split, write_history


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _log(run_dir: Path, message: str) -> None:
    with open(run_dir / "run.log", "a", encoding="utf-8") as fh:
        fh.write(f"{datetime.now().isoformat()} {message}\n")


def _class_index(name: str, class_names) -> int:
    if name.isdigit():
        idx = int(name)
        if not 0 <= idx < len(class_names):
            raise ValueError(f"class index {idx} out of range")
        return idx
    try:
        return list(class_names).index(name)
    except ValueError:
        raise ValueError(f"unknown class {name!r}; choose from {', '.join(class_names)}") from None


# ---------------------------------------------------------------------------
# gen-data


def _parse_flag(flag: str, parse, text: str):
    """``parse(text)``, whose ValueError names the flag, as a bad train flag names its key."""
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def cmd_gen_data(args) -> int:
    holdout = args.holdout is not None
    if holdout != (args.holdout_out is not None):
        raise ValueError("--holdout and --holdout-out must be given together")
    if holdout:
        if args.holdout <= 0:
            raise ValueError(f"--holdout must be positive, got {args.holdout}")
        if Path(args.holdout_out).resolve() == Path(args.out).resolve():
            raise ValueError(f"--holdout-out and --out are the same file: {args.out}")
    counts = _parse_flag("--counts", lambda text: tuple(int(c) for c in text.split(",")), args.counts)
    spec = GenSpec(counts=counts, side=args.side, noise_level=args.noise, seed=args.seed)
    data = generate(spec)
    if args.augment:
        class_name, _, share = args.augment.partition(":")
        if not share:
            raise ValueError(f"--augment expects CLASS:SHARE, got {args.augment!r}")
        target = _parse_flag("--augment", lambda name: _class_index(name, data.class_names), class_name)
        data = _parse_flag("--augment", lambda text: augment_to_share(data, target, float(text), seed=args.seed),
                           share)
    if holdout:
        blind, data = holdout_extract(data, args.holdout, seed=args.seed)
        write_dataset(args.holdout_out, blind)
    write_dataset(args.out, data)
    cnts, shares = class_distribution(data)
    print(f"wrote {args.out}: {len(data)} images, side {data.images.shape[1]}")
    for name, c, s in zip(data.class_names, cnts, shares):
        print(f"  {name}: {c} ({100.0 * s:.1f}%)")
    if holdout:
        print(f"wrote {args.holdout_out}: {args.holdout} blind images")
    return 0


# ---------------------------------------------------------------------------
# train


def _merge_config(args) -> ExperimentConfig:
    mapping = read_kv_file(args.config) if args.config else {}
    # each config key's flag keeps its text, so a flag and a file line decode alike
    mapping.update((key, getattr(args, key)) for key in CONFIG_KEYS if getattr(args, key) is not None)
    return experiment_from_mapping(mapping)


def _read_for_model(path, classes: int) -> LabeledImageSet:
    """The dataset at ``path``; its class table must match the model's."""
    dataset = read_dataset(path)
    if len(dataset.class_names) != classes:
        raise ValueError(f"{path}: dataset has {len(dataset.class_names)} classes, model expects {classes}")
    return dataset


# What `pfnn train` writes into a run directory, and what eval, pca and
# gradcam write into its eval/, pca/ and gradcam/ when --out is not given.
_RUN_OUTPUTS = (
    "manifest.txt", "checkpoint.pfnn", "train.mids", "val.mids", "test.mids",
    "eval/report_*.json", "eval/roc_*.csv", "eval/table1.csv", "eval/table2.csv",
    "eval/scatter_pairs.csv",
    "pca/variance_*.csv", "pca/projections.csv", "pca/pca_meta.txt",
    "gradcam/case_*.ppm", "gradcam/case_*_raw.csv", "gradcam/index.csv",
)


def _replace_last_run(run_dir: Path, data_path, exp: ExperimentConfig) -> Path:
    """Delete the last run's results and hashes from ``run_dir`` and write
    this run's config snapshot; returns the snapshot's path."""
    data_path = Path(data_path).resolve()
    for pattern in _RUN_OUTPUTS:
        for path in run_dir.glob(pattern):
            if path.resolve() != data_path:  # never the input itself
                path.unlink()
    for sub in ("eval", "pca", "gradcam"):
        with contextlib.suppress(OSError):
            (run_dir / sub).rmdir()  # only when pfnn's outputs were all it held
    snapshot = run_dir / "config.snapshot"
    write_kv_file(snapshot, experiment_to_mapping(exp))
    return snapshot


def cmd_train(args) -> int:
    exp = _merge_config(args)
    data = _read_for_model(args.data, exp.model.classes)
    run_dir = Path(args.out)
    run_dir.mkdir(parents=True, exist_ok=True)
    # what the run's bytes depend on besides its inputs; run.log is never hashed
    _log(run_dir, f"train start: data={args.data} seed={exp.seed} {blas_environment()}")

    if exp.test_fraction > 0:
        pool, test_set = stratified_split(data, exp.test_fraction, exp.seed, ("trainpool", "test"))
    else:
        pool, test_set = data, None

    model = build_model(exp.model)
    history_path = run_dir / "history.csv"
    # the last run's files go only once this one has trained or diverged,
    # so a run that cannot start leaves them as they were
    try:
        run = fit(model, pool, exp.train)
    except TrainingDiverged as exc:
        _replace_last_run(run_dir, args.data, exp)
        write_history(exc.history, history_path)
        _log(run_dir, f"train diverged: {exc}")
        print(f"error: {exc} (partial history kept)", file=sys.stderr)
        return 1

    snapshot = _replace_last_run(run_dir, args.data, exp)
    write_history(run.history, history_path)
    artifacts = [snapshot, history_path]
    ckpt_path = run_dir / "checkpoint.pfnn"
    save_checkpoint(ckpt_path, model.state_arrays())
    artifacts.append(ckpt_path)
    for split_name, split_set in (("train", run.train_set), ("val", run.val_set), ("test", test_set)):
        if split_set is not None:
            write_dataset(run_dir / f"{split_name}.mids", split_set)
            artifacts.append(run_dir / f"{split_name}.mids")
    # the manifest goes last and appears whole, so it never lists a missing file
    manifest = sorted(f"{_sha256(p)}  {p.name}" for p in artifacts)
    (run_dir / "manifest.partial").write_text("\n".join(manifest) + "\n", encoding="utf-8")
    os.replace(run_dir / "manifest.partial", run_dir / "manifest.txt")
    _log(run_dir, f"train done: {len(run.history)} epochs, best epoch {run.best_epoch}")

    last = run.history[-1]
    print(f"run dir: {run_dir}")
    print(f"epochs: {len(run.history)} (best {run.best_epoch}, "
          f"{'stopped early' if run.stopped_early else 'ran to max_epochs'})")
    print(f"final: train acc {last.train_acc:.4f}, val acc {last.val_acc:.4f}, lr {last.lr:.2e}")
    return 0


# ---------------------------------------------------------------------------
# eval, gradcam and pca: each reads a trained run and a stored split or a file


class _Once(argparse.Action):
    """Keep a flag's value as a one-item list; a second use is a usage error."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest):
            parser.error(f"argument {option_string}: may be given once")
        setattr(namespace, self.dest, [values])


def _add_run_command(sub, command: str, func, help: str, repeat_split: bool = False):
    """A subcommand that reads a run and either stored splits (``--split``,
    default test) or one external file (``--data``), never both."""
    p = sub.add_parser(command, help=help)
    p.add_argument("--run", required=True, help="run directory from `pfnn train`")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--split", choices=("train", "val", "test"),
                        action="append" if repeat_split else _Once,
                        help="stored split to read (default test)" + (", repeatable" if repeat_split else ""))
    source.add_argument("--data", metavar="FILE", help="external MIDS1 file, read as split 'data'")
    p.add_argument("--out", help=f"output directory (default RUN/{command})")
    p.set_defaults(func=func)
    return p


def _open_run(args) -> tuple[ModelSpec, dict[str, LabeledImageSet], Path]:
    """The run's model, the datasets to read by split name, and the output directory."""
    run_dir = Path(args.run)
    snapshot = run_dir / "config.snapshot"
    if not snapshot.exists():
        raise ValueError(f"{run_dir} has no config.snapshot (not a run directory?)")
    model = build_model(experiment_from_mapping(read_kv_file(snapshot)).model)
    model.load_state(load_checkpoint(run_dir / "checkpoint.pfnn"))
    datasets = {}
    for split in ["data"] if args.data else args.split or ["test"]:
        path = Path(args.data) if args.data else run_dir / f"{split}.mids"
        if not args.data and not path.exists():
            raise ValueError(f"no {path.name} in {run_dir}; pass --data FILE or train with that split")
        datasets[split] = _read_for_model(path, model.config.classes)
        if len(datasets[split]) == 0:
            raise ValueError(f"{path}: dataset holds no images")
    out_dir = Path(args.out) if args.out else run_dir / args.command
    out_dir.mkdir(parents=True, exist_ok=True)
    return model, datasets, out_dir


@contextlib.contextmanager
def _finite_outputs_on(args, split: str):
    """Name the checkpoint and the split when the model's outputs are not finite."""
    try:
        yield
    except NonFiniteOutputs:
        raise ValueError(f"{Path(args.run) / 'checkpoint.pfnn'}: the model's outputs on split "
                         f"{split!r} are not finite") from None


def _write_tables(reports, out_dir: Path) -> list[Path]:
    """The cross-model comparison tables, one row per report."""
    paths = [out_dir / "table1.csv", out_dir / "table2.csv", out_dir / "scatter_pairs.csv"]
    for write, path in zip((write_table1, write_table2, write_scatter_pairs), paths):
        write(reports, path)
    return paths


def cmd_eval(args) -> int:
    model, datasets, out_dir = _open_run(args)
    reports = {}
    for split, dataset in datasets.items():
        labels = dataset.labels.astype(np.intp)
        with _finite_outputs_on(args, split):
            probs, _ = predict(model, dataset.images)
        loss = float(cross_entropy(Tensor(probs), labels).data)
        reports[split] = build_report(args.model_name or Path(args.run).name, split, labels,
                                      probs.argmax(axis=1), probs, loss, dataset.class_names)
    test = reports.get("test")
    if test and "train" in reports:
        test.overfit_acc, test.overfit_f1, test.overfit_loss = overfit_deltas(reports["train"], test)

    artifacts: list[Path] = []
    for split, report in reports.items():
        write_report(report, out_dir / f"report_{split}.json")
        artifacts += [out_dir / f"report_{split}.json", *write_roc_csv(report, out_dir)]
    artifacts += _write_tables([test or next(iter(reports.values()))], out_dir)

    for split, report in reports.items():
        print(f"{split}: acc {report.accuracy:.4f}, loss {report.loss:.4f}, "
              f"macro F1 {report.macro_f1:.4f}, recall_min {report.recall_min:.4f}")
        aucs = {name: (f"{curve.auc:.4f}" if curve else "n/a") for name, curve in report.roc.items()}
        print(f"  auc: {aucs}")
    if test and test.overfit_acc is not None:
        print(f"overfit: acc {test.overfit_acc:+.4f}, f1 {test.overfit_f1:+.4f}, "
              f"loss {test.overfit_loss:+.4f}")
    print(f"wrote {len(artifacts)} files to {out_dir}")
    return 0


def cmd_gradcam(args) -> int:
    model, datasets, out_dir = _open_run(args)
    [(split, dataset)] = datasets.items()
    target = _class_index(args.target_class, dataset.class_names)
    with _finite_outputs_on(args, split):
        gallery = cam_case_gallery(model, dataset, args.correct, args.wrong, out_dir, target)
    print(f"wrote {len(gallery.cases)} overlays to {out_dir} ({gallery.note})")
    return 0


def cmd_pca(args) -> int:
    model, datasets, out_dir = _open_run(args)
    [(split, dataset)] = datasets.items()
    layer = args.layer
    if layer == "auto":
        with _finite_outputs_on(args, split):
            choice = select_feature_layer(model, dataset)
        layer, probs, feats = choice.layer, choice.probs, choice.features
        for name, (ratios, cumulative) in choice.curves.items():
            write_variance_curve(ratios, cumulative, out_dir / f"variance_{name}.csv")
        selection_note = "highest cumulative explained variance over the first 3 components"
        if choice.tie:
            selection_note += " (tie broken by network order)"
        skipped = [name for name in model.feature_candidates if name not in choice.curves]
        if skipped:
            selection_note += f"; skipped constant layer(s) {', '.join(skipped)}"
    elif layer in model.feature_candidates:
        selection_note = "explicitly requested"
        with _finite_outputs_on(args, split):
            probs, feats = predict(model, dataset.images, feature_layer=layer)
    else:
        raise ValueError(f"unknown feature layer {layer!r}; "
                         f"candidates: {', '.join(model.feature_candidates)}")
    k = min(args.components, feats.shape[0] - 1, feats.shape[1])
    result = pca(feats, k, layer=layer)
    ratio = float(np.sum(result.ratios))
    write_projections(result, dataset.labels, probs.argmax(axis=1), out_dir / "projections.csv")
    write_variance_curve(result.ratios, np.cumsum(result.ratios), out_dir / "variance_selected.csv")
    write_kv_file(out_dir / "pca_meta.txt", {"layer": layer, "selection": selection_note,
                                             "components": k, "cumulative_ratio": repr(ratio)})
    print(f"layer {layer}: top-{k} components explain {100 * ratio:.1f}% of variance")
    print(f"wrote projections and variance curves to {out_dir}")
    return 0


def cmd_report(args) -> int:
    reports = []
    for run in args.compare:
        path = Path(run) / "eval" / f"report_{args.split}.json"
        if not path.exists():
            raise ValueError(f"{path} missing; run `pfnn eval --run {run}` first")
        reports.append(parse_report(path))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_tables(reports, out_dir)
    print(f"compared {len(reports)} models into {out_dir}")
    for r in reports:
        print(f"  {r.model}: acc {r.accuracy:.4f}, macro F1 {r.macro_f1:.4f}, recall_min {r.recall_min:.4f}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pfnn",
        description="Synthetic imbalanced-image experiments: data generation, training "
        "with pooling-fusion/channel-gate ablations, evaluation, and interpretability.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic MIDS1 dataset")
    p.add_argument("--counts", required=True, help="per-class counts, e.g. 152,820,1028")
    p.add_argument("--side", type=int, default=32, help="image side length (default 32)")
    p.add_argument("--noise", type=float, default=0.05, help="pixel noise level (default 0.05)")
    p.add_argument("--seed", type=int, default=0, help="generation seed (default 0)")
    p.add_argument("--augment", metavar="CLASS:SHARE",
                   help="augment CLASS up to SHARE of the dataset, e.g. normal:0.331")
    p.add_argument("--holdout", type=int, help="extract N blind images before writing")
    p.add_argument("--holdout-out", help="where to write the blind holdout")
    p.add_argument("--out", required=True, help="MIDS1 file to write")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a model into a run directory",
                       epilog="Each config key is a flag: '_' becomes '-' and 'enable_' is dropped. "
                       "Flag values override --config keys; config keys override defaults.")
    p.add_argument("--data", required=True, help="MIDS1 dataset file")
    p.add_argument("--out", required=True, help="run directory")
    p.add_argument("--config", help="key=value config file, e.g. a run's config.snapshot")
    for key, default in experiment_to_mapping(experiment_from_mapping({})).items():
        p.add_argument("--" + key.removeprefix("enable_").replace("_", "-"), dest=key,
                       metavar="VALUE", help=f"config key {key} (default {default})")
    p.set_defaults(func=cmd_train)

    p = _add_run_command(sub, "eval", cmd_eval, "evaluate a run on stored splits or a file",
                         repeat_split=True)
    p.add_argument("--model-name", dest="model_name", help="row label for tables")

    p = _add_run_command(sub, "gradcam", cmd_gradcam, "emit CAM overlays for picked cases")
    p.add_argument("--class", dest="target_class", default="malignant",
                   help="class name or index to explain (default malignant)")
    p.add_argument("--correct", type=int, default=3, help="high-confidence correct cases")
    p.add_argument("--wrong", type=int, default=3, help="misclassified cases")

    p = _add_run_command(sub, "pca", cmd_pca, "project a feature layer")
    p.add_argument("--layer", default="auto", help="feature layer name or 'auto'")
    p.add_argument("--components", type=int, default=3)

    p = sub.add_parser("report", help="cross-model comparison tables")
    p.add_argument("--compare", nargs="+", required=True, metavar="RUN",
                   help="run directories (evaluated already)")
    p.add_argument("--split", default="test")
    p.add_argument("--out", default="comparison", help="output directory (default comparison)")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

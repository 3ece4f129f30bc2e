"""Fuzzing the three formats pfnn reads: MIDS1 datasets, PFNN1 checkpoints
and report JSON. Each corrupt file goes through the command that reads it;
the command must succeed or exit 1 with exactly one ``error:`` line. An
exception escaping ``main`` would be a traceback at the command line.

The runs are derandomized, so every run of the suite tries the same cases.
"""

import contextlib
import io
import shutil
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfnn.cli import main

FUZZ = settings(derandomize=True, database=None, deadline=None)
TINY_TRAIN = ["--conv-widths", "2", "--head-units", "4", "--max-epochs", "1",
              "--batch-size", "8", "--val-fraction", "0.3", "--test-fraction", "0.25"]


@st.composite
def corruptions(draw, raw: bytes) -> bytes:
    """``raw`` cut short, or with one to three of its bits flipped."""
    if draw(st.booleans()):
        return raw[:draw(st.integers(0, len(raw) - 1))]
    out = bytearray(raw)
    for bit in draw(st.lists(st.integers(0, 8 * len(raw) - 1), min_size=1, max_size=3)):
        out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def run_cli(argv) -> None:
    """Run one command; a warning counts as a line on stderr, as it would at a terminal."""
    err = io.StringIO()
    with (warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err),
          contextlib.redirect_stdout(io.StringIO())):
        warnings.simplefilter("always")
        code = main(argv)
    lines = err.getvalue().splitlines() + [f"{w.category.__name__}: {w.message}" for w in caught]
    if code == 0:
        assert lines == []
    else:
        assert code == 1 and len(lines) == 1 and lines[0].startswith("error: "), (code, lines)


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """A tiny dataset, a run trained on it, and that run's test report."""
    root = tmp_path_factory.mktemp("fuzz")
    data = root / "d.mids"
    assert main(["gen-data", "--counts", "6,6,6", "--side", "8", "--seed", "4",
                 "--out", str(data)]) == 0
    run = root / "run"
    assert main(["train", "--data", str(data), "--out", str(run), "--seed", "4", *TINY_TRAIN]) == 0
    assert main(["eval", "--run", str(run)]) == 0
    return run


@settings(FUZZ, max_examples=300)
@given(data=st.data())
def test_corrupt_dataset_through_train(run_dir, data):
    corrupt = data.draw(corruptions((run_dir / "train.mids").read_bytes()))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.mids"
        path.write_bytes(corrupt)
        run_cli(["train", "--data", str(path), "--out", str(Path(tmp) / "run"),
                 "--seed", "4", *TINY_TRAIN])


@settings(FUZZ, max_examples=300)
@given(data=st.data())
def test_corrupt_checkpoint_through_eval(run_dir, data):
    corrupt = data.draw(corruptions((run_dir / "checkpoint.pfnn").read_bytes()))
    with tempfile.TemporaryDirectory() as tmp:
        run = Path(tmp) / "run"
        run.mkdir()
        for name in ("config.snapshot", "test.mids"):
            shutil.copy(run_dir / name, run / name)
        (run / "checkpoint.pfnn").write_bytes(corrupt)
        run_cli(["eval", "--run", str(run)])


@settings(FUZZ, max_examples=300)
@given(data=st.data())
def test_corrupt_report_through_report(run_dir, data):
    corrupt = data.draw(corruptions((run_dir / "eval/report_test.json").read_bytes()))
    with tempfile.TemporaryDirectory() as tmp:
        run = Path(tmp) / "run"
        (run / "eval").mkdir(parents=True)
        (run / "eval" / "report_test.json").write_bytes(corrupt)
        run_cli(["report", "--compare", str(run), "--out", str(Path(tmp) / "cmp")])

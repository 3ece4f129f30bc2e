"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every workload emits exactly the metrics BENCHMARK.json
names, with their units, that its output checks pass, that the traced
run records spans for every layer a per-layer metric reads, and that
the benchmark refuses to run without the pfnn sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Layer spans each workload's traced run must record.
COMMON = {"layers.forward", "autodiff.conv2d", "autodiff.batch_norm", "autodiff.global_max_pool",
          "autodiff.add", "trainer.predict"}
SPANS = {
    "train_fit": COMMON | {"trainer.fit", "losses.total_loss", "autodiff.backward",
                           "trainer.adam_step", "checkpoint.save_checkpoint",
                           "checkpoint.load_checkpoint", "bench.train_step",
                           "interpret.grad_cam", "imaging.bilinear_resize",
                           "interpret.select_feature_layer", "interpret.pca",
                           "interpret.jacobi_eigh"},
    "eval_bulk": COMMON | {"datagen.generate", "datagen.write_dataset", "datagen.read_dataset",
                           "evalkit.build_report"},
}
# Per-layer metrics each workload exercises, so they must be positive there.
FORWARD = ["autodiff.conv2d.fwd_ms", "autodiff.batch_norm.fwd_ms",
           "autodiff.global_max_pool.fwd_ms", "autodiff.add.fwd_ms", "autodiff.ops_per_step",
           "autodiff.conv2d.gflop", "autodiff.conv2d.fwd_gflops",
           "trainer.predict.graph_nodes_recorded", "layers.forward.ms"]
BACKWARD = ["autodiff.conv2d.bwd_ms", "autodiff.batch_norm.bwd_ms", "autodiff.backward.ms"]
POSITIVE = {
    # the tiny model's layers are all 32 wide, so no 256-wide Jacobi runs
    "train_fit": FORWARD + BACKWARD + ["losses.total_loss.ms", "trainer.adam_step.ms",
                                       "trainer.validation.ms", "checkpoint.save_ms",
                                       "checkpoint.load_ms", "interpret.jacobi_eigh.d32_ms",
                                       "interpret.jacobi_eigh.d32_calls", "interpret.grad_cam.fwd_ms",
                                       "interpret.grad_cam.bwd_ms", "imaging.bilinear_resize.ms"],
    "eval_bulk": FORWARD + ["datagen.generate.ms", "datagen.write_dataset.ms",
                            "datagen.read_dataset.ms", "evalkit.build_report.ms"],
}


def run(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=600)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


def check_metrics(result: dict, declared: list[dict]) -> None:
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"], m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result = result_of(run(workload, 0))
    check_metrics(result, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_covers_every_listed_layer(workload):
    result = result_of(run(workload, 1))
    check_metrics(result, SPEC["per_layer"])
    record = json.loads((HERE / "out" / f"{workload}-seed3-trace1.json").read_text())
    names = {span[0] for span in record["spans"]}
    assert SPANS[workload] <= names, SPANS[workload] - names
    assert all(len(span) == 5 and span[4] == record["spans"][0][4] for span in record["spans"])
    for metric in POSITIVE[workload]:
        assert result["metrics"][metric]["value"] > 0, metric


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(WORKLOADS[0], 0, tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

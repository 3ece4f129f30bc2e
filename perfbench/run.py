"""Run one pfnn benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train_fit --seed 1 --seconds 50 --trace 0

Run from the repository root; pfnn is imported from ``src/``. With
``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` the run is
traced (see ``tracer.py``) and the JSON holds the per-layer metrics.
Earlier lines give every metric by name and unit, the workload's own
metric names, sample counts and the run environment. Each run also
writes ``perfbench/out/<workload>-seed<n>-trace<t>.json`` (environment,
metrics and, when traced, the spans). BLAS and ``PFNN_THREADS`` are
pinned to one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "PFNN_THREADS": "1"}
SETUP_REPEATS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("train_fit", "eval_bulk"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every size, for the harness smoke test")
    return p.parse_args(argv)


def cache_sizes() -> dict[str, int]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            scale = {"K": 1024, "M": 1024 ** 2}.get(size[-1], 1)
            sizes[f"L{level}_bytes"] = int(size.rstrip("KM")) * scale
    return sizes


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(np, seed: int) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        **cache_sizes(), "machine": platform.machine(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ[k] for k in PINNED}, "commit": git_commit(), "seed": seed,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pfnn" / "__init__.py").is_file():
        print(f"error: no pfnn sources at {SRC}", file=sys.stderr)
        return 2
    os.environ.update(PINNED)  # before numpy loads BLAS
    sys.path.insert(0, str(SRC))
    import numpy as np
    import pfnn
    if Path(pfnn.__file__).resolve().parent != SRC / "pfnn":
        print(f"error: imported pfnn from {pfnn.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    scale = workloads.SCALES[args.scale]
    setup, measure = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = workloads.clock()
            state = setup(args.seed, scale, workdir)
            setup_times.append(workloads.clock() - start)
        setup_s = statistics.median(setup_times)

        ledger = workloads.Ledger()
        tracer = None
        if args.trace:
            import tracer as tracing
            tracer = tracing.Tracer(f"{args.workload}/seed={args.seed}/pid={os.getpid()}")
            tracer.install()
        try:
            span = tracer.span if tracer is not None else (lambda name: nullcontext())
            outcome = measure(state, args.seed, scale, args.seconds, ledger, span, workdir)
        finally:
            if tracer is not None:
                tracer.uninstall()
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is None:
            values = {
                "setup_s": setup_s,
                "peak_rss_mb": peak_rss_mib,
                "task_s": outcome.task_s,
                "images_per_s": outcome.images_per_s,
                "op_ms_p50": workloads.percentile_ms(outcome.op_seconds, 50),
                "op_ms_p90": workloads.percentile_ms(outcome.op_seconds, 90),
            }
        else:
            layer = tracing.layer_metrics(tracer, outcome.unit_span, args.seed)
            # Tracing overhead: the unit op alternately untraced and traced, so
            # both sides see the same drift in machine speed.
            untraced, traced, start = [], [], workloads.clock()
            while len(traced) < 2 or workloads.clock() - start < 0.1 * args.seconds:
                untraced.append(outcome.unit_op())
                tracer.install()
                try:
                    traced.append(outcome.unit_op())
                finally:
                    tracer.uninstall()
            overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
            values = {**layer, "trace.overhead_pct": 100.0 * overhead}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if tracer else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        print(f"error: metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json",
              file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    named = {name: {"value": v, "unit": u} for name, (v, u) in outcome.named.items()}

    env = environment(np, args.seed)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} scale {args.scale}: "
          f"{outcome.samples}")
    for name, m in {**metrics, **(named if tracer is None else {})}.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    share = ledger.failed / ledger.attempted if ledger.attempted else 0.0
    print(f"  failed_op_share = {share:.6g} ({ledger.failed} of {ledger.attempted} ops)")
    print(f"env {json.dumps(env)}")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "scale": args.scale,
              "env": env, "samples": outcome.samples, "attempted": ledger.attempted,
              "failed": ledger.failed,
              "metrics": metrics, "workload_metrics": named}
    if tracer is not None:
        record["spans"] = tracer.records()
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

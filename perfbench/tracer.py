"""Span tracing for the traced benchmark run, and the per-layer metrics.

The tracer swaps functions in pfnn's module namespaces for timing
wrappers and puts the originals back on ``uninstall``; the untraced run
never imports this module. It wraps

* every pfnn function that ``pfnn.layers``, ``pfnn.trainer`` and
  ``pfnn.interpret`` import from another module. The autodiff ops are
  wrapped where ``layers`` imports them, not inside ``autodiff``, so
  ``batch_norm`` is timed as one composite;
* the public functions of trainer, interpret, datagen, evalkit,
  checkpoint and losses, plus ``autodiff.backward``, for the calls the
  benchmark makes into them;
* ``ModelSpec.forward``, recorded as ``layers.forward``.

A span is ``[name, start, end, parent, info]`` kept in memory; ``info``
holds what a metric needs from the call (an op's argument shapes, the
graph size a backward walks, the width of a Jacobi matrix).

Backward time per op comes from an isolated replay through the public
autodiff API: the op is rebuilt at each recorded argument shape, and the
time of ``backward(reduce_sum(mul(op(...), g)))`` minus that of the same
graph without the op is its vjp time.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from types import FunctionType

import numpy as np

from pfnn import autodiff, checkpoint, datagen, evalkit, interpret, layers, losses, trainer

clock = time.perf_counter

BACKWARD = autodiff.backward
IMPORTING = (layers, trainer, interpret)
OWNING = (trainer, interpret, datagen, evalkit, checkpoint, losses)


def span_name(fn) -> str:
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"


def graph_nodes(roots) -> int:
    """Op outputs that recorded a graph node, reachable from ``roots``."""
    seen, stack, count = set(), list(roots), 0
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        parents = getattr(t, "_parents", ())
        if parents:
            count += 1
            stack.extend(parents)
    return count


def _arg_spec(v):
    if isinstance(v, autodiff.Tensor):
        return ("T", v.shape, v.requires_grad)
    if isinstance(v, autodiff.BatchNormState):
        return ("BN", v.running_mean.shape[0])
    if isinstance(v, np.random.Generator):
        return ("RNG",)
    if isinstance(v, (list, tuple)):
        return ("L", tuple(_arg_spec(x) for x in v))
    if isinstance(v, np.ndarray):
        return ("A", v.shape)
    return ("V", v)


def _op_spec(args, kwargs):
    return (tuple(_arg_spec(a) for a in args),
            tuple(sorted((k, _arg_spec(v)) for k, v in kwargs.items())))


def _build_arg(spec, rng):
    kind = spec[0]
    if kind == "T":
        return autodiff.Tensor(rng.standard_normal(spec[1]), requires_grad=spec[2])
    if kind == "BN":
        return autodiff.BatchNormState(spec[1])
    if kind == "RNG":
        return np.random.default_rng(0)
    if kind == "L":
        return [_build_arg(s, rng) for s in spec[1]]
    if kind == "A":
        return rng.standard_normal(spec[1])
    return spec[1]


def _forward_nodes(args, kwargs, out):
    training = kwargs.get("training", args[2] if len(args) > 2 else False)
    return None if training else graph_nodes([out.probs])


def _probes(fn):
    """(before-call probe, after-call probe) recording a span's info."""
    if fn is BACKWARD:
        return (lambda args, kwargs: graph_nodes(args[:1])), None
    if fn.__module__ == autodiff.__name__:
        return _op_spec, None
    if span_name(fn) == "interpret.jacobi_eigh":
        return (lambda args, kwargs: int(np.shape(args[0])[0])), None
    return None, None


class Tracer:
    """In-memory spans of one workload run; see the module docstring."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._open: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, fn, name, before=None, after=None):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            info = before(args, kwargs) if before else None
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, info]
            open_.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()
            if after:
                span[4] = after(args, kwargs, out)
            return out

        return wrapper

    @contextmanager
    def span(self, name: str):
        """A span around one of the benchmark's own unit ops, while installed."""
        if not self._undo:
            yield
            return
        span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, None]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = clock()
        try:
            yield
        finally:
            span[2] = clock()
            self._open.pop()

    def install(self) -> None:
        targets = [(autodiff, "backward", BACKWARD)]
        for mod in IMPORTING:
            targets += [(mod, attr, obj) for attr, obj in vars(mod).items()
                        if isinstance(obj, FunctionType) and obj.__module__.startswith("pfnn.")
                        and obj.__module__ != mod.__name__]
        for mod in OWNING:
            targets += [(mod, attr, obj) for attr, obj in vars(mod).items()
                        if isinstance(obj, FunctionType) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")]
        for mod, attr, fn in targets:
            setattr(mod, attr, self._wrap(fn, span_name(fn), *_probes(fn)))
        forward = layers.ModelSpec.forward
        layers.ModelSpec.forward = self._wrap(forward, "layers.forward", after=_forward_nodes)
        self._undo = targets + [(layers.ModelSpec, "forward", forward)]

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    def records(self) -> list[list]:
        """Spans as [name, start_s, end_s, parent, run_id], times from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [[s[0], s[1] - t0, s[2] - t0, s[3], self.run_id] for s in self.spans]


# ---------------------------------------------------------------------------
# replay


def replay_backward_ms(fn, spec, rng, budget_s: float = 0.05, min_reps: int = 5) -> float:
    """Median vjp time of ``fn`` at the recorded argument ``spec``, in ms."""
    arg_specs, kw_specs = spec
    diffs = []
    deadline = clock() + budget_s
    while len(diffs) < min_reps or (clock() < deadline and len(diffs) < 200):
        out = fn(*[_build_arg(s, rng) for s in arg_specs],
                 **{k: _build_arg(s, rng) for k, s in kw_specs})
        if not out.requires_grad:
            return 0.0
        cotangent = autodiff.Tensor(rng.standard_normal(out.shape))
        root = autodiff.reduce_sum(autodiff.mul(out, cotangent))
        t0 = clock()
        autodiff.backward(root)
        with_op = clock() - t0
        stand_in = autodiff.Tensor(rng.standard_normal(out.shape), requires_grad=True)
        root = autodiff.reduce_sum(autodiff.mul(stand_in, cotangent))
        t0 = clock()
        autodiff.backward(root)
        diffs.append(with_op - (clock() - t0))
    return 1000.0 * statistics.median(diffs)


def _conv_flop(spec) -> int:
    (x, kernel, *rest), kwargs = spec
    padding = rest[0][1] if rest else dict(kwargs).get("padding", ("V", "same"))[1]
    n, h, w, cin = x[1]
    kh, kw, _, cout = kernel[1]
    if padding == "valid":
        h, w = h - kh + 1, w - kw + 1
    return 2 * n * h * w * kh * kw * cin * cout


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(tracer: Tracer, unit: str, seed: int) -> dict[str, float]:
    """Per-layer metrics from the spans; uninstall the tracer first.

    Per-op times are per unit op (the workload's train step or predict
    batch: the spans named ``unit`` and everything under them); the others
    are per call of the named function.
    """
    spans = tracer.spans
    dur = [s[2] - s[1] for s in spans]
    name = [s[0] for s in spans]
    parent_name = [name[s[3]] if s[3] >= 0 else None for s in spans]
    unit_of = []
    for i, s in enumerate(spans):
        unit_of.append(i if s[0] == unit else (unit_of[s[3]] if s[3] >= 0 else -1))
    n_units = sum(1 for n in name if n == unit) or 1

    def in_units(fn_name):
        return [i for i, n in enumerate(name) if n == fn_name and unit_of[i] >= 0]

    def per_unit_ms(fn_name):
        return 1000.0 * sum(dur[i] for i in in_units(fn_name)) / n_units

    def per_call_ms(fn_name, where=lambda i: True):
        picked = [i for i, n in enumerate(name) if n == fn_name and where(i)]
        return 1000.0 * sum(dur[i] for i in picked) / len(picked) if picked else 0.0

    backward_units = {unit_of[i] for i in in_units("autodiff.backward")}
    op_calls = Counter((name[i], spans[i][4]) for i, n in enumerate(name)
                       if n.startswith("autodiff.") and n != "autodiff.backward"
                       and unit_of[i] in backward_units)
    rng = np.random.default_rng(seed)
    replayed: Counter = Counter()
    for (op, spec), count in op_calls.items():
        fn = getattr(autodiff, op.partition(".")[2])
        replayed[op] += count * replay_backward_ms(fn, spec, rng) / n_units

    backward_ms = per_unit_ms("autodiff.backward")
    if backward_units:
        ops = sum(spans[i][4] for i in in_units("autodiff.backward")) / n_units
    else:
        ops = sum(spans[i][4] or 0 for i in in_units("layers.forward")) / n_units
    conv = in_units("autodiff.conv2d")
    conv_gflop = sum(_conv_flop(spans[i][4]) for i in conv) / 1e9
    conv_s = sum(dur[i] for i in conv)
    jacobi_width = {i: spans[i][4] for i, n in enumerate(name) if n == "interpret.jacobi_eigh"}
    predict_forwards = [spans[i][4] for i, n in enumerate(name)
                        if n == "layers.forward" and parent_name[i] == "trainer.predict"]

    return {
        "autodiff.conv2d.fwd_ms": per_unit_ms("autodiff.conv2d"),
        "autodiff.batch_norm.fwd_ms": per_unit_ms("autodiff.batch_norm"),
        "autodiff.global_max_pool.fwd_ms": per_unit_ms("autodiff.global_max_pool"),
        "autodiff.add.fwd_ms": per_unit_ms("autodiff.add"),
        "autodiff.conv2d.bwd_ms": float(replayed["autodiff.conv2d"]),
        "autodiff.batch_norm.bwd_ms": float(replayed["autodiff.batch_norm"]),
        "autodiff.backward.ms": backward_ms,
        "autodiff.backward.bookkeeping_ms": backward_ms - sum(replayed.values()) if backward_units else 0.0,
        "autodiff.ops_per_step": ops,
        "autodiff.conv2d.gflop": conv_gflop / n_units,
        "autodiff.conv2d.fwd_gflops": conv_gflop / conv_s if conv_s else 0.0,
        "trainer.predict.graph_nodes_recorded":
            sum(predict_forwards) / len(predict_forwards) if predict_forwards else 0.0,
        "layers.forward.ms": per_unit_ms("layers.forward"),
        "losses.total_loss.ms": per_unit_ms("losses.total_loss"),
        "trainer.adam_step.ms": per_unit_ms("trainer.adam_step"),
        "trainer.validation.ms":
            per_call_ms("trainer.predict", lambda i: parent_name[i] == "trainer.fit"),
        "checkpoint.save_ms": per_call_ms("checkpoint.save_checkpoint"),
        "checkpoint.load_ms": per_call_ms("checkpoint.load_checkpoint"),
        "datagen.generate.ms": per_call_ms("datagen.generate"),
        "datagen.write_dataset.ms": per_call_ms("datagen.write_dataset"),
        "datagen.read_dataset.ms": per_call_ms("datagen.read_dataset"),
        "evalkit.build_report.ms": per_call_ms("evalkit.build_report"),
        "interpret.jacobi_eigh.d32_ms":
            per_call_ms("interpret.jacobi_eigh", lambda i: jacobi_width[i] == 32),
        "interpret.jacobi_eigh.d32_calls": sum(1 for d in jacobi_width.values() if d == 32),
        "interpret.jacobi_eigh.d256_ms":
            per_call_ms("interpret.jacobi_eigh", lambda i: jacobi_width[i] == 256),
        "interpret.jacobi_eigh.d256_calls": sum(1 for d in jacobi_width.values() if d == 256),
        "interpret.grad_cam.fwd_ms":
            per_call_ms("layers.forward", lambda i: parent_name[i] == "interpret.grad_cam"),
        "interpret.grad_cam.bwd_ms":
            per_call_ms("autodiff.backward", lambda i: parent_name[i] == "interpret.grad_cam"),
        "imaging.bilinear_resize.ms":
            per_call_ms("imaging.bilinear_resize", lambda i: parent_name[i] == "interpret.grad_cam"),
    }

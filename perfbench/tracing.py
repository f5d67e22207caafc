"""Spans around the calls into each dctcsim layer, recorded from outside
``src/``.

:func:`installed` replaces each traced function in the namespace of the
module that calls it (``analysis`` and ``engine`` import by name, so do
``circuits`` for ``apply_matrix_on_wires`` and ``qsim`` for
``trace_distance_raw``) and restores the originals on exit.
``DensityMatrix`` is traced through its validating ``__post_init__``.

A span is ``[name, start, end, parent, op, counts]``: ``parent`` indexes the
enclosing span (-1 for none), ``op`` numbers the benchmark op it belongs to,
and ``counts`` holds the counters derived at that boundary.  Spans stay in
memory until :meth:`Tracer.dump`.  Calls made while no op is open, such as
output checks, are not recorded.
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import defaultdict
from time import perf_counter

from dctcsim import analysis, circuits, cli, engine, qsim

PIPELINE = "analysis.pipeline"
BUILD = "circuits.build"
CR_FIXED = "circuits.apply_with_cr_fixed"
KRAUS = "engine.kraus_from"
SOLVE = "engine.solve_fixed_point"
PROBE = "engine.probe_fixed_points"
READOUT = "engine.readout"
KERNEL = "qsim.apply_matrix_on_wires"
TRACE_DIST = "qsim.trace_distance_raw"
DENSITY = "qsim.DensityMatrix"
CLI_MAIN = "cli.main"


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _solve_counts(args, kwargs, res):
    return {
        "iterations": res.iterations,
        "averaging": int(res.used_averaging),
        "unconverged": int(not res.converged),
    }


def _probe_counts(args, kwargs, res):
    return {"dropped": res.dropped, "distinct": len(res.fixed_points), "starts": res.start_count}


def _readout_counts(args, kwargs, res):
    return {"gate_applications": len(_arg(args, kwargs, 0, "circuit").gates)}


def _kernel_counts(args, kwargs, out):
    # Computed from shapes, not measured: input plus output bytes, and
    # 8 real flops per complex multiply-add, 2^k of them per element.
    arr = _arg(args, kwargs, 0, "arr")
    wires = _arg(args, kwargs, 2, "wires")
    return {
        "bytes_computed": arr.nbytes + out.nbytes,
        "flops_computed": 8 * 2 ** len(wires) * arr.size,
    }


# (module, attribute, span name, counter) for every call site the workloads
# pass through.
_SITES = (
    (analysis, "decode_experiment", PIPELINE, None),
    (analysis, "clone_fidelity", PIPELINE, None),
    (analysis, "bloch_sweep", PIPELINE, None),
    (cli, "bloch_sweep", PIPELINE, None),
    (cli, "main", CLI_MAIN, None),
    (analysis, "build_decoder", BUILD, None),
    (analysis, "build_cloner", BUILD, None),
    (engine, "apply_with_cr_fixed", CR_FIXED, None),
    (analysis, "kraus_from", KRAUS, None),
    (analysis, "solve_fixed_point", SOLVE, _solve_counts),
    (engine, "solve_fixed_point", SOLVE, _solve_counts),
    (analysis, "probe_fixed_points", PROBE, _probe_counts),
    (analysis, "readout", READOUT, _readout_counts),
    (engine, "apply_matrix_on_wires", KERNEL, _kernel_counts),
    (circuits, "apply_matrix_on_wires", KERNEL, _kernel_counts),
    (qsim, "apply_matrix_on_wires", KERNEL, _kernel_counts),
    (engine, "trace_distance_raw", TRACE_DIST, None),
    (qsim, "trace_distance_raw", TRACE_DIST, None),
    (qsim.DensityMatrix, "__post_init__", DENSITY, None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op: int | None = None
        self._ops = 0
        self._open: list[int] = []

    def begin_op(self) -> None:
        """Record spans under a fresh op id until :meth:`end_op`."""
        self.op = self._ops
        self._ops += 1

    def end_op(self) -> None:
        self.op = None

    def call(self, name, fn, args, kwargs, counter):
        if self.op is None:
            return fn(*args, **kwargs)
        span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, self.op, None]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._open.pop()
        if counter is not None:
            span[5] = counter(args, kwargs, result)
        return result

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _wrap(tracer: Tracer, name: str, fn, counter):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, counter)

    return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Trace every call site in ``_SITES`` until the block exits."""
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in _SITES]
    try:
        for (owner, attr, name, counter), (_, _, fn) in zip(_SITES, originals):
            setattr(owner, attr, _wrap(tracer, name, fn, counter))
        yield tracer
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)


def load_spans(path) -> list[list]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def aggregate(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, and summed counters.
    Names and keys that never occurred read 0."""
    agg: dict[str, dict] = defaultdict(lambda: defaultdict(int))
    for name, start, end, parent, _op, counts in spans:
        entry = agg[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        if parent >= 0:
            agg[spans[parent][0]]["child_s"] += end - start
        for key, value in (counts or {}).items():
            entry[key] += value
    for entry in agg.values():
        entry["self_s"] = entry["total_s"] - entry["child_s"]
    return agg


def layer_metrics(
    spans: list[list], traced_s: float, untraced_s: float, child_wall_s: float | None = None
) -> dict[str, float]:
    """The per-layer metrics of one traced pass.

    ``traced_s`` and ``untraced_s`` are the walls of the same ops with and
    without tracing.  ``child_wall_s`` is the wall of a traced CLI child,
    from launch to exit, less the time it spent writing its spans; it is
    ``None`` for the in-process workloads, whose CLI metrics read 0.
    """
    agg = aggregate(spans)

    def get(name, key):
        return agg[name][key]

    starts = get(PROBE, "starts")
    return {
        "engine.solve_fixed_point.calls": get(SOLVE, "calls"),
        "engine.solve_fixed_point.self_s": get(SOLVE, "self_s"),
        "engine.solve_fixed_point.iterations": get(SOLVE, "iterations"),
        "engine.solve_fixed_point.averaging": get(SOLVE, "averaging"),
        "engine.solve_fixed_point.unconverged": get(SOLVE, "unconverged"),
        "engine.probe_fixed_points.calls": get(PROBE, "calls"),
        "engine.probe_fixed_points.self_s": get(PROBE, "self_s"),
        "engine.probe_fixed_points.dropped": get(PROBE, "dropped"),
        "engine.probe_fixed_points.useful_ratio": get(PROBE, "distinct") / starts if starts else 0.0,
        "qsim.trace_distance_raw.calls": get(TRACE_DIST, "calls"),
        "qsim.trace_distance_raw.self_s": get(TRACE_DIST, "self_s"),
        "engine.readout.calls": get(READOUT, "calls"),
        "engine.readout.self_s": get(READOUT, "self_s"),
        "engine.readout.gate_applications": get(READOUT, "gate_applications"),
        "qsim.apply_matrix_on_wires.calls": get(KERNEL, "calls"),
        "qsim.apply_matrix_on_wires.self_s": get(KERNEL, "self_s"),
        "qsim.apply_matrix_on_wires.bytes_computed": get(KERNEL, "bytes_computed"),
        "qsim.apply_matrix_on_wires.flops_computed": get(KERNEL, "flops_computed"),
        "engine.kraus_from.calls": get(KRAUS, "calls"),
        "engine.kraus_from.self_s": get(KRAUS, "self_s"),
        "circuits.apply_with_cr_fixed.calls": get(CR_FIXED, "calls"),
        "circuits.apply_with_cr_fixed.self_s": get(CR_FIXED, "self_s"),
        "circuits.build.calls": get(BUILD, "calls"),
        "circuits.build.self_s": get(BUILD, "self_s"),
        "qsim.DensityMatrix.calls": get(DENSITY, "calls"),
        "qsim.DensityMatrix.self_s": get(DENSITY, "self_s"),
        "analysis.pipeline.self_s": get(PIPELINE, "self_s"),
        "cli.process_start_s": child_wall_s - get(CLI_MAIN, "total_s") if child_wall_s is not None else 0.0,
        "cli.main.self_s": get(CLI_MAIN, "self_s"),
        "trace_overhead_frac": traced_s / untraced_s - 1.0,
    }

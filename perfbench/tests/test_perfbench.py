"""Tests of the benchmark itself: seeded inputs, output checks, traced
counts, and the metric tables."""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from dctcsim import analysis, engine, qsim  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def take(workload, seed, count):
    return list(itertools.islice(workloads.inputs(workload, seed), count))


@pytest.mark.parametrize("workload", workloads.IN_PROCESS)
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(workload):
    assert take(workload, 7, 60) == take(workload, 7, 60)
    assert take(workload, 7, 60) != take(workload, 8, 60)


def test_inputs_stay_in_their_ranges():
    for n, k in take("decode", 1, 300):
        assert n in (2, 3, 4) and 0 <= k < 2**n
    for n, m, theta, phi in take("clone-point", 1, 240):
        assert (n, m) in workloads.CLONE_PAIRS
        assert workloads.CLONE_THETA_MIN <= theta <= math.pi
        assert 0 <= phi < 2 * math.pi


def test_decode_check_rejects_a_wrong_result():
    res = workloads.run_op("decode", (2, 1))
    assert workloads.check_decode((2, 1), res) is None
    assert workloads.check_decode((2, 1), dataclasses.replace(res, decoded=2)) is not None
    assert workloads.check_decode((2, 1), dataclasses.replace(res, success_prob=1 - 1e-4)) is not None
    unconverged = dataclasses.replace(res.fixed_point, converged=False)
    assert workloads.check_decode((2, 1), dataclasses.replace(res, fixed_point=unconverged)) is not None


def test_clone_check_rejects_a_wrong_result():
    args = (2, 2, math.pi - 0.1, 2.0)
    res = workloads.run_op("clone-point", args)
    assert workloads.check_clone(args, res) is None
    off = res.min_fidelity + 1e-4
    assert workloads.check_clone(args, dataclasses.replace(res, min_fidelity=off)) is not None
    assert workloads.check_clone(args, dataclasses.replace(res, dropped_starts=1)) is not None
    doubled = res.per_fixed_point * 2
    assert workloads.check_clone(args, dataclasses.replace(res, per_fixed_point=doubled)) is not None


def test_clone_oracle_gives_seven_elevenths_at_the_south_pole():
    fid, nullity = workloads.oracle_clone(2, 2, math.pi, 0.0)
    assert nullity == 1
    assert fid == pytest.approx(7 / 11, abs=1e-12)


@pytest.mark.parametrize("workload", list(workloads.SWEEPS))
def test_sweep_check_accepts_the_reference_and_rejects_perturbations(workload):
    text = (workloads.REFERENCE_DIR / (workload.replace("-", "_") + ".csv")).read_text()
    ref = workloads.reference_rows(workload)
    assert workloads.check_sweep(workload, 0, text, ref) is None
    header, first, *rest = text.splitlines(keepends=True)
    theta, phi, fid, count, _ = first.strip().split(",")
    bad_fidelity = f"{theta},{phi},{float(fid) - 1e-4!r},{count},true\n"
    unconverged = f"{theta},{phi},{fid},{count},false\n"
    fewer_points = f"{theta},{phi},{fid},{int(count) - 1},true\n"
    for row in (bad_fidelity, unconverged, fewer_points):
        assert workloads.check_sweep(workload, 0, header + row + "".join(rest), ref) is not None
    assert workloads.check_sweep(workload, 0, header + "".join(rest), ref) is not None
    assert workloads.check_sweep(workload, 1, text, ref) is not None


def traced_counts(ops):
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        for workload, args in ops:
            tracer.begin_op()
            workloads.run_op(workload, args)
            tracer.end_op()
    metrics = tracing.layer_metrics(tracer.spans, 1.0, 1.0)
    return {k: v for k, v in metrics.items() if not k.endswith("_s")}


def test_traced_counts_repeat_exactly():
    ops = [("decode", args) for args in take("decode", 3, 6)]
    ops.append(("clone-point", (2, 2, math.pi - 0.1, 2.0)))
    first = traced_counts(ops)
    assert first == traced_counts(ops)
    assert first["engine.solve_fixed_point.calls"] == 6 + 17
    assert first["engine.probe_fixed_points.calls"] == 1
    assert first["qsim.apply_matrix_on_wires.bytes_computed"] > 0


def test_tracing_restores_the_original_functions():
    before = (analysis.kraus_from, engine.solve_fixed_point, qsim.DensityMatrix.__post_init__)
    with tracing.installed(tracing.Tracer()):
        assert analysis.kraus_from is not before[0]
    assert (analysis.kraus_from, engine.solve_fixed_point, qsim.DensityMatrix.__post_init__) == before


def test_self_time_subtracts_child_spans():
    spans = [
        ["outer", 0.0, 10.0, -1, 0, None],
        ["inner", 1.0, 4.0, 0, 0, {"dropped": 2}],
        ["inner", 5.0, 6.0, 0, 0, {"dropped": 1}],
    ]
    agg = tracing.aggregate(spans)
    assert agg["outer"]["self_s"] == pytest.approx(6.0)
    assert agg["inner"]["self_s"] == pytest.approx(4.0)
    assert agg["inner"]["calls"] == 2 and agg["inner"]["dropped"] == 3


def test_p90_is_omitted_below_one_hundred_ops():
    def e2e(count):
        result = {"latencies": [0.01 * (i + 1) for i in range(count)], "failures": [],
                  "host_s": [0.03] * count, "maxrss_kb": 1024}
        return run.end_to_end(result, [0.3], 1)

    assert e2e(99)["op_p90_ms"] is None
    assert e2e(100)["op_p90_ms"] == pytest.approx(909.0)


def test_windowed_medians_ignore_a_minority_spell_and_count_failures():
    lat = [0.1] * 12 + [0.3] * 4
    host = [hostspeed.REF_S] * 16
    med = run.windowed(lat, host, set(), 4)
    assert med["ops_per_s"] == pytest.approx(10.0) and med["op_p50_s"] == pytest.approx(0.1)
    assert run.windowed(lat, host, {0, 1, 4, 5, 8, 9}, 4)["ops_per_s"] == pytest.approx(5.0)
    short = run.windowed([0.2, 0.4], [0.0, hostspeed.REF_S], set(), 4)
    assert short["ops_per_s"] == pytest.approx(1 / 0.3) and short["op_p50_s"] == pytest.approx(0.3)


def test_host_adjustment_divides_out_a_slower_host():
    lat, host = [0.1] * 8, [hostspeed.REF_S, 0.0] * 4
    slow = run.windowed([1.5 * x for x in lat], [1.5 * x for x in host], set(), 4)
    assert slow["host_factor"] == pytest.approx(1.5)
    assert slow["ops_per_s"] == pytest.approx(10 / 1.5)
    assert slow["adj_ops_per_s"] == pytest.approx(10.0)
    assert slow["adj_op_p50_s"] == pytest.approx(0.1)
    # A window without a slice takes the slices of the whole run.
    mixed = run.windowed(lat, [0.0] * 4 + [2 * hostspeed.REF_S] * 4, set(), 4)
    assert mixed["host_factor"] == pytest.approx(2.0)


def test_metric_tables_match_the_benchmark_spec():
    for metric in SPEC["end_to_end"]:
        assert run.E2E_UNITS[metric["name"]] == metric["unit"]
    names = [m["name"] for m in SPEC["per_layer"]]
    assert names == list(tracing.layer_metrics([], 1.0, 1.0))
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    assert set(run.WINDOW_OPS) == set(workloads.WORKLOADS)

"""The dctcsim benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports dctcsim from ``src/``.  With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer ones; the last stdout line is the JSON result.  The program's
processes inherit the environment, so the BLAS thread count is whatever it
sets (OPENBLAS_NUM_THREADS, for one); the run records the count in effect.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
# setup_s is the fastest of this many launches: interference from the host
# only adds time, while work moved into set-up slows every launch.
SETUP_SAMPLES = 15
# Children still running this long after the start are killed, so a run
# always ends within the three minutes it is allowed.
RUN_LIMIT_S = 170.0
P90_MIN_SAMPLES = 100
# Ops per window of the windowed end-to-end medians: a whole number of
# balanced input blocks in process (50 decode blocks of 3 ops; one
# clone-point block of 48 ops, every (n, m) pair once per polar stratum),
# and one child per window for the CLI workloads.
WINDOW_OPS = {"decode": 150, "clone-point": 48, "sweep-n2m2": 1, "sweep-n3m3": 1}
# Host-speed slices run before and after each CLI child: about 10% of the
# time of a sweep op.
HOST_SLICES_PER_SIDE = 12
# Units of every end-to-end figure a run prints.  Only the host-adjusted
# timings are gated, because the raw ones follow the host's speed (see
# hostspeed.py).  op_p90_ms and failed_frac are printed but not gated: the
# sweeps never reach 100 ops, and a failure count is carried by the
# result's "attempted" and "failed".
E2E_UNITS = {"adj_ops_per_s": "1/s", "adj_op_p50_ms": "ms", "ops_per_s": "1/s",
             "op_p50_ms": "ms", "op_p90_ms": "ms", "host_factor": "ratio",
             "failed_frac": "ratio", "peak_rss_mb": "MB", "setup_s": "s"}


class Runner:
    """Starts the program's processes with the run's environment and kills
    any that outlive the run's deadline."""

    def __init__(self, root: Path):
        self.env = dict(os.environ)
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(root / "src") + (os.pathsep + path if path else "")
        self.out_dir = root / ".perfbench"
        self.out_dir.mkdir(exist_ok=True)
        self.deadline = perf_counter() + RUN_LIMIT_S

    def expired(self) -> bool:
        return perf_counter() >= self.deadline

    def spans_path(self, workload: str, seed: int) -> Path:
        return self.out_dir / f"spans-{workload}-{seed}.jsonl"

    def _start(self, cmd: list[str], **kwargs) -> tuple[subprocess.Popen, threading.Timer]:
        proc = subprocess.Popen([sys.executable, *cmd], env=self.env, **kwargs)
        timer = threading.Timer(max(0.0, self.deadline - perf_counter()), proc.kill)
        timer.start()
        return proc, timer

    def worker(self, mode: str, workload: str, seed: int, seconds: float) -> tuple[float, list[dict]]:
        """Seconds from launch to the worker's ready line, and the JSON lines
        it printed after it."""
        spans = self.spans_path(workload, seed)
        cmd = [str(BENCH_DIR / "worker.py"), mode, workload, str(seed), str(seconds), str(spans)]
        t0 = perf_counter()
        proc, timer = self._start(cmd, stdout=subprocess.PIPE, text=True)
        try:
            ready = proc.stdout.readline()
            setup_s = perf_counter() - t0
            lines = proc.stdout.read().splitlines()
            proc.wait()
        finally:
            timer.cancel()
        if not ready.startswith('{"ready"') or proc.returncode != 0:
            raise RuntimeError(f"worker {mode} {workload} exited with status {proc.returncode}")
        return setup_s, [json.loads(line) for line in lines]

    def cli(self, argv: list[str], spans: Path | None = None) -> dict:
        """One fresh CLI process, traced through the shim when ``spans`` is
        given: its wall from launch to exit, exit code, stdout and peak RSS."""
        cmd = ["-m", "dctcsim.cli", *argv]
        if spans is not None:
            cmd = [str(BENCH_DIR / "cli_shim.py"), str(spans), *argv]
        with open(self.out_dir / "cli-stdout", "w+") as out:
            t0 = perf_counter()
            proc, timer = self._start(cmd, stdout=out)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall_s = perf_counter() - t0
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            stdout = out.read()
        return {"wall_s": wall_s, "returncode": proc.returncode, "stdout": stdout,
                "maxrss_kb": usage.ru_maxrss}


def source_ids(root: Path) -> dict:
    """The git rev where the root is a git checkout, and a SHA-256 over the
    program's sources, which names the code measured everywhere."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    rev = None
    if (root / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        rev = out.stdout.strip() or None
    return {"git_rev": rev, "src_sha256": digest.hexdigest()}


def run_cli_workload(runner: Runner, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import hostspeed
    import tracing
    import workloads

    argv = workloads.sweep_argv(workload)
    reference = workloads.reference_rows(workload)
    ops, host = [], []
    if trace:
        plain = runner.cli(argv)
        spans_path = runner.spans_path(workload, seed)
        traced = runner.cli(argv, spans_path)
        ops = [plain, traced]
        spans = tracing.load_spans(spans_path)
        traced_s = traced["wall_s"] - spans.pop()["dump_s"]
        metrics = tracing.layer_metrics(spans, traced_s, plain["wall_s"], traced_s)
    else:
        while sum(op["wall_s"] for op in ops) < seconds and not runner.expired():
            before = hostspeed.mean_slice_s(HOST_SLICES_PER_SIDE)
            ops.append(runner.cli(argv))
            host.append((before + hostspeed.mean_slice_s(HOST_SLICES_PER_SIDE)) / 2)
        metrics = {}
    failures = []
    for i, op in enumerate(ops):
        reason = workloads.check_sweep(workload, op["returncode"], op["stdout"], reference)
        if reason is not None:
            failures.append({"op": i, "input": argv, "reason": reason})
    return {
        "latencies": [op["wall_s"] for op in ops],
        "host_s": host,
        "failures": failures,
        "maxrss_kb": max(op["maxrss_kb"] for op in ops),
        "metrics": metrics,
    }


def windowed(
    lat: list[float], host: list[float], failed: set[int], size: int
) -> dict[str, float]:
    """Medians over consecutive windows of ``size`` ops: of each window's
    correct ops per second and median latency, of its host factor (mean
    host-speed slice time over ``hostspeed.REF_S``), and of both timings
    scaled to the reference host speed by that factor.  ``host`` holds a
    slice time per op, 0.0 for none; a window without slices takes those of
    the whole run.  A run shorter than one window is one window.  Medians
    over windows keep a slow or fast spell of the host that covers a
    minority of the run out of the result."""
    import hostspeed

    starts = range(0, max(len(lat) - size, 0) + 1, size)
    windows = [range(i, min(i + size, len(lat))) for i in starts]
    columns: dict[str, list[float]] = defaultdict(list)
    for w in windows:
        rate = sum(j not in failed for j in w) / sum(lat[j] for j in w)
        p50 = statistics.median(lat[j] for j in w)
        slices = [host[j] for j in w if host[j]] or [s for s in host if s]
        factor = statistics.fmean(slices) / hostspeed.REF_S
        columns["ops_per_s"].append(rate)
        columns["op_p50_s"].append(p50)
        columns["host_factor"].append(factor)
        columns["adj_ops_per_s"].append(rate * factor)
        columns["adj_op_p50_s"].append(p50 / factor)
    return {name: statistics.median(values) for name, values in columns.items()}


def end_to_end(result: dict, setup: list[float], window: int) -> dict[str, float | None]:
    lat = result["latencies"]
    med = windowed(lat, result["host_s"], {f["op"] for f in result["failures"]}, window)
    return {
        "adj_ops_per_s": med["adj_ops_per_s"],
        "adj_op_p50_ms": med["adj_op_p50_s"] * 1e3,
        "ops_per_s": med["ops_per_s"],
        "op_p50_ms": med["op_p50_s"] * 1e3,
        "host_factor": med["host_factor"],
        "op_p90_ms": (
            statistics.quantiles(lat, n=10)[-1] * 1e3 if len(lat) >= P90_MIN_SAMPLES else None
        ),
        "failed_frac": len(result["failures"]) / len(lat),
        "peak_rss_mb": result["maxrss_kb"] / 1024,
        "setup_s": min(setup),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "dctcsim" / "__init__.py").is_file():
        print("perfbench: src/dctcsim not found; run from the repository root", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(root / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    runner = Runner(root)
    setup, meta = [], None
    for _ in range(SETUP_SAMPLES):
        setup_s, lines = runner.worker("setup", args.workload, args.seed, args.seconds)
        setup.append(setup_s)
        meta = lines[0]["meta"]
    if args.workload in workloads.IN_PROCESS:
        mode = "trace" if args.trace else "run"
        result = runner.worker(mode, args.workload, args.seed, args.seconds)[1][-1]
    else:
        result = run_cli_workload(runner, args.workload, args.seed, args.seconds, bool(args.trace))

    meta.update(source_ids(root), seed=args.seed, workload=args.workload,
                trace=args.trace, samples=len(result["latencies"]))
    print(json.dumps({"meta": meta}))
    if args.trace:
        for name, value in result["metrics"].items():
            print(f"{args.workload} {name}: {value:.6g}")
    else:
        e2e = end_to_end(result, setup, WINDOW_OPS[args.workload])
        for name, value in e2e.items():
            shown = "omitted, fewer than 100 ops" if value is None else f"{value:.6g} {E2E_UNITS[name]}"
            print(f"{args.workload} {name}: {shown}")
    for failure in result["failures"][:10]:
        print(f"FAILED {json.dumps(failure)}")

    table, values = (spec["per_layer"], result["metrics"]) if args.trace else (spec["end_to_end"], e2e)
    failed = len(result["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(result["latencies"]),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in table},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One fresh interpreter doing the work of a benchmark run.

    python3 perfbench/worker.py setup|run|trace WORKLOAD SEED SECONDS SPANS_PATH

Every mode imports dctcsim (and, for the in-process workloads, runs one
untimed warm-up op), then prints ``{"ready": true}``, which ends the set-up
the parent times from launch, and a line with the run metadata.  ``setup`` stops there.
``run`` times ops of an in-process workload until their summed time reaches
SECONDS, with a host-speed slice after every HOST_EVERY_S of op time.
``trace`` runs a fixed op list untraced and then traced.  Both print one
JSON result line.  Output checks run outside the timed region.
"""

from __future__ import annotations

import ctypes
import itertools
import json
import math
import os
import platform
import resource
import sys
from time import perf_counter

# Fixed op counts of a traced pass, so its counts repeat exactly per seed.
TRACE_OPS = {"decode": 60, "clone-point": 24}
# Op time between host-speed slices: about 10% of a run goes to slices.
HOST_EVERY_S = 0.3


def blas_info() -> dict:
    """Vendor, version and thread count of the BLAS numpy loaded."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype, fn.argtypes = ctypes.c_int, []
                info["threads"] = fn()
                return info
    return info


def metadata() -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "cpus": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


def timed_ops(workload, ops, seconds=math.inf, tracer=None, host=None):
    """Run ``ops`` in order until their summed time reaches ``seconds``;
    return per-op latencies and failures.  When a list is given as
    ``host``, it gets one entry per op: the time of the host-speed slice run
    after that op, or 0.0 for none."""
    import hostspeed
    import workloads

    latencies, failures, busy, since_slice = [], [], 0.0, 0.0
    for i, args in enumerate(ops):
        if tracer is not None:
            tracer.begin_op()
        t0 = perf_counter()
        try:
            result = workloads.run_op(workload, args)
        except Exception as exc:  # a raising op is a failed op; the run goes on
            result, reason = None, f"{type(exc).__name__}: {exc}"
        latencies.append(perf_counter() - t0)
        busy += latencies[-1]
        since_slice += latencies[-1]
        if tracer is not None:
            tracer.end_op()
        if result is not None:
            reason = workloads.check(workload, args, result)
        if reason is not None:
            failures.append({"op": i, "input": args, "reason": reason})
        if host is not None:
            # The last op always gets a slice, so every run holds one.
            sliced = since_slice >= HOST_EVERY_S or busy >= seconds
            host.append(hostspeed.slice_s() if sliced else 0.0)
            since_slice = 0.0 if sliced else since_slice
        if busy >= seconds:
            break
    return latencies, failures


def main(argv: list[str]) -> int:
    mode, workload, seed, seconds, spans_path = argv
    seed, seconds = int(seed), float(seconds)
    import dctcsim  # noqa: F401  (set-up cost is the import)
    import workloads

    if workload in workloads.IN_PROCESS:
        workloads.run_op(workload, workloads.WARMUP[workload])
    else:
        import dctcsim.cli  # noqa: F401
    emit({"ready": True})
    emit({"meta": metadata()})
    if mode == "setup":
        return 0

    ops = workloads.inputs(workload, seed)
    host = []
    if mode == "run":
        latencies, failures = timed_ops(workload, ops, seconds, host=host)
        metrics = {}
    else:
        import tracing

        ops = list(itertools.islice(ops, TRACE_OPS[workload]))
        timed_ops(workload, ops)  # warms what the single warm-up op did not reach
        # Each op runs untraced and then traced, so drift in the host's speed
        # falls on both sides of trace_overhead_frac alike.
        tracer = tracing.Tracer()
        plain, traced, failures = [], [], []
        for args in ops:
            lat, fail = timed_ops(workload, [args])
            plain += lat
            failures += fail
            with tracing.installed(tracer):
                lat, fail = timed_ops(workload, [args], tracer=tracer)
            traced += lat
            failures += fail
        tracer.dump(spans_path)
        latencies = plain + traced
        metrics = tracing.layer_metrics(tracer.spans, sum(traced), sum(plain))
    emit({
        "latencies": latencies,
        "host_s": host,
        "failures": failures,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "metrics": metrics,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

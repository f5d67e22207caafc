"""Traced child of the CLI workloads.

    python3 perfbench/cli_shim.py SPANS_PATH SUBCOMMAND [ARGS...]

Installs the layer wrappers, runs ``dctcsim.cli.main`` on the arguments as
one op, writes the spans to SPANS_PATH followed by a ``{"dump_s": ...}`` line
with the seconds the writing took, and exits with main's status.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import tracing
from dctcsim import cli


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        tracer.begin_op()
        status = cli.main(cli_argv)
        tracer.end_op()
    t0 = perf_counter()
    tracer.dump(spans_path)
    with open(spans_path, "a") as fh:
        fh.write(json.dumps({"dump_s": perf_counter() - t0}) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

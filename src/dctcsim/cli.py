"""Command-line front end.

Subcommands cover the full pipeline: ``encode`` and ``decode`` for the
register-in-a-qubit scheme, ``uniqueness`` for the fixed-point uniqueness
verification, ``converge`` for iteration traces, ``clone`` and ``sweep`` for
cloning fidelity, and ``cost`` for two-qubit gate accounting.  Outputs are
JSON or CSV documents on stdout (or ``--out``).  Every pipeline is exact and
deterministic, so repeated runs with identical flags produce byte-identical
artifacts.  Exit status is 0 on success and 1 with a machine-readable error
JSON on any validation, convergence or ``--out`` write failure.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

import numpy as np

from .analysis import (
    UniquenessError,
    bloch_sweep,
    clone_fidelity,
    clone_result_to_json,
    convergence_trace,
    decode_experiment,
    decode_result_to_json,
    overlap_reports_to_json,
    sweep_rows_to_csv,
    verify_uniqueness,
)
from .circuits import apply_circuit, build_cloner, build_decoder, build_encoder, two_qubit_gate_count
from .engine import DEFAULT_MAX_ITERS, DEFAULT_TOL, ConvergenceError
from .qsim import PureState

__all__ = ["main", "parse_angle"]

_PI_FORM = re.compile(
    r"^(?P<sign>[+-]?)(?P<coef>\d+(?:\.\d*)?)?\*?pi(?:/(?P<den>\d+(?:\.\d*)?))?$",
    re.IGNORECASE,
)


def parse_angle(text: str) -> float:
    """Parse an angle in radians; fraction-of-pi strings like ``pi/4``,
    ``3pi/4`` or ``-pi/2`` are accepted alongside plain decimals."""
    text = text.strip()
    m = _PI_FORM.match(text)
    if m:
        coef = float(m.group("coef")) if m.group("coef") else 1.0
        if m.group("sign") == "-":
            coef = -coef
        den = float(m.group("den")) if m.group("den") else 1.0
        if den == 0:
            raise ValueError(f"zero denominator in angle {text!r}")
        return coef * np.pi / den
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"cannot parse angle {text!r}") from None


def _json_document(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _complex_pairs(amps) -> list[dict]:
    return [{"re": float(z.real), "im": float(z.imag)} for z in amps]


def _add_common(p: argparse.ArgumentParser, *, tol: bool = False) -> None:
    p.add_argument("--out", default=None, help="write the artifact to this path instead of stdout")
    if tol:
        p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="fixed-point residual tolerance")
        p.add_argument("--max-iters", type=int, default=DEFAULT_MAX_ITERS, help="iteration cap per solve")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dctcsim",
        description="simulator for circuits coupled to a self-consistent time-loop register",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="emit the code state for a register value")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("decode", help="run the decode pipeline for a register value")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    _add_common(p, tol=True)

    p = sub.add_parser("uniqueness", help="verify fixed-point uniqueness overlaps")
    p.add_argument("--n", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("converge", help="emit an iteration trace of CTC populations")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--iters", type=int, default=7)
    p.add_argument("--init", default="plus", help="mixed | plus | basis:<index>")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_common(p)

    p = sub.add_parser("clone", help="evaluate cloning fidelity for one input state")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--theta", type=parse_angle, required=True)
    p.add_argument("--phi", type=parse_angle, required=True)
    _add_common(p, tol=True)

    p = sub.add_parser("sweep", help="cloning fidelity over a Bloch-sphere grid (CSV)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--theta-steps", type=int, required=True)
    p.add_argument("--phi-steps", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_common(p, tol=True)

    p = sub.add_parser("cost", help="two-qubit gate count plus the formula it must match")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--clone", action="store_true")
    p.add_argument("--m", type=int, default=None)
    _add_common(p)

    return parser


def _validate(args: argparse.Namespace) -> None:
    checks: list[tuple[bool, str]] = []
    if hasattr(args, "n"):
        checks.append((args.n >= 1, f"--n must be >= 1, got {args.n}"))
    if getattr(args, "m", None) is not None:
        checks.append((args.m >= 1, f"--m must be >= 1, got {args.m}"))
    if hasattr(args, "k") and args.n >= 1:
        checks.append(
            (0 <= args.k < 2**args.n, f"--k must lie in [0, {2**args.n}), got {args.k}")
        )
    if hasattr(args, "tol"):
        checks.append((args.tol > 0, f"--tol must be positive, got {args.tol}"))
        checks.append((args.max_iters >= 1, f"--max-iters must be >= 1, got {args.max_iters}"))
    if hasattr(args, "iters"):
        checks.append((args.iters >= 1, f"--iters must be >= 1, got {args.iters}"))
    if hasattr(args, "theta_steps"):
        checks.append((args.theta_steps >= 2, "--theta-steps must be >= 2"))
        checks.append((args.phi_steps >= 2, "--phi-steps must be >= 2"))
    if hasattr(args, "theta"):
        checks.append((0.0 <= args.theta <= np.pi, f"--theta outside [0, pi]: {args.theta}"))
        checks.append((0.0 <= args.phi < 2 * np.pi, f"--phi outside [0, 2*pi): {args.phi}"))
    if getattr(args, "command", None) == "cost" and args.clone:
        checks.append((args.m is not None, "--clone requires --m"))
    for ok, message in checks:
        if not ok:
            raise ValueError(message)


def _run_encode(args) -> str:
    circuit = build_encoder(args.n, args.k)
    full = apply_circuit(circuit, PureState.basis(args.n + 1, 0))
    # Product state: encoding qubit (wire 0, the top bit) x control register at k.
    amps = [full.amplitudes[args.k], full.amplitudes[2**args.n + args.k]]
    return _json_document(
        {"n": args.n, "k": args.k, "amplitudes": _complex_pairs(amps)}
    )


def _run_decode(args) -> str:
    result = decode_experiment(args.n, args.k, args.tol, args.max_iters)
    return _json_document(decode_result_to_json(result))


def _run_uniqueness(args) -> str:
    reports = verify_uniqueness(args.n)
    return _json_document(overlap_reports_to_json(reports))


def _run_converge(args) -> str:
    table = convergence_trace(args.n, args.k, args.iters, args.init)
    if args.format == "json":
        return _json_document(
            {"n": args.n, "k": args.k, "init": args.init,
             "trace": [[float(x) for x in row] for row in table]}
        )
    width = 2**args.n
    header = "iteration," + ",".join(f"pop_{i:0{args.n}b}" for i in range(width))
    lines = [header]
    for t, row in enumerate(table):
        lines.append(str(t) + "," + ",".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def _run_clone(args) -> str:
    result = clone_fidelity(args.n, args.m, args.theta, args.phi, args.tol, args.max_iters)
    return _json_document(clone_result_to_json(result))


def _run_sweep(args) -> str:
    rows, failures = bloch_sweep(
        args.n, args.m, args.theta_steps, args.phi_steps, args.tol, args.max_iters
    )
    if failures:
        details = "; ".join(f"theta={t}, phi={p}: {r}" for t, p, r in failures)
        raise ConvergenceError(f"{len(failures)} grid point(s) failed: {details}")
    if args.format == "json":
        return _json_document(
            [
                {"theta": r.theta, "phi": r.phi, "fidelity": r.fidelity,
                 "fixed_points": r.fixed_points, "converged": r.converged}
                for r in rows
            ]
        )
    return sweep_rows_to_csv(rows)


def _run_cost(args) -> str:
    if args.clone:
        count = two_qubit_gate_count(build_cloner(args.n, args.m))
        formula = "5(n+m)-2"
    else:
        count = two_qubit_gate_count(build_decoder(args.n))
        formula = "5n-2"
    return _json_document({"two_qubit_gates": count, "formula": formula})


_RUNNERS = {
    "encode": _run_encode,
    "decode": _run_decode,
    "uniqueness": _run_uniqueness,
    "converge": _run_converge,
    "clone": _run_clone,
    "sweep": _run_sweep,
    "cost": _run_cost,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _validate(args)
        _emit(_RUNNERS[args.command](args), args.out)
    except (ValueError, TypeError, UniquenessError, ConvergenceError, OSError) as exc:
        sys.stdout.write(
            _json_document({"error": {"type": type(exc).__name__, "message": str(exc)}})
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

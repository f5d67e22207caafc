"""Command-line interface: artifact schemas, exit codes, determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest

from dctcsim.cli import main, parse_angle


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# --- angle parsing -----------------------------------------------------------


def test_parse_angle_forms():
    assert parse_angle("pi") == pytest.approx(np.pi)
    assert parse_angle("pi/4") == pytest.approx(np.pi / 4)
    assert parse_angle("3pi/4") == pytest.approx(3 * np.pi / 4)
    assert parse_angle("-pi/2") == pytest.approx(-np.pi / 2)
    assert parse_angle("2pi") == pytest.approx(2 * np.pi)
    assert parse_angle("0.5") == pytest.approx(0.5)
    assert parse_angle("1.5e-3") == pytest.approx(0.0015)
    with pytest.raises(ValueError):
        parse_angle("2tau")


# --- cost ---------------------------------------------------------------------


def test_cost_decoder(capsys):
    code, out = run_cli(capsys, "cost", "--n", "4")
    assert code == 0
    assert json.loads(out) == {"two_qubit_gates": 18, "formula": "5n-2"}


def test_cost_cloner(capsys):
    code, out = run_cli(capsys, "cost", "--n", "2", "--clone", "--m", "2")
    assert code == 0
    assert json.loads(out) == {"two_qubit_gates": 18, "formula": "5(n+m)-2"}


def test_cost_clone_requires_m(capsys):
    code, out = run_cli(capsys, "cost", "--n", "2", "--clone")
    assert code == 1
    assert "error" in json.loads(out)


# --- encode / decode --------------------------------------------------------------


def test_encode_plus_state(capsys):
    code, out = run_cli(capsys, "encode", "--n", "2", "--k", "1")
    assert code == 0
    doc = json.loads(out)
    amps = [complex(a["re"], a["im"]) for a in doc["amplitudes"]]
    assert abs(amps[0] - 1 / np.sqrt(2)) < 1e-12
    assert abs(amps[1] - 1 / np.sqrt(2)) < 1e-12


def test_decode_k3(capsys):
    code, out = run_cli(capsys, "decode", "--n", "2", "--k", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["decoded"] == 3
    assert doc["success_prob"] >= 1 - 1e-9
    assert doc["fixed_point"]["converged"] is True


def test_decode_n4_default_flags_reaches_the_fixed_point(capsys):
    code, out = run_cli(capsys, "decode", "--n", "4", "--k", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["fixed_point"]["converged"] is True
    assert doc["success_prob"] >= 1 - 1e-9


def test_decode_invalid_k(capsys):
    code, out = run_cli(capsys, "decode", "--n", "2", "--k", "4")
    assert code == 1
    doc = json.loads(out)
    assert doc["error"]["type"] == "ValueError"


def test_decode_invalid_n(capsys):
    code, out = run_cli(capsys, "decode", "--n", "0", "--k", "0")
    assert code == 1
    assert "error" in json.loads(out)


def test_unwritable_out_path_gives_error_json(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, out = run_cli(capsys, "decode", "--n", "2", "--k", "1", "--out", str(target))
    assert code == 1
    doc = json.loads(out)
    assert doc["error"]["type"] == "FileNotFoundError"
    assert str(target) in doc["error"]["message"]
    assert not target.exists()


# --- uniqueness ---------------------------------------------------------------------


def test_uniqueness_n2(capsys):
    code, out = run_cli(capsys, "uniqueness", "--n", "2")
    assert code == 0
    docs = json.loads(out)
    assert len(docs) == 16
    assert all(d["agree"] for d in docs)


def test_uniqueness_bad_width(capsys):
    code, out = run_cli(capsys, "uniqueness", "--n", "7")
    assert code == 1


# --- converge -------------------------------------------------------------------------


def test_converge_csv_shape(capsys):
    code, out = run_cli(capsys, "converge", "--n", "2", "--k", "0", "--iters", "7",
                        "--init", "plus")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "iteration,pop_00,pop_01,pop_10,pop_11"
    assert len(lines) == 9
    first = lines[1].split(",")
    assert first[0] == "0"
    assert all(float(x) == 0.25 for x in first[1:])
    last = lines[-1].split(",")
    assert float(last[1]) >= 0.8


def test_converge_json_format(capsys):
    code, out = run_cli(capsys, "converge", "--n", "2", "--k", "0", "--iters", "2",
                        "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 2 and len(doc["trace"]) == 3
    assert doc["trace"][0] == [0.25, 0.25, 0.25, 0.25]


def test_converge_rejects_registers_wider_than_eight(capsys):
    code, out = run_cli(capsys, "converge", "--n", "9", "--k", "0")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "ValueError"


def test_sweep_json_format(capsys):
    code, out = run_cli(capsys, "sweep", "--n", "1", "--m", "1",
                        "--theta-steps", "2", "--phi-steps", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc) == 4
    assert {"theta", "phi", "fidelity", "fixed_points", "converged"} == set(doc[0])


def test_converge_basis_init(capsys):
    code, out = run_cli(capsys, "converge", "--n", "2", "--k", "1", "--iters", "2",
                        "--init", "basis:1")
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert float(rows[0].split(",")[2]) == 1.0


# --- clone / sweep ----------------------------------------------------------------------


def test_clone_grid_state(capsys):
    code, out = run_cli(capsys, "clone", "--n", "2", "--m", "2",
                        "--theta", "pi/4", "--phi", "pi/2")
    assert code == 0
    doc = json.loads(out)
    assert doc["min_fidelity"] == pytest.approx(1.0, abs=1e-9)


def test_clone_slow_chain_with_default_flags(capsys):
    # Contracts at ~0.998 per step: iterating from the basis starts would
    # need ~2.5k steps, beyond the default iteration cap.
    code, out = run_cli(capsys, "clone", "--n", "3", "--m", "3",
                        "--theta", "7pi/8", "--phi", "0.4")
    assert code == 0
    doc = json.loads(out)
    assert doc["dropped_starts"] == 0
    assert len(doc["per_fixed_point"]) == 1


def test_clone_rejects_out_of_range_theta(capsys):
    code, out = run_cli(capsys, "clone", "--n", "2", "--m", "2",
                        "--theta", "3pi/2", "--phi", "0")
    assert code == 1


def test_sweep_small(capsys):
    code, out = run_cli(capsys, "sweep", "--n", "1", "--m", "1",
                        "--theta-steps", "3", "--phi-steps", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "theta,phi,fidelity,fixed_points,converged"
    assert len(lines) == 7


# --- output handling --------------------------------------------------------------------


def test_out_file(tmp_path, capsys):
    target = tmp_path / "cost.json"
    code, out = run_cli(capsys, "cost", "--n", "3", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text()) == {"two_qubit_gates": 13, "formula": "5n-2"}


def test_repeated_runs_byte_identical(capsys):
    _, first = run_cli(capsys, "decode", "--n", "2", "--k", "1")
    _, second = run_cli(capsys, "decode", "--n", "2", "--k", "1")
    assert first == second
    _, s1 = run_cli(capsys, "sweep", "--n", "1", "--m", "1",
                    "--theta-steps", "3", "--phi-steps", "2")
    _, s2 = run_cli(capsys, "sweep", "--n", "1", "--m", "1",
                    "--theta-steps", "3", "--phi-steps", "2")
    assert s1 == s2


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "dctcsim.cli", "cost", "--n", "6"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"two_qubit_gates": 28, "formula": "5n-2"}

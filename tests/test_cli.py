import itertools
import json
import os
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

import isingperm
from isingperm import ProtocolConfig, load_matrix, matrix_to_json, save_matrix
from isingperm.classical import glynn_kan_operator_expectation
from isingperm.cli import main


def write_matrix(path, arr):
    save_matrix(np.asarray(arr), str(path))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def reference_permanent(a):
    arr = np.asarray(a, dtype=np.complex128)
    n = arr.shape[0]
    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(n)):
        prod = 1.0 + 0.0j
        for row, col in enumerate(perm):
            prod *= arr[row, col]
        total += prod
    return total


def test_compute_ryser(tmp_path, capsys):
    path = write_matrix(tmp_path / "m.json", [[1.0, 2.0], [3.0, 4.0]])
    code, payload = run_json(capsys, ["compute", "--input", path, "--method", "ryser"])
    assert code == 0
    assert payload["value"] == pytest.approx([10.0, 0.0], abs=1e-12)
    assert payload["method"] == "ryser"


def test_compute_all_methods_agree(tmp_path, capsys):
    rng = np.random.default_rng(71)
    a = rng.standard_normal((4, 4))
    path = write_matrix(tmp_path / "m.json", a)
    expected = reference_permanent(a).real
    for method in ("naive", "ryser", "glynn", "glynn_kan", "gapp", "operator"):
        code, payload = run_json(
            capsys, ["compute", "--input", path, "--method", method])
        assert code == 0
        assert payload["value"][0] == pytest.approx(expected, rel=1e-9)


def test_compute_operator_prints_the_kernel_value(tmp_path, capsys):
    a = np.random.default_rng(72).standard_normal((5, 5))
    path = write_matrix(tmp_path / "m.json", a)
    code, payload = run_json(capsys, ["compute", "--input", path, "--method", "operator"])
    assert code == 0
    value = glynn_kan_operator_expectation(load_matrix(path)).value
    assert payload["value"] == [value.real, value.imag]
    expected = reference_permanent(a).real
    assert payload["value"][0] == pytest.approx(expected, rel=1e-12)


def test_compute_gurvits_accepts_samples(tmp_path, capsys):
    path = write_matrix(tmp_path / "m.json", np.eye(3) * 0.5)
    code, payload = run_json(capsys, [
        "compute", "--input", path, "--method", "gurvits",
        "--samples", "2000", "--seed", "4"])
    assert code == 0
    assert payload["samples_used"] == 2000
    assert payload["error_bound"] > 0.0


def test_compute_gurvits_overflowing_bound(tmp_path, capsys):
    # finite terms, but ||A||_2^300 overflows a float: the bound is reported as inf
    a = 0.5 * np.random.default_rng(53).standard_normal((300, 300))
    path = write_matrix(tmp_path / "m.json", a)
    code, payload = run_json(capsys, [
        "compute", "--input", path, "--method", "gurvits", "--samples", "64"])
    assert code == 0
    assert payload["error_bound"] is None  # inf, written as null
    assert all(np.isfinite(payload["value"]))


def test_compute_output_is_strict_json(tmp_path, capsys):
    # every term overflows: the value, bound and stderr are not finite
    path = write_matrix(tmp_path / "m.json", np.full((3, 3), 1e200))
    manifest = tmp_path / "manifest.json"
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["compute", "--input", path, "--method", "gurvits", "--samples", "64",
                     "--manifest", str(manifest)])
    assert code == 0

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    payload = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert payload["error_bound"] is None
    assert payload["extra"]["stderr"] is None
    json.loads(manifest.read_text(), parse_constant=reject)


def test_quantum_auto_dt_accuracy(tmp_path, capsys):
    rng = np.random.default_rng(73)
    a = rng.standard_normal((3, 3)) * 0.05
    path = write_matrix(tmp_path / "m.json", a)
    code, payload = run_json(capsys, [
        "quantum", "--input", path, "--richardson", "2", "--verbose"])
    assert code == 0
    truth = reference_permanent(a)
    got = complex(*payload["estimate"]["value"])
    assert abs(got - truth) / max(1e-12, abs(truth)) < 1e-3
    assert payload["dt"] > 0.0
    assert not payload["windows"]["exponential_error"]["empty"]
    assert payload["error_budget"]["total_bound"] >= 0.0
    assert len(payload["per_level"]) == 3


def test_quantum_richardson_budget_at_finest_dt(tmp_path, capsys):
    rng = np.random.default_rng(79)
    path = write_matrix(tmp_path / "m.json", rng.standard_normal((4, 4)) * 0.1)
    code, payload = run_json(capsys, ["quantum", "--input", path, "--richardson", "2"])
    assert code == 0
    assert payload["error_budget"]["fd_bound"] == payload["estimate"]["error_bound"]


def test_quantum_explicit_dt_and_overlaps(tmp_path, capsys):
    a = np.diag([0.7, -0.4])
    path = write_matrix(tmp_path / "m.json", a)
    code, payload = run_json(capsys, [
        "quantum", "--input", path, "--dt", "0.5", "--verbose"])
    assert code == 0
    assert payload["dt"] == 0.5
    assert len(payload["overlaps"]) == payload["estimate"]["wall_terms"]
    got = complex(*payload["estimate"]["value"])
    assert abs(got - (-0.28)) <= payload["estimate"]["error_bound"] + 1e-12


@pytest.mark.parametrize("richardson, present, absent",
                         [("0", "overlaps", "per_level"), ("2", "per_level", "overlaps")])
def test_quantum_verbose_emits_only_filled_keys(tmp_path, capsys, richardson, present, absent):
    # a single-level run has per-term overlaps and no levels; a Richardson
    # run has levels and does not keep each level's overlaps
    path = write_matrix(tmp_path / "m.json", np.diag([0.3, -0.2, 0.25]))
    code, payload = run_json(capsys, [
        "quantum", "--input", path, "--richardson", richardson, "--verbose"])
    assert code == 0
    assert payload[present]
    assert absent not in payload


def test_quantum_shots_deterministic(tmp_path, capsys):
    path = write_matrix(tmp_path / "m.json", np.diag([0.3, 0.2]))
    argv = ["quantum", "--input", path, "--dt", "0.4", "--mode", "shots",
            "--shots", "512", "--seed", "9"]
    _, p1 = run_json(capsys, argv)
    _, p2 = run_json(capsys, argv)
    assert p1["estimate"]["value"] == p2["estimate"]["value"]
    assert p1["estimate"]["samples_used"] == 512 * p1["estimate"]["wall_terms"]


def test_exit_code_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "rows": [[1, 2], [3]]}')
    assert main(["compute", "--input", str(bad), "--method", "ryser"]) == 1
    assert main(["compute", "--input", str(tmp_path / "missing.json"),
                 "--method", "ryser"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["compute", "--input", "{dir}", "--method", "ryser"],
    ["generate", "--n", "2", "--output", "{dir}"],
    ["quantum", "--input", "{m}", "--manifest", "{dir}"],
], ids=["compute-input", "generate-output", "quantum-manifest"])
def test_unusable_file_is_an_input_error(tmp_path, argv):
    # a fresh process, so that an uncaught error would show its traceback
    m = write_matrix(tmp_path / "m.json", np.diag([0.3, 0.2]))
    argv = [a.format(dir=tmp_path, m=m) for a in argv]
    src = os.path.dirname(os.path.dirname(os.path.abspath(isingperm.__file__)))
    proc = subprocess.run([sys.executable, "-m", "isingperm.cli", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == ""  # a failed run prints no result
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_exit_code_dimension_cap(tmp_path, capsys):
    path = write_matrix(tmp_path / "big.json", np.eye(11))
    assert main(["compute", "--input", path, "--method", "naive"]) == 2
    capsys.readouterr()


def test_exit_code_bad_dt(tmp_path, capsys):
    path = write_matrix(tmp_path / "m.json", np.eye(3))
    assert main(["quantum", "--input", path, "--dt", "10.0"]) == 3
    capsys.readouterr()
    # --force overrides
    assert main(["quantum", "--input", path, "--dt", "10.0", "--force"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("extra", [[], ["--mode", "shots"], ["--force"], ["--richardson", "1"]])
@pytest.mark.parametrize("dt", ["1e-160", "1e-300"])
def test_quantum_tiny_dt_is_out_of_range(tmp_path, capsys, dt, extra):
    # the 1/(N! dt^N) weights overflow: exit 3 with one error line
    path = write_matrix(tmp_path / "m.json", np.diag([0.3, 0.2, 0.25]))
    assert main(["quantum", "--input", path, "--dt", dt] + extra) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: dt = {dt} is too small")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("extra", [["--dt", "nan"], ["--dt", "inf", "--force"],
                                   ["--dt", "abc"], ["--richardson", "5"]])
def test_quantum_rejects_bad_config(tmp_path, capsys, extra):
    # a bad --dt or level count is an input error: exit 1, one error line
    path = write_matrix(tmp_path / "m.json", np.diag([0.3, 0.2]))
    assert main(["quantum", "--input", path] + extra) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "matrix entries" not in captured.err


@pytest.mark.parametrize("argv", [
    ["generate", "--n", "3", "--seed", "-1", "--output", "{dir}/g.json"],
    ["compute", "--input", "{m}", "--method", "gurvits", "--seed", "-1"],
    ["quantum", "--input", "{m}", "--mode", "shots", "--seed", "-1"],
    ["gaussian-stat", "--n", "3", "--seed", "-1"],
    ["advantage", "--n-min", "2", "--n-max", "3", "--ensemble", "10", "-9"],
    ["advantage", "--n-min", "2", "--n-max", "3", "--ensemble", "abc", "1"],
], ids=["generate", "gurvits", "shots", "gaussian-stat", "ensemble-negative",
        "ensemble-not-int"])
def test_bad_seed_is_an_input_error(tmp_path, capsys, argv):
    # numpy rejects a negative seed with a ValueError: the CLI must catch it
    # first and exit 1 with one error line
    path = write_matrix(tmp_path / "m.json", np.diag([0.3, 0.2]))
    argv = [a.format(dir=tmp_path, m=path) for a in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert not (tmp_path / "g.json").exists()


def test_resources_csv_and_json(capsys):
    assert main(["resources", "--n", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("n,")
    assert out[1].startswith("3,")
    assert out[2].startswith("# note:")
    code, payload = run_json(capsys, ["resources", "--n", "3", "--format", "json"])
    assert code == 0
    assert payload["qubits"] == 7
    assert payload["cnots_measured"] == 36


def test_advantage_csv(capsys):
    assert main(["advantage", "--n-min", "7", "--n-max", "8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "N,Q"
    n7 = float(lines[1].split(",")[1])
    n8 = float(lines[2].split(",")[1])
    assert n7 == 0.0
    assert n8 > 0.0


def test_advantage_ensemble_columns(capsys):
    assert main(["advantage", "--n-min", "3", "--n-max", "3",
                 "--ensemble", "50", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split(",")[2:] == [
        "frac_case1", "frac_case2", "frac_case3", "frac_no_advantage"]
    fracs = [float(v) for v in lines[1].split(",")[2:]]
    assert sum(fracs) == pytest.approx(1.0, abs=1e-9)


def test_advantage_ensemble_too_large_is_an_input_error(capsys):
    # TRIALS x N^2 beyond np.intp: one error line, not a numpy traceback
    assert main(["advantage", "--n-min", "2", "--n-max", "3",
                 "--ensemble", "99999999999999999999999", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("block_bytes", [None, 1 << 14])
def test_advantage_ensemble_rows_equal_one_shot_draw(capsys, monkeypatch, block_bytes):
    # the ensemble is drawn in batches; its rows must equal the labels of
    # one (TRIALS, N, N) draw per N (16 KiB: 4 to 42 matrices per batch)
    from isingperm import matrices
    from isingperm.analysis import advantage_labels

    if block_bytes is not None:
        monkeypatch.setattr(matrices, "_BLOCK_BYTES", block_bytes)
    assert main(["advantage", "--n-min", "4", "--n-max", "12", "--ensemble", "500", "7"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    labels = ("case1", "case2", "case3", "no_advantage")
    for n, row in zip(range(4, 13), rows):
        draw = np.random.default_rng(7 + n).standard_normal((500, n, n))
        found = advantage_labels(draw.astype(np.complex128))
        assert row.split(",")[2:] == [f"{found.count(lab) / 500:.6f}" for lab in labels]


def test_generate_round_trip(tmp_path, capsys):
    out = tmp_path / "gen.json"
    assert main(["generate", "--n", "3", "--seed", "5", "--scale", "0.25",
                 "--output", str(out)]) == 0
    capsys.readouterr()
    m = load_matrix(str(out))
    assert m.n == 3
    assert m.is_real
    obj = matrix_to_json(m)
    assert obj["n"] == 3


@pytest.mark.parametrize("n", ["0", "-1"])
def test_generate_rejects_nonpositive_n(tmp_path, capsys, n):
    assert main(["generate", "--n", n, "--output", str(tmp_path / "gen.json")]) == 1
    assert capsys.readouterr().err.startswith("error: n must be >= 1")
    assert not (tmp_path / "gen.json").exists()


def test_manifest_written(tmp_path, capsys):
    path = write_matrix(tmp_path / "m.json", np.diag([0.3, 0.2]))
    manifest = tmp_path / "manifest.json"
    assert main(["quantum", "--input", path, "--dt", "0.4",
                 "--manifest", str(manifest)]) == 0
    capsys.readouterr()
    data = json.loads(manifest.read_text())
    assert data["command"] == "quantum"
    assert data["argv"] == ["quantum", "--input", path, "--dt", "0.4",
                            "--manifest", str(manifest)]
    assert data["config"]["dt"] == 0.4
    assert data["config"]["allow_dt_override"] is False
    assert data["versions"].startswith("isingperm ")
    # a forced run records that dt was forced, with every config field
    assert main(["quantum", "--input", path, "--dt", "10.0", "--force",
                 "--manifest", str(manifest)]) == 0
    capsys.readouterr()
    config = json.loads(manifest.read_text())["config"]
    assert set(config) == {f.name for f in fields(ProtocolConfig)}
    assert config["dt"] == 10.0 and config["allow_dt_override"] is True


_MANIFEST_ARGV = {
    "compute": ["--input", "{m}", "--method", "ryser"],
    "quantum": ["--input", "{m}", "--dt", "0.4"],
    "resources": ["--n", "2"],
    "advantage": ["--n-min", "2", "--n-max", "3"],
    "generate": ["--n", "2", "--output", "{out}"],
    "gaussian-stat": ["--n", "3", "--trials", "100"],
}


@pytest.mark.parametrize("command", sorted(_MANIFEST_ARGV))
def test_every_command_writes_its_manifest(tmp_path, capsys, command):
    m = write_matrix(tmp_path / "m.json", np.diag([0.3, 0.2]))
    manifest = tmp_path / "manifest.json"
    argv = [command] + [a.format(m=m, out=tmp_path / "out.json") for a in _MANIFEST_ARGV[command]]
    assert main(argv + ["--manifest", str(manifest)]) == 0
    capsys.readouterr()
    assert json.loads(manifest.read_text())["command"] == command


def test_gaussian_stat_payload(capsys):
    code, payload = run_json(capsys, [
        "gaussian-stat", "--n", "5", "--trials", "2000", "--seed", "2"])
    assert code == 0
    assert payload["relative_deviation"] < 0.05


@pytest.mark.parametrize("n", ["0", "-2"])
def test_gaussian_stat_rejects_nonpositive_n(capsys, n):
    assert main(["gaussian-stat", "--n", n, "--trials", "100"]) == 1
    assert capsys.readouterr().err.startswith("error: n must be >= 1")


def test_table_format(capsys):
    assert main(["advantage", "--n-min", "2", "--n-max", "2"]) == 0
    capsys.readouterr()

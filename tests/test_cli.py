import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import write_matrix
from kantorovich.cli import (parse_matrix_json, parse_matrix_text,
                             read_matrix_file, run)

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(*args, timeout=120):
    return subprocess.run([sys.executable, "-m", "kantorovich", *args],
                          capture_output=True, text=True, timeout=timeout)


@pytest.fixture
def diag16(tmp_path):
    p = tmp_path / "diag16.txt"
    p.write_text("2\n1 0\n0 6\n")
    return str(p)


@pytest.fixture
def identity3(tmp_path):
    p = tmp_path / "eye3.txt"
    p.write_text("3\n1 0 0\n0 1 0\n0 0 1\n")
    return str(p)


@pytest.fixture
def gap3(tmp_path):
    p = tmp_path / "gap3.txt"
    p.write_text("3\n1 0 0\n0 2 0\n0 0 4.5\n")
    return str(p)


# --- matrix file formats -----------------------------------------------------

def test_plain_round_trip(tmp_path, rng):
    a = rng.standard_normal((4, 4))
    a = a + a.T
    path = str(tmp_path / "m.txt")
    write_matrix(path, a)
    np.testing.assert_array_equal(read_matrix_file(path), a)


def test_json_round_trip(tmp_path, rng):
    a = rng.standard_normal((3, 3))
    a = a + a.T
    path = str(tmp_path / "m.json")
    write_matrix(path, a, fmt="json")
    np.testing.assert_array_equal(read_matrix_file(path), a)
    obj = json.loads(open(path).read())
    assert obj["n"] == 3
    assert len(obj["entries"]) == 9


def test_json_detected_without_suffix(tmp_path):
    p = tmp_path / "m.dat"
    p.write_text('{"n": 2, "entries": [1, 0, 0, 6]}')
    np.testing.assert_array_equal(read_matrix_file(str(p)),
                                  np.diag([1.0, 6.0]))


def test_plain_parse_errors():
    with pytest.raises(ValueError):
        parse_matrix_text("")
    with pytest.raises(ValueError):
        parse_matrix_text("2\n1 0\n")  # missing row
    with pytest.raises(ValueError):
        parse_matrix_text("2\n1 0 0\n0 1\n")  # ragged row
    with pytest.raises(ValueError):
        parse_matrix_text("x\n1\n")
    with pytest.raises(ValueError):
        parse_matrix_text("2\n1 a\n0 1\n")


def test_json_parse_errors():
    with pytest.raises(ValueError):
        parse_matrix_json('{"entries": [1]}')
    with pytest.raises(ValueError):
        parse_matrix_json('{"n": 2, "entries": [1, 2, 3]}')


# --- analyze -----------------------------------------------------------------

def test_analyze_not_convex(diag16):
    res = run_cli("analyze", diag16)
    assert res.returncode == 1
    assert "status: NotConvex" in res.stdout
    assert "certificate: necessary-violated" in res.stdout
    assert "5.82842712474619" in res.stdout


def test_analyze_convex(identity3):
    res = run_cli("analyze", identity3)
    assert res.returncode == 0
    assert "status: Convex" in res.stdout


def test_analyze_gap_matrix(gap3):
    res = run_cli("analyze", gap3, "--samples-3d", "20000")
    assert res.returncode in (1, 2)
    assert "status: Convex" not in res.stdout


def test_analyze_json_format(diag16):
    res = run_cli("analyze", diag16, "--format", "json")
    assert res.returncode == 1
    out = json.loads(res.stdout)
    assert out["status"] == "NotConvex"
    assert out["kappa"] == 6.0
    assert out["witness"] is not None
    assert out["thresholds"]["necessary"] == pytest.approx(5.82842712474619)


def test_readme_analyze_demo(tmp_path):
    """README's ``analyze demo.txt`` session is reproduced byte for byte."""
    text = README.read_text(encoding="utf-8")
    m = re.search(r"\$ cat demo\.txt\n(.*?)\$ kantorovich analyze demo\.txt\n"
                  r"(.*?)\$ echo \$\?\n(\d+)\n", text, re.S)
    assert m, "README lost its analyze demo.txt block"
    matrix, stdout, code = m.groups()
    demo = tmp_path / "demo.txt"
    demo.write_text(matrix, encoding="utf-8")
    res = run_cli("analyze", str(demo))
    assert res.stdout == stdout
    assert res.returncode == int(code) == 1


def test_analyze_missing_file():
    res = run_cli("analyze", "/nonexistent/m.txt")
    assert res.returncode == 64
    assert "error" in res.stderr


def test_analyze_invalid_matrix(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("2\n1 2\n2 1\n")  # indefinite
    res = run_cli("analyze", str(p))
    assert res.returncode == 64


def test_analyze_asymmetric_matrix(tmp_path):
    p = tmp_path / "asym.txt"
    p.write_text("2\n1 0.5\n0.2 1\n")
    res = run_cli("analyze", str(p))
    assert res.returncode == 64


def test_unknown_command_exits_64():
    res = run_cli("frobnicate")
    assert res.returncode == 64


def test_unknown_flag_exits_64(diag16):
    res = run_cli("analyze", diag16, "--no-such-flag")
    assert res.returncode == 64


# --- lemmas ------------------------------------------------------------------

def test_lemmas_coarse_pass(tmp_path):
    csv_path = str(tmp_path / "cells.csv")
    res = run_cli("lemmas", "--grid", "5", "--csv", csv_path)
    assert res.returncode == 0
    assert "overall: PASS" in res.stdout
    lines = open(csv_path).read().strip().split("\n")
    assert lines[0] == "grid_id,coords,min_value,tolerance,passed"
    assert len(lines) == 13  # 5 box + 3 robust + 4 detm
    assert all(line.endswith(",true") for line in lines[1:])


def test_lemmas_csv_deterministic(tmp_path):
    runs = []
    for k in range(2):
        p = str(tmp_path / f"r{k}.csv")
        res = run_cli("lemmas", "--grid", "4", "--csv", p)
        assert res.returncode == 0
        runs.append(open(p, "rb").read())
    assert runs[0] == runs[1]


def test_lemmas_fails_outside_box():
    res = run_cli("lemmas", "--grid", "5", "--omega-max", "6",
                  "--format", "csv")
    assert res.returncode == 1
    assert ",false" in res.stdout


def test_lemmas_grid_zero_exits_64():
    res = run_cli("lemmas", "--grid", "0")
    assert res.returncode == 64


@pytest.mark.parametrize("count", ["0", "-3", "1"])
def test_lemmas_alpha_grid_below_two_exits_64(count):
    res = run_cli("lemmas", "--box-grid", "3", "--omega-grid", "3",
                  "--ab-grid", "3", "--alpha-grid", count)
    assert res.returncode == 64
    assert "--alpha-grid needs at least 2 nodes" in res.stderr
    assert res.stdout == ""


def test_lemmas_csv_format_stdout():
    res = run_cli("lemmas", "--grid", "3", "--format", "csv")
    assert res.returncode == 0
    assert res.stdout.startswith("grid_id,coords,min_value,tolerance,passed")


# The lemmas CSV contract, byte for byte: the worst cells and values that the
# scans of docs/formats.md report on these grids.
LEMMAS_GOLDEN = {
    (): (0, """\
grid_id,coords,min_value,tolerance,passed
box_chi1,2.0;4.0;4.0,0.0,1e-09,true
box_chi2,4.0;4.0;2.0,0.0,1e-09,true
box_chi3,4.0;4.0;2.0,0.0,1e-09,true
box_chi4,4.0;2.0;4.0,0.0,1e-09,true
box_psi,2.0;2.0;4.0,4.0,1e-09,true
robust_M,4.0;4.0;2.0;-0.25;-0.75,0.894668525631453,1e-09,true
robust_P,4.0;2.0;4.0;-0.25;-0.75,0.894668525631453,1e-09,true
robust_Q,2.0;4.0;4.0;-0.25;-0.75,0.894668525631453,1e-09,true
detm_d2,4.0;4.0;2.0;0.0;0.0,0.0,1e-09,true
detm_d4,4.0;2.0;4.0;-1.0;0.0,0.0,1e-09,true
detm_min_at_zero,2.0;2.0;2.0;-1.0;0.0,0.0,1e-09,true
detm_alpha0,2.0;2.0;2.0;0.0,3.0,1e-09,true
"""),
    ("--grid", "4"): (0, """\
grid_id,coords,min_value,tolerance,passed
box_chi1,2.0;4.0;4.0,0.0,1e-09,true
box_chi2,4.0;4.0;2.0,0.0,1e-09,true
box_chi3,4.0;4.0;2.0,0.0,1e-09,true
box_chi4,4.0;2.0;4.0,0.0,1e-09,true
box_psi,2.0;2.0;4.0,4.0,1e-09,true
robust_M,4.0;4.0;2.0;-0.33333333333333337;-1.0,1.061041575745349,1e-09,true
robust_P,4.0;2.0;4.0;-0.33333333333333337;-1.0,1.061041575745349,1e-09,true
robust_Q,2.0;4.0;4.0;-0.33333333333333337;-1.0,1.061041575745349,1e-09,true
detm_d2,4.0;2.0;2.0;-0.33333333333333337;0.33333333333333326,16.740740740740737,1e-09,true
detm_d4,4.0;2.0;2.0;-0.33333333333333337;0.33333333333333326,351.9999999999999,1e-09,true
detm_min_at_zero,4.0;4.0;2.0;-0.33333333333333337;0.33333333333333326,0.39094650205761283,1e-09,true
detm_alpha0,2.0;2.0;2.0;0.33333333333333326,4.11522633744856,1e-09,true
"""),
    ("--grid", "9"): (0, """\
grid_id,coords,min_value,tolerance,passed
box_chi1,2.0;4.0;4.0,0.0,1e-09,true
box_chi2,4.0;4.0;2.0,0.0,1e-09,true
box_chi3,4.0;4.0;2.0,0.0,1e-09,true
box_chi4,4.0;2.0;4.0,0.0,1e-09,true
box_psi,2.0;2.0;4.0,4.0,1e-09,true
robust_M,4.0;4.0;2.0;-0.25;-0.75,0.894668525631453,1e-09,true
robust_P,4.0;2.0;4.0;-0.25;-0.75,0.894668525631453,1e-09,true
robust_Q,2.0;4.0;4.0;-0.25;-0.75,0.894668525631453,1e-09,true
detm_d2,4.0;4.0;2.0;0.0;0.0,0.0,1e-09,true
detm_d4,4.0;2.0;4.0;-1.0;0.0,0.0,1e-09,true
detm_min_at_zero,2.0;2.0;2.0;-1.0;0.0,0.0,1e-09,true
detm_alpha0,2.0;2.0;2.0;0.0,3.0,1e-09,true
"""),
    ("--omega-max", "5.9", "--grid", "11"): (1, """\
grid_id,coords,min_value,tolerance,passed
box_chi1,2.0;5.9;5.9,-55.48950000000001,1e-09,false
box_chi2,5.9;5.9;2.0,-55.48950000000001,1e-09,false
box_chi3,5.9;5.9;2.0,-55.48950000000001,1e-09,false
box_chi4,5.9;2.0;5.9,-55.48950000000001,1e-09,false
box_psi,2.0;2.0;5.9,-7.210000000000001,1e-09,false
robust_M,3.56;5.9;5.9;0.0;-1.0,0.049999999999998046,1e-09,true
robust_P,3.56;5.9;5.9;0.0;-1.0,0.049999999999998046,1e-09,true
robust_Q,5.9;3.56;5.9;0.0;-1.0,0.049999999999998046,1e-09,true
detm_d2,5.9;2.0;5.9;-1.0;-0.8,-246.43007999999998,1e-09,false
detm_d4,5.9;2.0;5.9;-1.0;0.0,-1997.622,1e-09,false
detm_min_at_zero,5.9;5.9;2.0;0.0;-1.0,-23.767125,1e-09,false
detm_alpha0,2.0;5.9;2.0;-1.0,1.1849999999999987,1e-09,true
"""),
}


@pytest.mark.parametrize("flags", list(LEMMAS_GOLDEN), ids=lambda f: " ".join(f) or "defaults")
def test_lemmas_csv_golden(flags):
    code, text = LEMMAS_GOLDEN[flags]
    res = run_cli("lemmas", *flags, "--format", "csv")
    assert res.returncode == code
    assert res.stdout == text
    assert res.stderr == ""


@pytest.mark.parametrize("omega_max", ["1e155", "1e308"])
def test_lemmas_overflow_fails_without_traceback(omega_max):
    # huge nodes overflow to inf and NaN: every box and detm row names its
    # first NaN (or -inf) cell and fails, and numpy prints no warning.  The
    # entries of m stay finite, and LAPACK scales them: the robust rows read
    # lambda_min of m at omega (W, W, 2), alpha = beta = -1, which is
    # W (3 - sqrt(33)) / 4 to within rounding.
    res = run_cli("lemmas", "--omega-max", omega_max, "--grid", "3",
                  "--format", "csv")
    assert res.returncode == 1
    assert res.stderr == ""
    robust = {"1e155": "-6.861406616345074e+154",
              "1e308": "-6.861406616345074e+307"}[omega_max]
    for line in res.stdout.splitlines()[1:]:
        grid_id, coords, value, _, passed = line.split(",")
        assert coords and passed == "false", line
        if grid_id.startswith("robust_"):
            assert value == robust, line
        else:
            assert value in ("nan", "-inf"), line
    human = run_cli("lemmas", "--omega-max", omega_max, "--grid", "3")
    assert human.returncode == 1 and human.stderr == ""
    assert human.stdout.endswith("overall: FAIL\n")


def test_lemmas_infinite_span_exits_64():
    # each bound is finite but hi - lo overflows: linspace would make every
    # node NaN, so the range is rejected before any scan
    res = run_cli("lemmas", "--omega-min=-1e308", "--omega-max", "1e308",
                  "--grid", "3", "--format", "csv")
    assert res.returncode == 64
    assert res.stdout == ""
    assert res.stderr.startswith("error:") and "span" in res.stderr
    assert "--omega-min" in res.stderr and "--omega-max" in res.stderr
    assert "Traceback" not in res.stderr


# --- boundary ----------------------------------------------------------------

def test_boundary_two_point_2d(tmp_path):
    csv_path = str(tmp_path / "sweep.csv")
    res = run_cli("boundary", "--families", "two_point", "--dims", "2",
                  "--tol", "1e-2", "--samples-2d", "1024", "--csv", csv_path)
    assert res.returncode == 0
    lines = open(csv_path).read().strip().split("\n")
    assert lines[0] == "family,dim,kappa_lo,kappa_hi,tol,samples,seed,wall_ms"
    parts = lines[1].split(",")
    lo, hi = float(parts[2]), float(parts[3])
    assert lo <= 5.8284271247461903 <= hi


def test_boundary_deterministic_modulo_wall(tmp_path):
    outs = []
    for k in range(2):
        p = str(tmp_path / f"s{k}.csv")
        res = run_cli("boundary", "--families", "two_point", "--dims", "2",
                      "--tol", "5e-2", "--samples-2d", "512", "--csv", p)
        assert res.returncode == 0
        rows = [line.split(",")[:-1]  # drop wall_ms
                for line in open(p).read().strip().split("\n")]
        outs.append(rows)
    assert outs[0] == outs[1]


def test_boundary_bad_family():
    res = run_cli("boundary", "--families", "nope", "--dims", "2")
    assert res.returncode == 64


def test_boundary_nan_tol_exits_64():
    res = run_cli("boundary", "--families", "two_point", "--dims", "2",
                  "--tol", "nan", "--samples-2d", "256")
    assert res.returncode == 64


def test_boundary_tol_below_float_spacing_exits_64():
    # Bisection cannot narrow adjacent floats below 8.0 to 1e-300; it used
    # to loop forever.
    res = run_cli("boundary", "--families", "two_point", "--dims", "2",
                  "--tol", "1e-300", "--samples-2d", "8", timeout=60)
    assert res.returncode == 64
    assert "float spacing" in res.stderr
    assert res.stdout == ""


def test_boundary_bracket_beyond_spd_exits_64():
    # kappa = 1e12 is not a valid SPD condition number; the bracket is a
    # usage error before any search, not a matrix error.
    res = run_cli("boundary", "--families", "two_point", "--dims", "2",
                  "--tol", "1e-2", "--bracket-hi", "1e12")
    assert res.returncode == 64
    assert "bracket" in res.stderr
    assert "Traceback" not in res.stderr and res.stdout == ""


def test_boundary_unsupported_dim_exits_64_before_any_search(monkeypatch,
                                                              capsys):
    # dim 9 is rejected while the families are built, so the dim-4 rows
    # before it are never searched.
    monkeypatch.setattr("kantorovich.boundary.classify",
                        lambda *a: pytest.fail("searched for a witness"))
    code = run(["boundary", "--dims", "4,9",
                "--families", "two_point,geometric,pinned_pair"])
    out, err = capsys.readouterr()
    assert code == 64
    assert out == ""
    assert err.startswith("error:") and "dim 9" in err
    assert "Traceback" not in err


def test_boundary_bad_bracket_exits_70():
    res = run_cli("boundary", "--families", "two_point", "--dims", "2",
                  "--tol", "1e-2", "--samples-2d", "256",
                  "--bracket-lo", "1.0", "--bracket-hi", "2.0")
    assert res.returncode == 70


# --- lmi ---------------------------------------------------------------------

def test_lmi_pass_boundary():
    res = run_cli("lmi", "--dim", "2", "--delta", "6", "--samples-2d", "4096")
    assert res.returncode == 0
    assert "passed: true" in res.stdout


def test_lmi_fail():
    res = run_cli("lmi", "--dim", "2", "--delta", "6.2",
                  "--samples-2d", "1024")
    assert res.returncode == 1
    assert "passed: false" in res.stdout


def test_lmi_json():
    res = run_cli("lmi", "--dim", "3", "--delta", "2.5,3.0,2.8",
                  "--samples-3d", "5000", "--format", "json")
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["report"]["passed"] is True


def test_lmi_wrong_count_exits_64():
    res = run_cli("lmi", "--dim", "3", "--delta", "2.5,3.0")
    assert res.returncode == 64


def test_lmi_below_two_exits_64():
    res = run_cli("lmi", "--dim", "2", "--delta", "1.5")
    assert res.returncode == 64


def test_lmi_dim_above_max_exits_64():
    res = run_cli("lmi", "--dim", "9", "--delta", ",".join(["2.5"] * 36),
                  "--samples-nd", "16")
    assert res.returncode == 64
    assert "--dim" in res.stderr


def test_lmi_malformed_exits_64():
    res = run_cli("lmi", "--dim", "2", "--delta", "abc")
    assert res.returncode == 64



@pytest.fixture
def gap4(tmp_path):
    p = tmp_path / "gap4.txt"
    write_matrix(str(p), np.diag([1.0, 1.5, 3.0, 5.0]))
    return str(p)


@pytest.mark.parametrize("argv", [
    ("analyze", "{diag16}"),
    ("analyze", "{gap4}", "--samples-nd", "16"),
    ("lmi", "--dim", "2", "--delta", "2.5"),
    ("boundary", "--dims", "2", "--families", "two_point"),
    ("hessian-check", "{diag16}"),
], ids=["analyze-dim2", "analyze-dim4", "lmi", "boundary", "hessian-check"])
def test_negative_seed_exits_64(diag16, gap4, argv):
    args = [a.format(diag16=diag16, gap4=gap4) for a in argv]
    res = run_cli(*args, "--seed", "-1")
    assert res.returncode == 64
    assert "seed must be >= 0" in res.stderr
    assert res.stdout == ""

# --- hessian-check / kantorovich-bound ----------------------------------------

def test_hessian_check(tmp_path, rng):
    a = rng.standard_normal((3, 3))
    spd = a @ a.T + 3.0 * np.eye(3)
    p = str(tmp_path / "h.txt")
    write_matrix(p, spd)
    res = run_cli("hessian-check", p)
    assert res.returncode == 0
    assert "ok: true" in res.stdout


@pytest.mark.parametrize("count", ["0", "-1"])
def test_hessian_check_no_points_exits_64(diag16, count):
    res = run_cli("hessian-check", diag16, "--points", count)
    assert res.returncode == 64
    assert "--points" in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("step", ["0", "-1e-5", "nan", "inf"])
def test_hessian_check_bad_step_exits_64(diag16, step):
    res = run_cli("hessian-check", diag16, f"--step={step}")
    assert res.returncode == 64
    assert "--step" in res.stderr
    assert res.stdout == ""


def test_hessian_check_nan_deviation_fails(diag16):
    # x +- 1e300 overflows x'Ax, so every finite difference is NaN; the
    # check must not report the NaN away as a pass.
    res = run_cli("hessian-check", diag16, "--step", "1e300",
                  "--points", "3")
    assert res.returncode == 1
    assert "max relative deviation: nan" in res.stdout
    assert "ok: false" in res.stdout


def test_hessian_check_overflow_prints_no_warnings(diag16):
    # The overflow is reported as a NaN deviation on stdout; numpy's
    # RuntimeWarnings must not reach stderr.
    res = run_cli("hessian-check", diag16, "--step", "1e300")
    assert res.returncode == 1
    assert res.stderr == ""
    assert res.stdout.splitlines()[2:] == [
        "max relative deviation: nan", "tolerance: 1e-06", "ok: false"]


def test_kantorovich_bound_extremal(diag16):
    res = run_cli("kantorovich-bound", diag16, "--point", "1,1")
    assert res.returncode == 0
    assert "holds = true" in res.stdout
    assert "holds = false" in res.stdout  # the as-printed variant


def test_kantorovich_bound_json(diag16):
    res = run_cli("kantorovich-bound", diag16, "--point", "1,0",
                  "--format", "json")
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["classical"]["holds"] is True
    assert out["k_value"] == pytest.approx(1.0)


@pytest.mark.parametrize("point", ["1e-100,1e-100", "1e-200,1e-200",
                                   "1e200,1e200"])
def test_kantorovich_bound_independent_of_point_scale(diag16, point):
    # The bound is homogeneous of degree 4, so (1, 1) decides every
    # multiple of it, however far K(x) and rhs under- or overflow.
    res = run_cli("kantorovich-bound", diag16, "--point", point)
    assert res.returncode == 0 and res.stderr == ""
    assert "holds = true" in res.stdout
    assert "holds = false" in res.stdout  # the as-printed variant


def test_kantorovich_bound_huge_point_prints_no_warnings(diag16):
    # K(x) and rhs overflow to inf; the verdict comes from x / |x|.
    res = run_cli("kantorovich-bound", diag16, "--point", "1e200,1",
                  "--format", "json")
    assert res.returncode == 0 and res.stderr == ""
    out = json.loads(res.stdout)
    assert out["k_value"] == out["classical"]["rhs"] == "inf"
    assert out["classical"]["holds"] and out["as_printed"]["holds"]


def _reject_constant(token):
    raise ValueError(f"{token} is not RFC 8259 JSON")


@pytest.mark.parametrize("argv", [
    ["kantorovich-bound", "MATRIX", "--point", "1e200,1"],
    ["kantorovich-bound", "MATRIX", "--point", "1,0"],
    ["analyze", "MATRIX"],
    ["lmi", "--dim", "2", "--delta", "6.2", "--samples-2d", "64"],
])
def test_json_output_is_rfc8259(diag16, argv):
    # A non-finite float is the string "inf", "-inf" or "nan", never a bare
    # Infinity or NaN token.
    argv = [diag16 if a == "MATRIX" else a for a in argv]
    res = run_cli(*argv, "--format", "json")
    json.loads(res.stdout, parse_constant=_reject_constant)


@pytest.mark.parametrize("scale", ["1e160", "1e-200"])
def test_analyze_extreme_scale(tmp_path, scale):
    # kappa of [[1, .9], [.9, 1]] is 19; the Frobenius norm of the scaled
    # matrix overflows or underflows unless Jacobi rescales it.
    p = str(tmp_path / "scaled.txt")
    write_matrix(p, float(scale) * np.array([[1.0, 0.9], [0.9, 1.0]]))
    res = run_cli("analyze", p)
    assert res.returncode == 1 and res.stderr == ""
    assert "status: NotConvex" in res.stdout
    kappa = float(re.search(r"kappa: (\S+)", res.stdout).group(1))
    assert kappa == pytest.approx(19.0, rel=1e-12)


def test_kantorovich_bound_zero_point_exits_64(diag16):
    res = run_cli("kantorovich-bound", diag16, "--point", "0,0")
    assert res.returncode == 64

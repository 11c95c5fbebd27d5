import importlib
import math

import numpy as np
import pytest

from kantorovich import boundary
from kantorovich.boundary import (FAMILY_KINDS, SWEEP_CSV_HEADER,
                                  BadInitialBracketError, EigenFamily,
                                  probe_boundary, sweep, sweep_csv)
from kantorovich.classify import (BOUNDARY_REL_TOL, KAPPA_NECESSARY,
                                  KAPPA_SUFFICIENT_3D, KAPPA_SUFFICIENT_ANY,
                                  Certificate, ConvexityVerdict, Status,
                                  classify, falsify)
from kantorovich.linalg import MAX_DIM, PD_TOL, NotPositiveDefiniteError
from kantorovich.lmi import verify_h_lmi
from kantorovich.sampling import SamplePlan

THRESHOLD_2D = 3.0 + 2.0 * math.sqrt(2.0)
FAST = SamplePlan(angles_2d=1024, fibonacci_3d=20_000, random_nd=40_000,
                  refine_rounds=20)


# --- families ----------------------------------------------------------------

def test_family_spectra():
    np.testing.assert_allclose(
        EigenFamily("two_point", 4).eigenvalues(5.0), [1.0, 1.0, 1.0, 5.0])
    np.testing.assert_allclose(
        EigenFamily("pinned_pair", 3).eigenvalues(5.0), [1.0, 5.0, 5.0])
    np.testing.assert_allclose(
        EigenFamily("geometric", 3).eigenvalues(4.0), [1.0, 2.0, 4.0])


def test_family_kappa_exact(rng):
    for kind in ("two_point", "geometric", "pinned_pair"):
        fam = EigenFamily(kind, 4)
        for _ in range(10):
            kappa = float(rng.uniform(1.0, 9.0))
            lam = fam.eigenvalues(kappa)
            assert np.all(np.diff(lam) >= 0)
            assert lam[-1] / lam[0] == pytest.approx(kappa, rel=1e-15)


def test_family_validation():
    with pytest.raises(ValueError):
        EigenFamily("bogus", 3)
    with pytest.raises(ValueError):
        EigenFamily("two_point", 1)
    with pytest.raises(ValueError):
        EigenFamily("custom", 3)
    # linalg stops at MAX_DIM, so a larger family fails when it is built,
    # not after a sweep has searched the rows before it.
    EigenFamily("two_point", MAX_DIM)
    with pytest.raises(ValueError, match="dim 9 not in 2..8"):
        EigenFamily("two_point", MAX_DIM + 1)
    with pytest.raises(ValueError):
        EigenFamily("two_point", 2).eigenvalues(0.5)


# --- bisection ---------------------------------------------------------------

def test_probe_2d_brackets_threshold():
    est = probe_boundary(EigenFamily("two_point", 2), tol=1e-3, plan=FAST)
    assert est.kappa_hi - est.kappa_lo <= 1e-3
    assert est.kappa_lo <= THRESHOLD_2D <= est.kappa_hi
    # endpoint probes first, then strictly narrowing midpoints
    assert est.steps[0].kappa == 1.0 and not est.steps[0].found_witness
    assert est.steps[1].kappa == 8.0 and est.steps[1].found_witness


def test_probe_necessity_ceiling():
    # no family's floor can exceed the necessary threshold
    for kind in ("two_point", "geometric", "pinned_pair"):
        est = probe_boundary(EigenFamily(kind, 3), tol=1e-2, plan=FAST)
        assert est.kappa_lo <= THRESHOLD_2D + 1e-2


def test_probe_bad_bracket_low():
    with pytest.raises(BadInitialBracketError):
        probe_boundary(EigenFamily("two_point", 2), tol=1e-2, plan=FAST,
                       bracket=(7.0, 8.0))


def test_probe_bad_bracket_high():
    with pytest.raises(BadInitialBracketError):
        probe_boundary(EigenFamily("two_point", 2), tol=1e-2, plan=FAST,
                       bracket=(1.0, 2.0))


def test_probe_argument_validation():
    fam = EigenFamily("two_point", 2)
    with pytest.raises(ValueError):
        probe_boundary(fam, tol=0.0, plan=FAST)
    with pytest.raises(ValueError):
        probe_boundary(fam, tol=math.nan, plan=FAST)
    with pytest.raises(ValueError):
        probe_boundary(fam, tol=1e-3, plan=FAST, bracket=(0.5, 8.0))
    with pytest.raises(ValueError):
        probe_boundary(fam, tol=1e-3, plan=FAST, bracket=(3.0, 3.0))
    with pytest.raises(ValueError):
        probe_boundary(fam, tol=1e-3, plan=FAST, bracket=(1.0, math.inf))


def test_probe_bracket_limit_is_the_spd_limit(monkeypatch):
    # Every family has lambda_min = 1 and lambda_max = kappa, so kappa_hi
    # may go up to the largest kappa validate_spd accepts; a larger one is
    # a bad bracket, rejected before any search.
    searched = []

    def no_witness(spd, plan):
        searched.append(spd.kappa)
        return ConvexityVerdict(Status.UNDETERMINED,
                                Certificate.SAMPLING_EXHAUSTED, spd.kappa)

    monkeypatch.setattr("kantorovich.boundary.classify", no_witness)
    top = 1e12
    while PD_TOL * top >= 1.0:
        top = math.nextafter(top, 0.0)
    above = math.nextafter(top, math.inf)
    for kind in FAMILY_KINDS:
        fam = EigenFamily(kind, 3)
        with pytest.raises(NotPositiveDefiniteError):
            fam.spd(above)
        for hi in (above, 1e13):
            with pytest.raises(ValueError, match="bracket"):
                probe_boundary(fam, tol=1e-2, plan=FAST, bracket=(1.0, hi))
        assert searched == []
        with pytest.raises(BadInitialBracketError, match="kappa_hi"):
            probe_boundary(fam, tol=1e-2, plan=FAST, bracket=(1.0, top))
        assert searched == [1.0, top]
        searched.clear()


def test_probe_bad_bracket_low_searches_once(monkeypatch):
    # A witness at kappa_lo fails the bracket without a search at kappa_hi.
    calls = []

    def counting(spd, plan):
        calls.append(spd.kappa)
        return classify(spd, plan)

    monkeypatch.setattr("kantorovich.boundary.classify", counting)
    with pytest.raises(BadInitialBracketError,
                       match="witness already found at kappa_lo = 7.0"):
        probe_boundary(EigenFamily("two_point", 2), tol=1e-2, plan=FAST,
                       bracket=(7.0, 8.0))
    assert calls == [7.0]


def test_probe_tol_below_float_spacing(monkeypatch):
    # Below ulp(kappa_hi) bisection stalls on adjacent floats, so such a tol
    # is rejected before any witness search runs.
    monkeypatch.setattr("kantorovich.boundary.classify",
                        lambda *a: pytest.fail("searched for a witness"))
    fam = EigenFamily("two_point", 2)
    for bracket in ((1.0, 8.0), (1.0, 1e6)):
        with pytest.raises(ValueError, match="float spacing"):
            probe_boundary(fam, tol=0.5 * math.ulp(bracket[1]), plan=FAST,
                           bracket=bracket)


def _trace(est):
    return (est.kappa_lo, est.kappa_hi,
            [(s.kappa, s.found_witness) for s in est.steps])


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_ladder_oracle_matches_falsify_oracle(monkeypatch, dim):
    # Deciding a step by the ladder changes no bracket and no step: outside
    # the gap the design scan cannot disagree with the theorems, inside it
    # classify runs the same search as falsify.
    for kind in FAMILY_KINDS:
        fam = EigenFamily(kind, dim)
        ladder = probe_boundary(fam, tol=1e-6, plan=FAST)
        with monkeypatch.context() as m:
            m.setattr(boundary, "_witness_found",
                      lambda f, kappa, plan:
                      falsify(f.spd(kappa), plan) is not None)
            scan_only = probe_boundary(fam, tol=1e-6, plan=FAST)
        assert _trace(ladder) == _trace(scan_only)


def test_only_gap_steps_scan(monkeypatch):
    # A step scans the design only when kappa lies in the gap between the
    # sufficient rung of its dim and the necessary threshold: a dim-2 sweep
    # never scans, nor does the kappa = 1 step.
    scans = []
    per_step = []
    real_step = boundary._witness_found

    def counting_scan(delta, plan):
        scans.append(delta.dim)
        return verify_h_lmi(delta, plan)

    def counting_step(family, kappa, plan):
        before = len(scans)
        found = real_step(family, kappa, plan)
        per_step.append((family.spd(kappa).kappa, len(scans) - before))
        return found

    # kantorovich.classify names the function; the module is looked up.
    monkeypatch.setattr(importlib.import_module("kantorovich.classify"),
                        "verify_h_lmi", counting_scan)
    monkeypatch.setattr(boundary, "_witness_found", counting_step)
    inc = 1.0 + BOUNDARY_REL_TOL
    top = KAPPA_NECESSARY * inc
    for dim in (2, 3, 4):
        floor = KAPPA_SUFFICIENT_3D if dim == 3 else KAPPA_SUFFICIENT_ANY
        for kind in FAMILY_KINDS:
            per_step.clear()
            est = probe_boundary(EigenFamily(kind, dim), tol=1e-3, plan=FAST)
            assert len(per_step) == len(est.steps)
            assert per_step[0] == (1.0, 0)
            for kappa, count in per_step:
                in_gap = dim > 2 and floor * inc < kappa <= top
                assert count == int(in_gap), (kind, dim, kappa)
    assert scans


def test_budget_monotonicity():
    """More samples can only lower (or keep) the witness ceiling."""
    fam = EigenFamily("two_point", 3)
    lean = probe_boundary(fam, tol=1e-3, plan=FAST)
    rich = probe_boundary(fam, tol=1e-3, plan=FAST.scaled(4))
    assert rich.kappa_hi <= lean.kappa_hi + 1e-3


def test_probe_determinism():
    fam = EigenFamily("geometric", 3)
    a = probe_boundary(fam, tol=1e-2, plan=FAST)
    b = probe_boundary(fam, tol=1e-2, plan=FAST)
    assert a.kappa_lo == b.kappa_lo
    assert a.kappa_hi == b.kappa_hi
    assert [s.kappa for s in a.steps] == [s.kappa for s in b.steps]


# --- sweep -------------------------------------------------------------------

def test_sweep_rows_and_csv():
    fams = [EigenFamily("two_point", 2), EigenFamily("geometric", 2)]
    rows = sweep(fams, tol=1e-3, plan=FAST)
    assert all(r.estimate is not None for r in rows)
    for r in rows:
        assert r.estimate.kappa_lo <= THRESHOLD_2D <= r.estimate.kappa_hi
    text = sweep_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == SWEEP_CSV_HEADER
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "two_point"
    assert first[1] == "2"
    assert float(first[2]) == rows[0].estimate.kappa_lo


def test_sweep_isolates_bad_rows():
    fams = [EigenFamily("two_point", 2), EigenFamily("geometric", 2)]
    rows = sweep(fams, tol=1e-2, plan=FAST, bracket=(1.0, 2.0))
    assert all(r.estimate is None for r in rows)
    assert all(r.error for r in rows)
    text = sweep_csv(rows)
    for line in text.strip().split("\n")[1:]:
        assert ",nan,nan,nan,0,0,0" in line


def test_sweep_csv_roundtrip_floats():
    rows = sweep([EigenFamily("two_point", 2)], tol=1e-3, plan=FAST)
    line = sweep_csv(rows).strip().split("\n")[1]
    parts = line.split(",")
    assert float(parts[2]) == rows[0].estimate.kappa_lo  # repr round-trips
    assert float(parts[3]) == rows[0].estimate.kappa_hi

import math

import numpy as np
import pytest

from kantorovich.boundary import (FAMILY_KINDS, SWEEP_CSV_HEADER,
                                  BadInitialBracketError, EigenFamily,
                                  probe_boundary, sweep, sweep_csv)
from kantorovich.classify import falsify
from kantorovich.linalg import PD_TOL, NotPositiveDefiniteError
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
        return None

    monkeypatch.setattr("kantorovich.boundary.falsify", no_witness)
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
        return falsify(spd, plan)

    monkeypatch.setattr("kantorovich.boundary.falsify", counting)
    with pytest.raises(BadInitialBracketError,
                       match="witness already found at kappa_lo = 7.0"):
        probe_boundary(EigenFamily("two_point", 2), tol=1e-2, plan=FAST,
                       bracket=(7.0, 8.0))
    assert calls == [7.0]


def test_probe_tol_below_float_spacing(monkeypatch):
    # Below ulp(kappa_hi) bisection stalls on adjacent floats, so such a tol
    # is rejected before any witness search runs.
    monkeypatch.setattr("kantorovich.boundary.falsify",
                        lambda *a: pytest.fail("searched for a witness"))
    fam = EigenFamily("two_point", 2)
    for bracket in ((1.0, 8.0), (1.0, 1e6)):
        with pytest.raises(ValueError, match="float spacing"):
            probe_boundary(fam, tol=0.5 * math.ulp(bracket[1]), plan=FAST,
                           bracket=bracket)


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

import contextlib
import io
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kantorovich import boundary, linalg, sampling
from kantorovich.boundary import (FAMILY_KINDS, SWEEP_CSV_HEADER,
                                  BadInitialBracketError, EigenFamily,
                                  probe_boundary, sweep, sweep_csv)
from kantorovich.classify import (BOUNDARY_REL_TOL, Certificate, Status,
                                  _pair_probe, beyond_necessary, classify,
                                  falsify)
from kantorovich.cli import run
from kantorovich.linalg import MAX_DIM, NotPositiveDefiniteError, validate_spd
from kantorovich.sampling import SamplePlan, all_samples
from conftest import largest_accepted_kappa

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
    for kappa in (0.5, math.nan):
        with pytest.raises(ValueError, match="kappa must be >= 1"):
            EigenFamily("two_point", 2).eigenvalues(kappa)


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

    def no_witness(family, kappa):
        searched.append(kappa)
        return False

    monkeypatch.setattr("kantorovich.boundary._witness_found", no_witness)
    top = largest_accepted_kappa()
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
    witness_found = boundary._witness_found

    def counting(family, kappa):
        calls.append(kappa)
        return witness_found(family, kappa)

    monkeypatch.setattr("kantorovich.boundary._witness_found", counting)
    with pytest.raises(BadInitialBracketError,
                       match="witness already found at kappa_lo = 7.0"):
        probe_boundary(EigenFamily("two_point", 2), tol=1e-2, plan=FAST,
                       bracket=(7.0, 8.0))
    assert calls == [7.0]


def test_probe_tol_below_float_spacing(monkeypatch):
    # Below ulp(kappa_hi) bisection stalls on adjacent floats, so such a tol
    # is rejected before any witness search runs.
    monkeypatch.setattr("kantorovich.boundary._witness_found",
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
    # At tol 1e-6 no step lands in (K (1 + 1e-12), K + 1.2e-8], K = 3 +
    # 2*sqrt(2), where the scans still judge the probe row's value 3/2 -
    # delta_max/4 within tolerance of 0; everywhere else falsify finds a
    # witness exactly where the necessary rung does.
    for kind in FAMILY_KINDS:
        fam = EigenFamily(kind, dim)
        ladder = probe_boundary(fam, tol=1e-6, plan=FAST)
        with monkeypatch.context() as m:
            m.setattr(boundary, "_witness_found",
                      lambda f, kappa:
                      falsify(f.spd(kappa), FAST) is not None)
            scan_only = probe_boundary(fam, tol=1e-6, plan=FAST)
        assert _trace(ladder) == _trace(scan_only)


def test_no_step_scans_the_design(monkeypatch):
    # Every step, in or out of the gap, is the closed-form extreme-pair
    # probe: no step scans a row, the probe row or the design, so none
    # makes a row bound or runs a Cholesky test either.
    for module, name in ((sampling, "scan_h"), (sampling, "scan_design"),
                         (sampling, "_bound_coefs"),
                         (linalg, "cholesky_clears")):
        monkeypatch.setattr(module, name,
                            lambda *a, name=name: pytest.fail(name))
    for tol in (1e-3, 1e-4):
        for dim in (2, 3, 4, MAX_DIM):
            for kind in FAMILY_KINDS:
                est = probe_boundary(EigenFamily(kind, dim), tol=tol,
                                     plan=FAST)
                assert len(est.steps) > 2


def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_no_step_runs_a_screen(monkeypatch):
    # The closed-form probe judges each step without a scan, so no step
    # runs a Cholesky test or makes a row bound.
    cholesky = _count_calls(monkeypatch, linalg, "cholesky_clears")
    bound = _count_calls(monkeypatch, sampling, "_bound_coefs")
    for dim in (2, 3, 4):
        for kind in FAMILY_KINDS:
            est = probe_boundary(EigenFamily(kind, dim), tol=1e-4, plan=FAST)
            assert est.steps
    assert (len(cholesky), len(bound)) == (0, 0)


def _ulps(x, k):
    """The float k steps of math.nextafter from x (toward -inf if k < 0)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


_STEP_KAPPAS = st.one_of(
    st.floats(1.0, 8.0),
    st.builds(_ulps, st.just(THRESHOLD_2D * (1.0 + BOUNDARY_REL_TOL)),
              st.integers(-64, 64)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(kind=st.sampled_from(FAMILY_KINDS), dim=st.integers(2, MAX_DIM),
       kappa=_STEP_KAPPAS)
def test_step_flag_is_the_probe_flag_of_the_matrix(kind, dim, kappa):
    # The validated matrix of a family has its kappa bit for bit, and a
    # step finds a witness exactly where classify's necessary rung (the
    # probe) gives that matrix NotConvex (docs/proofs.md#diagonal-spectrum).
    fam = EigenFamily(kind, dim)
    spd = fam.spd(kappa)
    assert spd.kappa == kappa
    verdict = classify(spd, FAST)
    assert boundary._witness_found(fam, kappa) == (
        verdict.certificate is Certificate.NECESSARY_VIOLATED) == (
        verdict.status is Status.NOT_CONVEX)


def test_step_reads_the_extreme_pair():
    # Every family's spectrum runs from 1.0 to kappa exactly, so the kappa a
    # step reads is the ratio of the spectrum's extreme pair (1, kappa), and
    # where a step finds a witness that pair's probe value is negative
    # (docs/proofs.md#diagonal-spectrum).
    centers = (THRESHOLD_2D * (1.0 - BOUNDARY_REL_TOL), THRESHOLD_2D,
               THRESHOLD_2D * (1.0 + BOUNDARY_REL_TOL))
    kappas = [1.0, math.nextafter(1.0, 2.0), 8.0, 1e11,
              *[_ulps(c, k) for c in centers for k in range(-64, 65)],
              *np.random.default_rng(7).uniform(1.0, 8.0, 64).tolist()]
    for kind in FAMILY_KINDS:
        for dim in range(2, MAX_DIM + 1):
            fam = EigenFamily(kind, dim)
            for kappa in kappas:
                lam = fam.eigenvalues(kappa)
                lo, hi = min(lam), max(lam)
                assert (lo, hi) == (1.0, kappa), (kind, dim)
                found = boundary._witness_found(fam, kappa)
                assert found == beyond_necessary(hi / lo), (kind, dim, kappa)
                value = _pair_probe(linalg.ratio_sums([lo, hi]))[2]
                assert not found or value < 0.0, (kind, dim, kappa)


def test_bracket_holds_the_necessary_threshold():
    # A step and analyze apply one rule, so even a bracket narrower than
    # the scans' tolerance (a few 1e-9 in kappa) holds 3 + 2*sqrt(2).
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(["boundary", "--dims", "2", "--tol", "1e-10",
                    "--format", "csv"]) == 0
    rows = [line.split(",") for line in out.getvalue().splitlines()[1:]]
    assert rows
    for row in rows:
        lo, hi = float(row[2]), float(row[3])
        assert lo <= THRESHOLD_2D <= hi  # 5.82842712474619


def _ci_gap8(tie=0.0):
    # the gap8 and tie8 matrices of the CI console-script step
    q, _ = np.linalg.qr(np.random.default_rng(8).standard_normal((8, 8)))
    w = np.geomspace(1.0, 5.5, 8)
    if tie:
        w[4] = w[3] * (1 + tie)
    a = (q * w) @ q.T
    return validate_spd(0.5 * (a + a.T))


def test_classify_screens_only_design_blocks(monkeypatch):
    # The necessary rung scans nothing and the gap8 scan's probe head runs
    # no Cholesky test (the gap8 floors skip every design block); tie8's
    # design blocks are still screened.
    cholesky = _count_calls(monkeypatch, linalg, "cholesky_clears")
    for dim in range(2, MAX_DIM + 1):
        w = np.linspace(1.0, 9.0, dim)
        verdict = classify(validate_spd(np.diag(w)))
        assert verdict.certificate is Certificate.NECESSARY_VIOLATED
        assert verdict.witness is not None
    gap8 = classify(_ci_gap8())
    assert gap8.certificate is Certificate.SAMPLING_EXHAUSTED
    assert gap8.report.passed
    assert cholesky == []
    tie8 = classify(_ci_gap8(tie=1e-9))
    assert tie8.certificate is Certificate.SAMPLING_EXHAUSTED
    assert tie8.report.passed
    assert len(cholesky) >= 1


@pytest.mark.parametrize("tol", [1e-4, 1e-9, 2e-15])
def test_bracket_is_dimension_independent(tol):
    # A step reads kappa alone, so all 21 rows bisect alike.
    two_point_2d = probe_boundary(EigenFamily("two_point", 2), tol=tol,
                                  plan=FAST)
    want = (two_point_2d.kappa_lo, two_point_2d.kappa_hi)
    rows = sweep([EigenFamily(kind, dim) for kind in FAMILY_KINDS
                  for dim in range(2, MAX_DIM + 1)], tol=tol, plan=FAST)
    assert len(rows) == 21
    assert {(r.estimate.kappa_lo, r.estimate.kappa_hi) for r in rows} == {want}
    # No witness up to 3 + 2*sqrt(2) within the relative slack, one above.
    assert THRESHOLD_2D <= want[1]
    assert want[0] <= THRESHOLD_2D * (1.0 + BOUNDARY_REL_TOL) < want[1]
    if tol == 1e-4:
        assert want == (5.8284149169921875, 5.828468322753906)


def test_budget_monotonicity():
    """The budget labels the result and changes no step."""
    fam = EigenFamily("two_point", 3)
    lean = probe_boundary(fam, tol=1e-3, plan=FAST)
    rich = probe_boundary(fam, tol=1e-3, plan=replace(
        FAST, angles_2d=4 * FAST.angles_2d,
        fibonacci_3d=4 * FAST.fibonacci_3d, random_nd=4 * FAST.random_nd))
    assert _trace(rich) == _trace(lean)
    assert rich.samples > lean.samples


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


def test_sweep_builds_no_design(monkeypatch):
    # The samples column is counted from the plan: no step and no row
    # builds the design it labels.
    plan = SamplePlan(seed=2325, angles_2d=777, fibonacci_3d=778,
                      random_nd=779)
    families = [EigenFamily(kind, dim) for kind in FAMILY_KINDS
                for dim in (2, 3, 4, 8)]
    passes = []
    pass_of = sampling._pass

    def counting_pass(*args):
        passes.append(args)
        return pass_of(*args)

    monkeypatch.setattr(sampling, "_pass", counting_pass)
    rows = sweep(families, tol=1e-2, plan=plan)
    assert passes == []
    assert [row.estimate.samples for row in rows] == [
        all_samples(fam.dim, plan).shape[0] for fam in families]

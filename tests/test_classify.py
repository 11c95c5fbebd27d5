import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from kantorovich import sampling
from kantorovich.classify import (BOUNDARY_REL_TOL, KAPPA_NECESSARY,
                                  KAPPA_SUFFICIENT_3D, KAPPA_SUFFICIENT_ANY,
                                  Certificate, Status, classify, falsify,
                                  necessary_probe)
from kantorovich.forms import DeltaVector, delta_from_spd, least_coefs
from kantorovich.function import f_hessian
from kantorovich.linalg import min_eigenvalue, scan_tolerance, validate_spd
from kantorovich.sampling import SamplePlan, all_samples, scan_design, scan_h
from conftest import random_rotation, spd_with_kappa

# Small budgets keep the suite quick; the acceptance tests use the defaults.
FAST = SamplePlan(angles_2d=1024, fibonacci_3d=20_000, random_nd=40_000,
                  refine_rounds=25)


def test_threshold_constants():
    assert KAPPA_NECESSARY == pytest.approx(5.8284271247461903, abs=1e-15)
    assert KAPPA_SUFFICIENT_ANY == pytest.approx(3.1462643699419726,
                                                 abs=1e-15)
    assert KAPPA_SUFFICIENT_3D == pytest.approx(3.7320508075688772, abs=1e-15)


# --- necessary probe --------------------------------------------------------

def test_probe_identity_spectrum():
    res = necessary_probe(DeltaVector(dim=3, values=np.full(3, 2.0)))
    assert res.quad_value == pytest.approx(12.0)
    assert not res.violated


def test_probe_boundary_root():
    res = necessary_probe(DeltaVector(dim=2, values=np.array([6.0])))
    assert res.quad_value == pytest.approx(0.0, abs=1e-12)
    assert not res.violated


def test_probe_just_past_root():
    res = necessary_probe(DeltaVector(dim=2, values=np.array([6.0 + 1e-6])))
    assert res.violated
    assert res.quad_value < 0.0


def test_probe_diag16_value():
    spd = validate_spd(np.diag([1.0, 6.0]))
    res = necessary_probe(delta_from_spd(spd))
    # 9 + 37/2 - (3/4)(37/6)^2 = -49/48
    assert res.quad_value == pytest.approx(-49.0 / 48.0, abs=1e-12)
    assert res.violated
    assert res.worst_pair == (0, 1)


def test_probe_pair_tie_break():
    # Ties go to the first pair in pair order, in the library probe and in
    # the witness: diag(1, 1, 7) ties (0, 2) with (1, 2).
    res = necessary_probe(DeltaVector(dim=3, values=np.array([5.0, 5, 2])))
    assert (res.worst_pair, res.delta_max) == ((0, 1), 5.0)
    witness = classify(validate_spd(np.diag([1.0, 1.0, 7.0]))).witness
    r = 1.0 / math.sqrt(2.0)
    assert list(witness.point) == [r, 0.0, r]


POINTS_SCRIPT = """
import json, sys
from kantorovich.classify import _probe, classify
from kantorovich.linalg import validate_spd
spd, gap = (validate_spd(json.loads(a)) for a in sys.argv[1:])
v, again = classify(spd), classify(spd)
points = (v.witness.point, _probe(spd).point)
out = {"numpy": "numpy" in sys.modules, "lengths": [len(p) for p in points],
       "types": sorted({type(c).__name__ for p in points for c in p})}
g, g_again = classify(gap), classify(gap)
out["equal"] = [(a == b, hash(a) == hash(b)) for a, b in ((v, again),
                                                          (g, g_again))]
out["verdicts"] = [v.certificate.value, g.certificate.value]
print(json.dumps(out))
"""


def test_necessary_violated_points_are_python_floats(rng):
    # In a fresh interpreter, a necessary-violated verdict and the probe
    # witness build their points without numpy, as tuples of floats, and
    # verdicts compare and hash by value, with a witness or a gap report.
    spd = spd_with_kappa(rng, 8, 9.0)
    gap = spd_with_kappa(rng, 3, 4.5)
    src = str(Path(sampling.__file__).resolve().parents[1])
    res = subprocess.run(
        [sys.executable, "-c", POINTS_SCRIPT,
         *(json.dumps(m.matrix.tolist()) for m in (spd, gap))],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src})
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == {
        "numpy": False, "lengths": [8, 8], "types": ["float"],
        "equal": [[True, True], [True, True]],
        "verdicts": ["necessary-violated", "sampling-exhausted"]}


# --- falsify ----------------------------------------------------------------

def test_falsify_identity():
    assert falsify(validate_spd(np.eye(3)), FAST) is None


def test_falsify_diag16():
    spd = validate_spd(np.diag([1.0, 6.0]))
    w = falsify(spd, FAST)
    assert w is not None
    # scaled so the largest coordinate is 1, the witness is the (1,1)
    # direction where the hand-computed minimum eigenvalue is -1/12
    x = w.point / np.abs(w.point).max()
    assert min_eigenvalue(f_hessian(spd, x)) <= -1.0 / 12.0 + 1e-9


def test_falsify_convex_3x3():
    spd = validate_spd(np.diag([1.0, 2.0, 3.7]))
    assert falsify(spd, FAST) is None


@pytest.mark.parametrize("n", [3, 4])
def test_falsify_witness_revalidates(rng, n):
    for _ in range(5):
        spd = spd_with_kappa(rng, n, float(rng.uniform(6.0, 10.0)))
        w = falsify(spd, FAST)
        assert w is not None
        lam = min_eigenvalue(f_hessian(spd, w.point))
        assert lam < 0.0
        assert lam == pytest.approx(w.lambda_min, abs=1e-10)


@pytest.mark.parametrize("n", range(2, 9))
def test_falsify_witness_is_scan_worst(rng, n):
    # No descent: the witness is the design scan's first worst row, mapped
    # back to x = U'y, and its value is the identity's bound 3/2 - delta_max/4
    # (attained at the extreme-pair probe), so no direction goes lower.
    pts = all_samples(n, FAST)
    for kappa in (6.0, 9.0, 40.0):
        spd = spd_with_kappa(rng, n, kappa)
        assert classify(spd, FAST).status == Status.NOT_CONVEX
        delta = delta_from_spd(spd)
        res = scan_h(delta, pts)
        w = falsify(spd, FAST)
        want = spd.spectral.rotation.T @ pts[res.worst_index]
        assert np.array(w.point).tobytes() == want.tobytes()
        assert w.lambda_min == res.worst_value
        c = 1.5 - float(delta.values.max()) / 4.0
        assert abs(w.lambda_min - c) <= 1e-13 * max(1.0, abs(c))
        assert np.linalg.eigvalsh(f_hessian(spd, w.point))[0] < 0.0


# --- classify ---------------------------------------------------------------

def test_classify_diag16():
    v = classify(validate_spd(np.diag([1.0, 6.0])), FAST)
    assert v.status == Status.NOT_CONVEX
    assert v.certificate == Certificate.NECESSARY_VIOLATED
    assert v.kappa == 6.0
    assert v.witness is not None


def test_classify_2d_boundary_inclusive():
    kappa = 3.0 + 2.0 * math.sqrt(2.0)
    v = classify(validate_spd(np.diag([1.0, kappa])), FAST)
    assert v.status == Status.CONVEX
    assert v.certificate == Certificate.EXACT_2D


def test_classify_3d_sufficient():
    v = classify(validate_spd(np.diag([1.0, 2.0, 3.7])), FAST)
    assert v.status == Status.CONVEX
    assert v.certificate == Certificate.SUFFICIENT_3D


def test_classify_gap_never_convex():
    v = classify(validate_spd(np.diag([1.0, 2.0, 4.5])), FAST)
    assert v.status == Status.UNDETERMINED
    assert v.report is not None and v.report.passed


@pytest.mark.parametrize("eigs", [(1.0, 2.0, 4.5), (1.0, 1.5, 3.0, 5.0)])
def test_classify_gap_scans_once(monkeypatch, eigs):
    calls = []

    def counting_scan_design(*args, **kwargs):
        calls.append(1)
        return scan_design(*args, **kwargs)

    monkeypatch.setattr(sampling, "scan_design", counting_scan_design)
    spd = validate_spd(np.diag(eigs))
    v = classify(spd, FAST)
    assert len(calls) == 1
    assert v.certificate == Certificate.SAMPLING_EXHAUSTED
    want = scan_design(delta_from_spd(spd), FAST)
    got = v.report
    assert ((got.worst_value, got.samples, got.seed, got.tolerance,
             got.passed) == (want.worst_value, want.samples, want.seed,
                             want.tolerance, want.passed))
    np.testing.assert_array_equal(got.worst_point, want.worst_point)


GAP_PLAN = SamplePlan(fibonacci_3d=2000, random_nd=2000)


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(3, 8), seed=st.integers(0, 2 ** 32 - 1),
       sliver=st.booleans(), u=st.floats(0.0, 1.0))
def test_classify_gap_scan_margin(dim, seed, sliver, u):
    # In the gap (and the sliver (K, K(1 + 1e-12)]) lambda_min h(delta, y)
    # is 3/2 - delta_max/4 >= -2e-12 at its worst unit y, the extreme-pair
    # probe: the scan passes with a wide margin, so the gap rung only
    # reports.
    inc = 1.0 + BOUNDARY_REL_TOL
    lo = (KAPPA_SUFFICIENT_3D if dim == 3 else KAPPA_SUFFICIENT_ANY) * inc
    hi = KAPPA_NECESSARY * inc
    kappa = KAPPA_NECESSARY * (1.0 + u * BOUNDARY_REL_TOL) if sliver \
        else lo + u * (hi - lo)
    spd = spd_with_kappa(np.random.default_rng(seed), dim, kappa)
    assume(lo < spd.kappa <= hi)
    v = classify(spd, GAP_PLAN)
    assert v.status == Status.UNDETERMINED and v.report.passed
    r = v.report
    assert -r.worst_value <= r.tolerance / 100.0
    dmax = float(delta_from_spd(spd).values.max())
    assert abs(r.worst_value - (1.5 - 0.25 * dmax)) <= 1e-13


@pytest.mark.parametrize("dim", [4, 5, 6, 7, 8])
def test_classify_gap_report_is_the_probe_rows(dim):
    # In the gap the design adds nothing to the report: scanning only the
    # n(n-1) probe rows that all_samples puts first gives the same worst
    # value, point, tolerance and verdict, bit for bit (samples differ).
    rng = np.random.default_rng(4000 + dim)
    inc = 1.0 + BOUNDARY_REL_TOL
    pts = all_samples(dim, SamplePlan())[:dim * (dim - 1)]
    for kappa in rng.uniform(KAPPA_SUFFICIENT_ANY * inc, KAPPA_NECESSARY, 12):
        spd = spd_with_kappa(rng, dim, float(kappa))
        got = classify(spd).report
        res = scan_h(delta_from_spd(spd), pts)
        assert (got.worst_value, got.tolerance, got.passed) == (
            res.worst_value, res.tolerance, not res.violation)
        np.testing.assert_array_equal(got.worst_point, pts[res.worst_index])


@settings(deadline=None)
@given(dim=st.integers(2, 8), seed=st.integers(0, 2 ** 32 - 1),
       kappa=st.floats(1.0, 40.0))
def test_classify_invariant_under_inverse_and_rotation(dim, seed, kappa):
    # A^-1 and QAQ' have the spectrum's ratios of A, so the same kappa and
    # delta: status and certificate do not change.  kappa is kept 1e-9
    # (relative) off every threshold, far beyond what Jacobi's rounding of
    # the transformed matrix can move it.
    assume(all(abs(kappa / t - 1.0) > 1e-9 for t in (
        KAPPA_SUFFICIENT_ANY, KAPPA_SUFFICIENT_3D, KAPPA_NECESSARY)))
    rng = np.random.default_rng(seed)
    spd = spd_with_kappa(rng, dim, kappa)
    want = classify(spd, FAST)
    q = random_rotation(rng, dim)
    rotated = q @ spd.matrix @ q.T
    for other in (spd.inverse, 0.5 * (rotated + rotated.T)):
        got = classify(validate_spd(other), FAST)
        assert (got.status, got.certificate) == (want.status,
                                                 want.certificate)


@pytest.mark.parametrize("dim, kappa, certificate", [
    (2, 5.0, Certificate.EXACT_2D),
    (3, 3.5, Certificate.SUFFICIENT_3D),
    (6, 3.0, Certificate.SUFFICIENT_ANY_DIM),
    (3, 4.5, Certificate.SAMPLING_EXHAUSTED),
    (8, 4.5, Certificate.SAMPLING_EXHAUSTED),
    (2, 7.0, Certificate.NECESSARY_VIOLATED),
    (8, 7.0, Certificate.NECESSARY_VIOLATED),
])
def test_classify_builds_the_rotation_only_for_a_witness(rng, dim, kappa,
                                                         certificate):
    # kappa decides every rung; only the necessary-violated probe witness,
    # x = U'y, reads the rotation, so only there is it replayed
    spd = spd_with_kappa(rng, dim, kappa)
    assert spd.spectral._rotations
    v = classify(spd, FAST)
    assert v.certificate == certificate
    witness = certificate == Certificate.NECESSARY_VIOLATED
    assert ("_u" in spd.spectral.__dict__) == witness
    assert (v.witness is not None) == witness


def test_classify_dim1():
    v = classify(validate_spd(np.array([[2.5]])), FAST)
    assert v.status == Status.CONVEX


def test_classify_any_dim_sufficient():
    v = classify(validate_spd(np.diag([1.0, 2.0, 2.5, 3.0])), FAST)
    assert v.status == Status.CONVEX
    assert v.certificate == Certificate.SUFFICIENT_ANY_DIM


def test_classify_undetermined_only_in_gap(rng):
    # every Undetermined verdict must sit strictly inside the open interval
    for _ in range(20):
        kappa = float(rng.uniform(1.1, 7.5))
        spd = spd_with_kappa(rng, 4, kappa)
        v = classify(spd, FAST)
        if v.status == Status.UNDETERMINED:
            assert KAPPA_SUFFICIENT_ANY < v.kappa <= KAPPA_NECESSARY * (1 + 1e-12)


def test_exactness_2d(rng):
    """dim 2 decisions are sharp: status matches the threshold comparison
    and pure falsification agrees, away from a tiny boundary band."""
    thr = KAPPA_NECESSARY
    checked = 0
    while checked < 500:
        kappa = float(rng.uniform(1.0, 12.0))
        if abs(kappa - thr) < 1e-6:
            continue
        spd = spd_with_kappa(rng, 2, kappa)
        v = classify(spd, FAST)
        want = Status.CONVEX if kappa <= thr else Status.NOT_CONVEX
        assert v.status == want, f"kappa={kappa!r}"
        found = falsify(spd, FAST)
        assert (found is None) == (want == Status.CONVEX), f"kappa={kappa!r}"
        checked += 1


def test_witness_revalidates(rng):
    for _ in range(25):
        kappa = float(rng.uniform(6.0, 10.0))
        n = int(rng.integers(2, 5))
        spd = spd_with_kappa(rng, n, kappa)
        v = classify(spd, FAST)
        assert v.status == Status.NOT_CONVEX
        if v.witness is not None:
            lam = min_eigenvalue(f_hessian(spd, v.witness.point))
            assert lam < -5e-10
            assert lam == pytest.approx(v.witness.lambda_min, abs=1e-10)


# Just above 3 + 2*sqrt(2) the probe row's value 3/2 - delta_max/4 lies
# within the scan tolerance of 0.  kappa has decided the verdict, so the
# necessary rung attaches it all the same; the float Hessian of f at the
# witness, on the original rotated A, has a negative eigenvalue.
@pytest.mark.parametrize("r", [2e-12, 1e-10, 1e-9])
@pytest.mark.parametrize("dim", [2, 3, 5, 8])
def test_not_convex_just_above_the_threshold_has_a_witness(dim, r):
    eigs = np.geomspace(1.0, KAPPA_NECESSARY * (1.0 + r), dim)
    q = random_rotation(np.random.default_rng(dim), dim)
    spd = validate_spd(q @ np.diag(eigs) @ q.T)
    v = classify(spd)
    assert (v.status, v.certificate) == (Status.NOT_CONVEX,
                                         Certificate.NECESSARY_VIOLATED)
    assert v.witness is not None and v.witness.lambda_min < 0.0
    hess = f_hessian(spd, v.witness.point)
    assert min_eigenvalue(hess) < 0.0
    # the probe row alone is still judged against the tolerance
    delta_max = max(spd.ratio_sums())
    assert v.witness.lambda_min >= -scan_tolerance(delta_max)


@pytest.mark.parametrize("n", range(2, 9))
def test_closed_form_probe_is_the_probe_row_scan(n):
    # The probe's value 3/2 - delta_max/4 is least_coefs' c bit for bit and
    # the LAPACK scan of the probe row up to rounding, with the same flag;
    # its point r U[i] + r U[j] is rotation.T @ y up to an ulp.
    rng = np.random.default_rng(4100 + n)
    lo, hi = math.log10(2e-12), math.log10(39.0)
    for r in (2e-12, 39.0, *10.0 ** rng.uniform(lo, hi, 10)):
        kappa = KAPPA_NECESSARY * (1.0 + r)
        w = np.concatenate(([1.0, kappa], rng.uniform(1.0, kappa, n - 2)))
        for scale in (2.0 ** 700, 2.0 ** -700):
            q = random_rotation(rng, n)
            a = (q * (np.sort(w) * scale)) @ q.T
            spd = validate_spd(0.5 * (a + a.T))
            delta = delta_from_spd(spd)
            witness = classify(spd).witness
            lam = witness.lambda_min
            assert lam == least_coefs(delta.values)[1]
            k = int(delta.values.argmax())
            y = sampling.probe_directions(n)[2 * k]
            res = scan_h(delta, y[None, :])
            assert abs(lam - res.worst_value) <= 1e-14 * max(1.0, abs(lam))
            tol = scan_tolerance(max(spd.ratio_sums()))
            assert (lam < -tol) == res.violation
            want = spd.spectral.rotation.T @ y
            assert np.abs(witness.point - want).max() <= 2.0 ** -52
            assert min_eigenvalue(f_hessian(spd, witness.point)) < 0.0


def test_scale_invariance(rng):
    for kappa in (2.0, 3.5, 4.5, 7.0):
        spd = spd_with_kappa(rng, 3, kappa)
        scaled = validate_spd(0.37 * spd.matrix)
        assert classify(spd, FAST).status == classify(scaled, FAST).status


SCALE_PLAN = SamplePlan(angles_2d=256, fibonacci_3d=2000, random_nd=2000,
                        refine_rounds=5)


@pytest.mark.parametrize("c", [2.0 ** 700, 2.0 ** -700, 1e200, 1e-200,
                               2.0 ** 1020],
                         ids=["2^700", "2^-700", "1e200", "1e-200", "2^1020"])
@pytest.mark.parametrize("dim", range(2, 9))
def test_scale_invariance_extreme(rng, dim, c):
    # Jacobi runs on A scaled by a power of two, so no norm overflows or
    # underflows; under a power-of-two c it runs on the same matrix.
    for kappa in (2.0, 3.5, 5.0, 5.5, 9.0):
        spd = spd_with_kappa(rng, dim, kappa)
        scaled = validate_spd(c * spd.matrix)
        want, got = classify(spd, SCALE_PLAN), classify(scaled, SCALE_PLAN)
        assert (got.status, got.certificate) == (want.status,
                                                 want.certificate)
        if math.frexp(c)[0] == 0.5:
            assert got.kappa == want.kappa


def test_monotone_flip_2d():
    thr = KAPPA_NECESSARY
    ts = np.concatenate([np.linspace(1.0, 12.0, 45), [thr - 1e-3, thr + 1e-3]])
    ts.sort()
    statuses = [classify(validate_spd(np.diag([1.0, t])), FAST).status
                for t in ts]
    flips = sum(1 for a, b in zip(statuses, statuses[1:]) if a != b)
    assert flips == 1
    assert statuses[0] == Status.CONVEX
    assert statuses[-1] == Status.NOT_CONVEX


def test_verdict_certificate_consistency(rng):
    convex_certs = {Certificate.EXACT_2D, Certificate.SUFFICIENT_3D,
                    Certificate.SUFFICIENT_ANY_DIM}
    for _ in range(40):
        n = int(rng.integers(2, 6))
        spd = spd_with_kappa(rng, n, float(rng.uniform(1.0, 9.0)))
        v = classify(spd, FAST)
        if v.status == Status.CONVEX:
            assert v.certificate in convex_certs
        elif v.status == Status.NOT_CONVEX:
            assert v.certificate == Certificate.NECESSARY_VIOLATED
        else:
            assert v.certificate == Certificate.SAMPLING_EXHAUSTED
            assert n >= 3

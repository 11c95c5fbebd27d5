"""End-to-end acceptance gate for the package.

Each test covers one headline claim at its stated tolerance and budget and
prints a single [PASS]/[FAIL] line, so `pytest -s tests/test_acceptance.py`
doubles as a verification report.  Budgets are asserted, not aspirational:
a slow or loose run fails the gate.
"""

import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from conftest import random_spd, spd_with_kappa
from kantorovich import (DEFAULT_PLAN, DeltaVector, EigenFamily, Status,
                         box_inequality_grid_check, classify, delta_from_spd,
                         detm_alpha_convexity_check, detm_alpha_poly, falsify,
                         f_hessian, fd_hessian, h_form, m_form, min_eigenvalue,
                         necessary_probe, probe_boundary, robust_psd_grid,
                         validate_spd)
from kantorovich.classify import KAPPA_NECESSARY, KAPPA_SUFFICIENT_3D
from kantorovich.linalg import det

THR_2D = 3.0 + 2.0 * math.sqrt(2.0)


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num:2d}: {desc}")
        raise
    print(f"[PASS] criterion {num:2d}: {desc}")


def test_01_exact_2d_threshold_bracketed():
    desc = "2-d boundary probe brackets 3+2*sqrt(2) at tol 1e-3 in < 30 s"
    with criterion(1, desc):
        t0 = time.perf_counter()
        for kind in ("two_point", "geometric"):
            est = probe_boundary(EigenFamily(kind=kind, dim=2), tol=1e-3)
            assert est.kappa_lo >= THR_2D - 1e-3, kind
            assert est.kappa_hi <= THR_2D + 1e-3, kind
            assert est.kappa_lo <= THR_2D <= est.kappa_hi, kind
        assert time.perf_counter() - t0 < 30.0


def test_02_counterexample_diag_1_6():
    desc = "diag(1,6) classifies NotConvex; hessian eigenvalue -1/12 at (1,1)"
    with criterion(2, desc):
        spd = validate_spd(np.diag([1.0, 6.0]))
        verdict = classify(spd)
        assert verdict.status is Status.NOT_CONVEX
        lam = min_eigenvalue(f_hessian(spd, np.array([1.0, 1.0])))
        assert abs(lam - (-1.0 / 12.0)) <= 1e-10


def test_03_necessary_boundary_root_at_six():
    desc = "pair probe value is 0 at delta = 6 and flags delta = 6 + 1e-6"
    with criterion(3, desc):
        exact = validate_spd(np.diag([1.0, THR_2D]))
        res = necessary_probe(delta_from_spd(exact))
        assert abs(res.quad_value) <= 1e-12
        assert not res.violated
        nudged = necessary_probe(
            DeltaVector(dim=2, values=np.array([6.0 + 1e-6])))
        assert nudged.violated


def test_04_sufficient_3d_region_all_convex():
    desc = ("200 random 3x3 with kappa <= 2+sqrt(3) all Convex; "
            "10x falsify finds nothing; < 5 min")
    with criterion(4, desc):
        t0 = time.perf_counter()
        rng = np.random.default_rng(404)
        plan10 = replace(DEFAULT_PLAN,
                         angles_2d=10 * DEFAULT_PLAN.angles_2d,
                         fibonacci_3d=10 * DEFAULT_PLAN.fibonacci_3d,
                         random_nd=10 * DEFAULT_PLAN.random_nd)
        for _ in range(200):
            kappa = float(rng.uniform(1.0, KAPPA_SUFFICIENT_3D))
            spd = spd_with_kappa(rng, 3, kappa)
            assert classify(spd).status is Status.CONVEX
            assert falsify(spd, plan10) is None
        assert time.perf_counter() - t0 < 300.0


def test_05_box_grid_psi_corner():
    desc = "box inequalities pass on the 41^3 grid; min psi = 4 at a corner; < 10 s"
    with criterion(5, desc):
        t0 = time.perf_counter()
        summary = box_inequality_grid_check()
        elapsed = time.perf_counter() - t0
        assert summary.passed
        psi = next(r for r in summary.reports if r.grid_id == "box_psi")
        assert abs(psi.worst_value - 4.0) <= 1e-12
        assert all(c in (2.0, 4.0) for c in psi.worst_cell)
        assert elapsed < 10.0


def test_06_robust_grids_m_p_q():
    desc = "m/p/q forms PSD over the 21^3 x 41^2 grids at tol 1e-9; < 10 min"
    with criterion(6, desc):
        t0 = time.perf_counter()
        for form in ("m", "p", "q"):
            rep = robust_psd_grid(form)
            assert rep.passed, form
            assert rep.tolerance == 1e-9
            assert rep.cells == 21 ** 3 * 41 ** 2
        assert time.perf_counter() - t0 < 600.0


def test_07_detm_alpha_polynomial():
    desc = ("det-polynomial alpha checks pass; odd coefficients vanish "
            "and c6 = (3/4) w1 w3 to 1e-9")
    with criterion(7, desc):
        assert detm_alpha_convexity_check().passed

        # Cross-check the degree-6 coefficient by an exact sixth central
        # difference (the stencil is exact for polynomials of degree <= 6)
        # before trusting the closed form below.
        rng = np.random.default_rng(707)
        binom = np.array([1.0, -6.0, 15.0, -20.0, 15.0, -6.0, 1.0])
        h = 0.25
        for _ in range(5):
            omega = rng.uniform(2.0, 4.0, size=3)
            beta = float(rng.uniform(-1.0, 1.0))
            a0 = float(rng.uniform(-0.2, 0.2))
            alphas = a0 + h * np.arange(3.0, -4.0, -1.0)
            vals = np.array([det(m_form(omega, a, beta)) for a in alphas])
            c6_fd = float(binom @ vals) / (720.0 * h ** 6)
            scale = max(1.0, abs(c6_fd))
            assert abs(c6_fd - detm_alpha_poly(omega, beta)[6]) <= 1e-7 * scale
            assert abs(c6_fd - 0.75 * omega[0] * omega[2]) <= 1e-7 * scale

        for _ in range(100):
            omega = rng.uniform(2.0, 4.0, size=3)
            beta = float(rng.uniform(-1.0, 1.0))
            coefs = detm_alpha_poly(omega, beta)
            scale = max(1.0, float(np.max(np.abs(coefs))))
            assert abs(coefs[1]) <= 1e-9 * scale
            assert abs(coefs[3]) <= 1e-9 * scale
            assert abs(coefs[5]) <= 1e-9 * scale
            c6 = 0.75 * omega[0] * omega[2]
            assert abs(coefs[6] - c6) <= 1e-9 * max(1.0, abs(c6))


def test_08_hessian_matches_finite_differences():
    desc = "analytic hessian within 1e-6 of central differences, 100 random (A, x)"
    with criterion(8, desc):
        rng = np.random.default_rng(808)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(2, 6))
            spd = random_spd(rng, n)
            x = rng.standard_normal(n)
            analytic = f_hessian(spd, x)
            approx = fd_hessian(spd, x)
            dev = float(np.max(np.abs(approx - analytic)))
            dev /= max(1.0, float(np.max(np.abs(analytic))))
            worst = max(worst, dev)
        assert worst < 1e-6


def test_09_conjugation_identity():
    desc = "hessian equals rotated h-form entrywise to 1e-9 on 100 cases"
    with criterion(9, desc):
        rng = np.random.default_rng(909)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            spd = random_spd(rng, n)
            x = rng.standard_normal(n)
            u = spd.spectral.rotation
            lhs = f_hessian(spd, x)
            rhs = u.T @ h_form(delta_from_spd(spd), u @ x) @ u
            assert float(np.max(np.abs(lhs - rhs))) <= 1e-9


def test_10_gap_never_claims_convex():
    desc = ("100 random 3x3 in the certificate gap never classify Convex; "
            "witnesses re-validate")
    with criterion(10, desc):
        rng = np.random.default_rng(1010)
        lo = KAPPA_SUFFICIENT_3D + 0.01
        hi = KAPPA_NECESSARY - 0.01
        witnesses = 0
        for _ in range(100):
            spd = spd_with_kappa(rng, 3, float(rng.uniform(lo, hi)))
            verdict = classify(spd)
            assert verdict.status is not Status.CONVEX
            if verdict.witness is not None:
                witnesses += 1
                lam = min_eigenvalue(f_hessian(spd, verdict.witness.point))
                assert lam < 0.0
                drift = abs(lam - verdict.witness.lambda_min)
                assert drift <= 1e-9 * max(1.0, abs(lam))
        print(f"  gap sample: {witnesses}/100 produced explicit witnesses")


def test_11_three_dim_bracket_reported():
    desc = "3-d two-point probe lands inside [2+sqrt(3)-1e-3, 3+2*sqrt(2)+1e-3]"
    with criterion(11, desc):
        est = probe_boundary(EigenFamily(kind="two_point", dim=3), tol=1e-3)
        assert est.kappa_lo >= KAPPA_SUFFICIENT_3D - 1e-3
        assert est.kappa_hi <= KAPPA_NECESSARY + 1e-3
        print(f"  empirical 3-d threshold estimate: {est.midpoint:.6f} "
              f"(bracket [{est.kappa_lo:.6f}, {est.kappa_hi:.6f}], "
              f"value not asserted)")

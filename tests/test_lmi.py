import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from kantorovich import forms, linalg, lmi, sampling
from kantorovich.forms import (DeltaVector, det3_batch, det_m_alpha_coefs,
                               m_form, p_form, q_form)
from kantorovich.linalg import min_eig_batch
from kantorovich.lmi import (AB_GRID_DEFAULT, Axis, BOX_GRID_DEFAULT,
                             OMEGA_GRID_DEFAULT, GridSpec, box_inequalities,
                             box_inequality_grid_check,
                             detm_alpha_convexity_check, detm_alpha_poly,
                             robust_psd_grid, robust_psd_grids)
from kantorovich.sampling import SamplePlan, scan_design

PLAN = SamplePlan(angles_2d=2048, fibonacci_3d=20_000, random_nd=40_000)


# --- grid plumbing -----------------------------------------------------------

def test_axis_validation():
    with pytest.raises(ValueError):
        Axis(2.0, 4.0, 0)
    with pytest.raises(ValueError):
        Axis(4.0, 2.0, 5)
    with pytest.raises(ValueError):
        Axis(2.0, 4.0, 1)  # single node needs lo == hi
    assert Axis(3.0, 3.0, 1).nodes().tolist() == [3.0]
    with pytest.raises(ValueError):
        Axis(np.inf, 4.0, 3)
    with pytest.raises(ValueError):
        Axis(2.0, np.nan, 3)
    with pytest.raises(ValueError, match="span"):
        Axis(-1e308, 1e308, 3)  # finite bounds, hi - lo overflows
    assert Axis(2.0, 1e308, 3).nodes()[-1] == 1e308


def test_axis_count_is_at_most_one_block():
    # no node array outgrows one scan block
    with pytest.raises(ValueError):
        Axis(2.0, 4.0, 4097)
    assert Axis(2.0, 4.0, 4096).nodes()[-1] == 4.0


def test_gridspec_cube():
    g = GridSpec.cube(2.0, 4.0, 5, 3)
    assert g.ndim == 3
    assert g.cells == 125
    for nodes in g.node_arrays():
        np.testing.assert_allclose(nodes, [2.0, 2.5, 3.0, 3.5, 4.0])
    with pytest.raises(ValueError):
        GridSpec(())


# --- sampled LMI -------------------------------------------------------------

def test_verify_h_lmi_is_scan_design_and_reports_a_row_copy():
    # The report holds a copy of the worst row, a tuple of Python floats,
    # so no caller indexes (or keeps alive) a whole design.
    d = DeltaVector(dim=5, values=np.full(10, 2.0))  # worst row in the design
    rep = scan_design(d, PLAN)
    assert isinstance(rep, sampling.SampleReport) and rep.passed
    pts = sampling.all_samples(5, PLAN)
    res = sampling.scan_h(d, pts)
    assert res.worst_index >= 5 * 4
    assert (np.array(rep.worst_point).tobytes()
            == pts[res.worst_index].tobytes())
    assert type(rep.worst_point) is tuple
    assert all(type(c) is float for c in rep.worst_point)
    assert (rep.samples, rep.seed) == (pts.shape[0], PLAN.seed)


def test_lmi_identity_delta():
    d = DeltaVector(dim=3, values=np.full(3, 2.0))
    rep = scan_design(d, PLAN)
    assert rep.passed
    assert rep.worst_value > 0.0


def test_lmi_boundary_delta6():
    d = DeltaVector(dim=2, values=np.array([6.0]))
    rep = scan_design(d, PLAN)
    assert rep.passed
    assert rep.worst_value == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(np.abs(rep.worst_point),
                               np.full(2, 1.0 / math.sqrt(2.0)), atol=1e-12)


def test_lmi_violated_delta62():
    d = DeltaVector(dim=2, values=np.array([6.2]))
    rep = scan_design(d, PLAN)
    assert not rep.passed
    assert rep.worst_value < 0.0
    np.testing.assert_allclose(np.abs(rep.worst_point),
                               np.full(2, 1.0 / math.sqrt(2.0)), atol=1e-3)


def test_lmi_worst_point_reevaluates(rng):
    # The worst point, evaluated on its own, gives the worst value bit for
    # bit: h is built row by row, so its rows do not depend on the batch.
    from kantorovich.forms import h_form
    from kantorovich.linalg import min_eigenvalue
    for n in range(2, 9):
        for _ in range(4):
            d = DeltaVector(dim=n,
                            values=rng.uniform(2.0, 7.0, n * (n - 1) // 2))
            rep = scan_design(d, PLAN)
            h = h_form(d, rep.worst_point)
            assert min_eig_batch(h) == rep.worst_value
            assert min_eigenvalue(h) == pytest.approx(rep.worst_value,
                                                      abs=1e-12)


def test_sphere_sufficiency(rng):
    # homogeneity: lambda_min(h(t y)) = t^2 lambda_min(h(y))
    from kantorovich.forms import h_form
    from kantorovich.linalg import min_eigenvalue
    d = DeltaVector(dim=3, values=np.array([2.5, 5.0, 3.0]))
    for _ in range(20):
        y = rng.standard_normal(3)
        t = float(rng.uniform(0.2, 4.0))
        a = min_eigenvalue(h_form(d, t * y))
        b = min_eigenvalue(h_form(d, y))
        assert a == pytest.approx(t * t * b, rel=1e-10, abs=1e-12)


def test_constant_delta_membership():
    """Constant ratio-sum vectors pass on both candidate intervals.

    Two printed upper endpoints circulate for the same fact: sqrt(5+2 sqrt 6)
    and 2 sqrt 3 = (6+2 sqrt 6)/sqrt(5+2 sqrt 6).  Both pass for dims 2..4
    (the sampled minimum stays positive up to the constant value 6).
    """
    small = math.sqrt(5.0 + 2.0 * math.sqrt(6.0))
    big = 2.0 * math.sqrt(3.0)
    assert (6.0 + 2.0 * math.sqrt(6.0)) / small == pytest.approx(big,
                                                                 abs=1e-15)
    for n in (2, 3, 4):
        npairs = n * (n - 1) // 2
        for d in (small, big):
            rep = scan_design(DeltaVector(dim=n, values=np.full(npairs, d)),
                               PLAN)
            assert rep.passed, f"n={n} d={d}"


# --- box inequalities --------------------------------------------------------

def test_box_values_hand_arithmetic():
    v = box_inequalities(2.0, 2.0, 2.0)
    assert v.psi == pytest.approx(8.0)
    assert v.chi1 == pytest.approx(12.0)
    v = box_inequalities(2.0, 2.0, 4.0)
    assert v.psi == pytest.approx(4.0)
    # out-of-box witness that the certified range really is [2, 4]
    v = box_inequalities(2.0, 6.0, 2.0)
    assert v.chi1 == pytest.approx(-12.0)


def test_box_grid_pass():
    summary = box_inequality_grid_check(GridSpec.cube(2.0, 4.0, 9, 3))
    assert summary.passed
    by_id = {r.grid_id: r for r in summary.reports}
    assert set(by_id) == {"box_chi1", "box_chi2", "box_chi3", "box_chi4",
                          "box_psi"}
    psi = by_id["box_psi"]
    assert psi.worst_value == pytest.approx(4.0)
    assert sorted(psi.worst_cell) == [2.0, 2.0, 4.0]


def test_box_grid_fails_outside():
    summary = box_inequality_grid_check(GridSpec.cube(2.0, 6.0, 9, 3))
    assert not summary.passed
    assert min(r.worst_value for r in summary.reports) <= -12.0


def test_box_single_node_grid():
    grid = GridSpec(tuple(Axis(3.0, 3.0, 1) for _ in range(3)))
    summary = box_inequality_grid_check(grid)
    assert summary.passed
    by_id = {r.grid_id: r for r in summary.reports}
    assert by_id["box_psi"].worst_value == pytest.approx(12.0)
    assert by_id["box_psi"].cells == 1


def test_box_refinement_keeps_passing():
    coarse = box_inequality_grid_check(GridSpec.cube(2.0, 4.0, 11, 3))
    fine = box_inequality_grid_check(GridSpec.cube(2.0, 4.0, 21, 3))
    assert coarse.passed and fine.passed
    # the refined minimum can only move down toward the true one
    worst = [min(r.worst_value for r in s.reports) for s in (coarse, fine)]
    assert worst[1] <= worst[0] + 1e-12


# --- robust PSD grids --------------------------------------------------------

def test_robust_grids_pass_coarse():
    omega = GridSpec.cube(2.0, 4.0, 7, 3)
    ab = GridSpec.cube(-1.0, 1.0, 9, 2)
    for form in ("M", "P", "Q"):
        rep = robust_psd_grid(form, omega, ab)
        assert rep.passed, form
        assert rep.grid_id == f"robust_{form}"
        assert rep.cells == 343 * 81
        assert len(rep.worst_cell) == 5


def test_robust_grid_single_cell():
    omega = GridSpec(tuple(Axis(2.0, 2.0, 1) for _ in range(3)))
    ab = GridSpec((Axis(0.0, 0.0, 1), Axis(0.0, 0.0, 1)))
    rep = robust_psd_grid("M", omega, ab)
    # m((2,2,2), 0, 0) = diag(3, 1, 1)
    assert rep.worst_value == pytest.approx(1.0)
    assert rep.worst_cell == (2.0, 2.0, 2.0, 0.0, 0.0)


def test_robust_grid_bad_form():
    with pytest.raises(ValueError):
        robust_psd_grid("X", OMEGA_GRID_DEFAULT, AB_GRID_DEFAULT)
    with pytest.raises(ValueError):
        robust_psd_grid("M", AB_GRID_DEFAULT, AB_GRID_DEFAULT)


# --- robust rows derived from one m scan -------------------------------------

FORM_BUILDERS = {"M": m_form, "P": p_form, "Q": q_form}


def _single(values):
    return GridSpec(tuple(Axis(float(v), float(v), 1) for v in values))


def _count_m_scans(monkeypatch):
    scan = lmi.robust_psd_grid
    calls = []

    def counting(form, omega_grid, *args, **kwargs):
        calls.append((form, omega_grid))
        return scan(form, omega_grid, *args, **kwargs)

    monkeypatch.setattr(lmi, "robust_psd_grid", counting)
    return calls


@pytest.mark.parametrize("form", ["M", "P", "Q"])
def test_robust_single_cell_is_form_eigenvalue(rng, form):
    # P and Q are scanned as m over permuted omega; a single cell must still
    # give the smallest eigenvalue of the paper's own p_form / q_form there
    for _ in range(50):
        w = rng.uniform(2.0, 4.0, size=3)
        ab = rng.uniform(-1.0, 1.0, size=2)
        rep = robust_psd_grid(form, _single(w), _single(ab))
        want = np.linalg.eigvalsh(FORM_BUILDERS[form](w, *ab))[0]
        assert rep.worst_value == pytest.approx(want, rel=1e-12)
        assert rep.worst_cell == tuple(w) + tuple(ab)


def test_robust_grids_scan_m_once_on_a_cube(monkeypatch):
    omega = GridSpec.cube(2.0, 4.0, 7, 3)
    ab = GridSpec.cube(-1.0, 1.0, 9, 2)
    calls = _count_m_scans(monkeypatch)
    rows = robust_psd_grids(omega, ab)
    assert calls == [("M", omega)]
    assert [r.grid_id for r in rows] == ["robust_M", "robust_P", "robust_Q"]
    for r in rows:
        assert r.passed
        assert r.cells == 343 * 81
        one = robust_psd_grid(r.grid_id[-1], _single(r.worst_cell[:3]),
                              _single(r.worst_cell[3:]))
        assert one.worst_value == pytest.approx(r.worst_value, rel=1e-12)
        w, a, b = r.worst_cell[:3], *r.worst_cell[3:]
        lam = np.linalg.eigvalsh(FORM_BUILDERS[r.grid_id[-1]](w, a, b))[0]
        assert lam == pytest.approx(r.worst_value, rel=1e-12)


@pytest.mark.parametrize("counts,scans", [((3, 4, 4), 2), ((3, 4, 5), 3)])
def test_robust_grids_match_each_form(monkeypatch, counts, scans):
    # off a cube the permuted omega axes differ: one m scan per distinct
    # order, and each row is the minimum of its own form over the grid
    omega = GridSpec(tuple(Axis(2.0, 4.0, n) for n in counts))
    ab = GridSpec.cube(-1.0, 1.0, 5, 2)
    calls = _count_m_scans(monkeypatch)
    rows = robust_psd_grids(omega, ab)
    assert len(calls) == scans
    g = np.meshgrid(*omega.node_arrays(), *ab.node_arrays(), indexing="ij")
    w = np.stack(g[:3], axis=-1)
    for r in rows:
        form = r.grid_id[-1]
        assert r == robust_psd_grid(form, omega, ab)
        lam = np.linalg.eigvalsh(FORM_BUILDERS[form](w, g[3], g[4]))[..., 0]
        assert r.worst_value == pytest.approx(lam.min(), rel=1e-12)
    # the m row is the packed-stack scan, bit for bit, at its first argmin
    lam = min_eig_batch(m_form(w, g[3], g[4]))
    k = np.unravel_index(int(np.argmin(lam)), lam.shape)
    assert rows[0].worst_value == lam[k]
    assert rows[0].worst_cell == tuple(float(x[k]) for x in g)


# --- the sign fold of the robust scan ----------------------------------------

def test_min_eig_bitwise_even_in_alpha_and_beta(rng):
    # m(w, -a, b) and m(w, a, -b) are m conjugated by diag(1, -1, 1) and
    # diag(1, 1, -1), so lambda_min is even in exact arithmetic; the fold
    # needs LAPACK's eigvalsh to be even bit for bit as well
    w = rng.uniform(2.0, 6.0, size=(200, 1, 1, 3))
    ab = np.concatenate([[0.0, 1.0, -1.0], rng.uniform(-1.0, 1.0, size=9)])
    al, be = ab[:, None], ab[None, :]
    lam = min_eig_batch(m_form(w, al, be))
    for sa, sb in ((-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)):
        flip = min_eig_batch(m_form(w, sa * al, sb * be))
        np.testing.assert_array_equal(flip, lam)


def _full_plane_scan(omega, ab):
    """The robust_M report of an unfolded, unscreened scan: every cell of
    the grid at once, worst cell at the first argmin in C order."""
    g = np.meshgrid(*omega.node_arrays(), *ab.node_arrays(), indexing="ij")
    lam = min_eig_batch(m_form(np.stack(g[:3], axis=-1), g[3], g[4]))
    k = np.unravel_index(int(np.argmin(lam)), lam.shape)
    return lmi.GridScanReport(
        grid_id="robust_M", passed=bool(lam[k] >= -lmi.GRID_TOL),
        tolerance=lmi.GRID_TOL, worst_value=float(lam[k]),
        worst_cell=tuple(float(x[k]) for x in g), cells=lam.size)


OMEGA_SMALL = GridSpec((Axis(2.0, 4.0, 3), Axis(2.0, 4.0, 2),
                        Axis(2.0, 5.0, 3)))
# an omega grid whose nodes overflow the scans' bounds
HUGE_OMEGA = GridSpec.cube(2.0, 1e155, 3, 3)
# an omega grid whose first axis is a single node
ONE_NODE_AXIS = GridSpec((Axis(3.0, 3.0, 1), Axis(2.0, 4.0, 5),
                          Axis(2.0, 4.0, 5)))


@pytest.mark.parametrize("n", [2, 3, 5, 9, 17, 33])
def test_folded_scan_exact_on_symmetric_nodes(n):
    nodes = Axis(-1.0, 1.0, n).nodes()
    assert np.array_equal(nodes, -nodes[::-1])  # linspace is exact here
    ab = GridSpec.cube(-1.0, 1.0, n, 2)
    for omega in (OMEGA_SMALL, GridSpec.cube(2.0, 5.9, 3, 3)):
        assert robust_psd_grid("M", omega, ab) == _full_plane_scan(omega, ab)


@pytest.mark.parametrize("axes", [
    (Axis(-1.0, 0.5, 7), Axis(-0.25, 1.0, 6)),
    (Axis(-1.0, 1.0, 9), Axis(-0.25, 1.0, 6)),
    (Axis(-0.5, 1.0, 6), Axis(-1.0, 1.0, 5)),
])
def test_asymmetric_axis_scanned_whole(axes):
    ab = GridSpec(axes)
    assert (robust_psd_grid("M", OMEGA_SMALL, ab)
            == _full_plane_scan(OMEGA_SMALL, ab))


def _count_floor_skips(monkeypatch):
    """Count the cells each floor screen (lmi._unscreened) skips."""
    screen = lmi._unscreened
    skipped = []

    def counting(lo, worst):
        kept = screen(lo, worst)
        skipped.append(lo.size - kept.size)
        return kept

    monkeypatch.setattr(lmi, "_unscreened", counting)
    return skipped


@pytest.mark.parametrize("n", [2, 5, 6, 41])
def test_folded_scan_visits_one_quadrant(monkeypatch, n):
    # Every folded cell is either visited by the Cholesky screen or skipped,
    # with its whole omega cell, by the omega-cell floor: exactly once.  The
    # corner pass visits the planes of the 8 corners of the omega box first,
    # after their seeds: every 5th folded node of each axis.
    visited, solved = [], []

    def counting(entries, worst, margin):
        lam = linalg.screened_min_eig(entries, worst, margin)
        visited.append(lam.size)
        solved.append(int(np.sum(lam != np.inf)))
        return lam

    monkeypatch.setattr(lmi, "screened_min_eig", counting)
    skipped = _count_floor_skips(monkeypatch)
    quadrant = ((n + 1) // 2) ** 2
    seeds = len(range(0, (n + 1) // 2, 5)) ** 2
    for omega in (OMEGA_SMALL, GridSpec.cube(2.0, 4.0, 7, 3)):
        for counts in (visited, solved, skipped):
            counts.clear()
        rep = robust_psd_grid("M", omega, GridSpec.cube(-1.0, 1.0, n, 2))
        assert (sum(visited) + sum(skipped) * quadrant
                == (omega.cells + 8) * quadrant + 8 * seeds)
        assert 0 < sum(solved) <= sum(visited)
        assert rep.cells == omega.cells * n * n
    assert sum(skipped) > 0 or n < 41  # the 7^3 grid skips at 41 nodes


def test_robust_scan_eigensolves_few_cells(monkeypatch):
    # At the default grids the corner pass eigensolves 25 seed nodes per
    # corner, then screens the 8 corner planes of 21 x 21 folded nodes
    # against their seeds and eigensolves 22 of them; the floor passes only
    # the minimum's omega cell, (4, 4, 2), whose screen keeps 4 nodes.
    visited, solved = [], []

    def counting(mats):
        solved.append(mats.shape[0])
        return min_eig_batch(mats)

    def screening(entries, worst, margin):
        visited.append(entries.shape[2])
        return linalg.screened_min_eig(entries, worst, margin)

    monkeypatch.setattr(linalg, "min_eig_batch", counting)
    monkeypatch.setattr(lmi, "screened_min_eig", screening)
    assert robust_psd_grid("M").passed
    assert visited == [8 * 5 * 5, 8 * 21 * 21, 21 * 21]
    assert solved == [8 * 5 * 5, 22, 4]


def test_robust_scan_finds_minimum_just_below_running_worst(monkeypatch):
    # One cell per block: the first alpha node sets the running minimum,
    # the second lies below it by far less than the screen's margin.  The
    # screen must not clear it.
    monkeypatch.setattr(lmi, "_BLOCK", 1)
    w, a0, be = (4.0, 4.0, 2.0), -0.5, -0.75
    lam = [min_eig_batch(m_form(w, a, be)) for a in (a0 - 1e-11, a0)]
    assert 0.0 < lam[0] - lam[1] < lmi.PSD_EPS
    omega = GridSpec(tuple(Axis(x, x, 1) for x in w))
    ab = GridSpec((Axis(a0 - 1e-11, a0, 2), Axis(be, be, 1)))
    rep = robust_psd_grid("M", omega, ab)
    assert (rep.worst_value, rep.worst_cell) == (lam[1], w + (a0, be))


def test_robust_single_cell_repeated_eigenvalue():
    # m at omega (2, 2, 2), alpha = beta = 0 is diag(3, 1, 1)
    one = GridSpec.cube(2.0, 2.0, 1, 3), GridSpec.cube(0.0, 0.0, 1, 2)
    rep = robust_psd_grid("M", *one)
    assert rep.worst_value == pytest.approx(1.0, abs=4 * np.spacing(1.0))


# (omega, ab) grids on which every screened or floored scan must equal the
# scan without screens: negative omega, omega up to 6 (where m is singular),
# a first minimum on an edge of the omega box, not at a corner, at (3.7, 4.0,
# 2.5), a margin of 1e-3 (omega up to 1e6) and a single-node omega axis.
EDGE_GRIDS = [
    (GridSpec.cube(2.0, 4.0, 5, 3), GridSpec.cube(-1.0, 1.0, 9, 2)),
    (GridSpec.cube(2.0, 5.9, 4, 3), GridSpec.cube(-1.0, 1.0, 5, 2)),
    (OMEGA_SMALL, GridSpec((Axis(-1.0, 0.5, 7), Axis(-0.25, 1.0, 6)))),
    (GridSpec.cube(2.0, 1e155, 3, 3), GridSpec.cube(-1.0, 1.0, 3, 2)),
    (GridSpec.cube(2.0, 1e308, 3, 3), GridSpec.cube(-1.0, 1.0, 3, 2)),
    (GridSpec.cube(2.0, 4.0, 3, 3),
     GridSpec((Axis(-1.0, 1e200, 3), Axis(-1.0, 1.0, 3)))),
    (GridSpec.cube(2.5, 4.0, 4, 3), GridSpec.cube(-1.0, 1.0, 7, 2)),
    (GridSpec.cube(-3.0, 4.5, 7, 3), GridSpec.cube(-1.0, 1.0, 5, 2)),
    (GridSpec.cube(2.0, 6.0, 5, 3), GridSpec.cube(-1.0, 1.0, 9, 2)),
    (GridSpec.cube(2.5, 4.0, 6, 3), GridSpec.cube(-1.0, 1.0, 9, 2)),
    (GridSpec.cube(2.0, 1e6, 9, 3), GridSpec.cube(-1.0, 1.0, 5, 2)),
    (ONE_NODE_AXIS, GridSpec.cube(-1.0, 1.0, 9, 2)),
]


@pytest.mark.parametrize("size", [1, 7, 4096])
@pytest.mark.parametrize("omega, ab", EDGE_GRIDS)
def test_screened_robust_scan_is_the_unscreened_scan(monkeypatch, size,
                                                     omega, ab):
    # Value and first cell of the unscreened scan at any block size,
    # overflowing grids included.  On the last grid alpha^2 overflows from
    # the second alpha node on: those cells read NaN, and the first of them
    # is the worst.
    def unscreened(entries, worst, margin):
        return linalg.screened_min_eig(entries, math.inf, margin)

    monkeypatch.setattr(lmi, "_BLOCK", size)
    got = robust_psd_grid("M", omega, ab)
    monkeypatch.setattr(lmi, "screened_min_eig", unscreened)
    want = robust_psd_grid("M", omega, ab)
    assert got.worst_cell == want.worst_cell
    assert (got.worst_value == want.worst_value
            or math.isnan(got.worst_value) and math.isnan(want.worst_value))


# --- the floors of the robust and detm scans -------------------------------

def _no_floors(lo, worst):
    return np.arange(lo.size)


def _key(report):
    """Every field of a report, floats by their bits (NaN included)."""
    return (report.grid_id, report.passed, report.cells,
            float(report.worst_value).hex(),
            tuple(float(x).hex() for x in report.worst_cell))


FLOOR_OMEGAS = [
    GridSpec.cube(2.0, 4.0, 5, 3),
    GridSpec.cube(2.5, 4.0, 4, 3),
    GridSpec.cube(2.0, 5.9, 4, 3),
    GridSpec.cube(2.0, 6.0, 5, 3),
    GridSpec.cube(-3.0, 4.5, 7, 3),
    OMEGA_SMALL,
]


@pytest.mark.parametrize("size", [1, 7, 4096])
@pytest.mark.parametrize("omega, ab", EDGE_GRIDS)
def test_floored_scans_are_the_unfloored_scans(monkeypatch, size, omega, ab):
    # Bitwise the reports of the scans with every floor switched off, at
    # any block size, overflowing and negative omega grids included; the
    # box check scans the omega grid.  Its vertex floor is NaN on the grids
    # with a d < 0 (chi1, chi2), and on the first grid psi ties at 4 on
    # three corners, of which the first in C order is reported.
    monkeypatch.setattr(lmi, "_BLOCK", size)
    beta = GridSpec((ab.axes[1],))

    def scan_all():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            detm = detm_alpha_convexity_check(omega, beta, alpha_count=9)
            box = box_inequality_grid_check(omega)
            return ([_key(r) for r in robust_psd_grids(omega, ab)]
                    + [_key(r) for r in detm.reports]
                    + [_key(r) for r in box.reports])

    skipped = _count_floor_skips(monkeypatch)
    got = scan_all()
    monkeypatch.setattr(lmi, "_unscreened", _no_floors)
    assert got == scan_all()
    if size == 7 and omega.axes[0].hi < 1e9 and ab.axes[0].hi < 1e9:
        assert sum(skipped) > 0  # the floors did skip cells
    if omega == EDGE_GRIDS[0][0]:
        assert got[-1][3:] == (float(4.0).hex(), tuple(
            float(x).hex() for x in (2.0, 2.0, 4.0)))


def test_floored_scan_finds_a_minimum_on_an_edge(monkeypatch):
    # The first minimum of this grid sits on an edge of the omega box, not
    # at a corner; the floored scan reports the unfloored scan's cell.
    omega = GridSpec.cube(2.5, 4.0, 11, 3)
    ab = GridSpec.cube(-1.0, 1.0, 21, 2)
    got = robust_psd_grid("M", omega, ab)
    assert got.worst_cell == (3.4, 4.0, 2.5, 0.0, -0.8)
    monkeypatch.setattr(lmi, "_unscreened", _no_floors)
    assert _key(robust_psd_grid("M", omega, ab)) == _key(got)


def _scan_margin(omega, plane):
    """The robust scan's margin, 1e-9 (3 + W) s^2 (see robust_psd_grid)."""
    big = max(np.abs(n).max() for n in omega.node_arrays())
    s = max([1.0] + [np.abs(n).max() for n in plane])
    return lmi.PSD_EPS * (3.0 + big) * s * s


@pytest.mark.parametrize("omega", FLOOR_OMEGAS + [
    ONE_NODE_AXIS, GridSpec.cube(2.0, 1e6, 9, 3),
    GridSpec.cube(2.0, 1e155, 3, 3)])
@pytest.mark.parametrize("plane", [
    (Axis(-1.0, 1.0, 9), Axis(-1.0, 1.0, 9)),
    (Axis(-1.0, -1.0, 1), Axis(0.0, 0.0, 1)),  # the probe (e1 - e2)/sqrt(2)
    (Axis(0.0, 0.0, 1), Axis(-1.0, -1.0, 1)),  # the probe (e1 - e3)/sqrt(2)
    (Axis(-0.5, 1.0, 6), Axis(-1.0, 0.25, 5)),
])
def test_robust_floor_is_below_every_cell(monkeypatch, omega, plane):
    # The concavity floor G, as the scan computes it for each of its omega
    # cells (a block at a time, on the block's node arrays), is <=
    # lambda_min m at each (alpha, beta) node the scan visits there, up to
    # eigvalsh's rounding; it is exact, to within the margin, at the
    # corners.  G is NaN exactly where the entry bound fails, and
    # everywhere once a corner is NaN.
    floors, seen = lmi._concave_floors, []

    def recording(coords, nodes, mu, margin):
        lo = floors(coords, nodes, mu, margin)
        seen.append((lmi._cells(coords).reshape(-1, 3), lo.reshape(-1)))
        mu_nan = np.array(mu)
        mu_nan[1, 0, 1] = np.nan
        assert np.isnan(floors(coords, nodes, mu_nan, margin)).all()
        return lo

    monkeypatch.setattr(lmi, "_concave_floors", recording)
    robust_psd_grid("M", omega, GridSpec(plane))
    w, lo = (np.concatenate(x) for x in zip(*seen))
    assert len(w) == omega.cells
    nodes = tuple(lmi._folded(ax) for ax in plane)
    margin = _scan_margin(omega, nodes)
    s = max(1.0, *(np.abs(n).max() for n in nodes))
    big = (3.0 + np.abs(w).max()) * s * s
    np.testing.assert_array_equal(np.isnan(lo), not big <= 1e150)
    if big > 1e150:
        return
    al, be = np.meshgrid(*nodes, indexing="ij")
    lam = min_eig_batch(m_form(w[:, None, None, :], al, be))
    low = lam.reshape(len(w), -1).min(axis=1)
    assert np.all(lo <= low + 1e-13 * (3.0 + np.abs(w).max()))
    ends = [(n[0], n[-1]) for n in omega.node_arrays()]
    corner = np.all([np.isin(w[:, j], ends[j]) for j in range(3)], axis=0)
    assert corner.sum() == np.prod([len(set(e)) for e in ends])
    assert np.all(lo[corner] >= low[corner] - 2 * margin)


BOX_FLOOR_GRIDS = FLOOR_OMEGAS + [
    ONE_NODE_AXIS, GridSpec.cube(2.0, 4.0, 41, 3),
    GridSpec((Axis(-2.0, 3.0, 6), Axis(1.0, 4.0, 4), Axis(-1.0, 2.0, 5))),
    GridSpec.cube(-1e6, 1e6, 5, 3), GridSpec.cube(0.0, 1e-100, 3, 3),
    GridSpec.cube(2.0, 1e50, 3, 3), GridSpec.cube(2.0, 1e51, 3, 3)]


@pytest.mark.parametrize("grid", BOX_FLOOR_GRIDS)
def test_box_floor_is_below_every_cell(grid):
    # Each box row's vertex floor at a d1 node lies strictly below every
    # value of the row on that node's (d2, d3) plane, as the scan computes
    # it, and within twice its margin of the least vertex value.  It is NaN
    # exactly where the row need not be concave in d2 and in d3 (chi1 where
    # a d3 node is < 0, chi2 where d1 < 0) or where the term bound S = 12 +
    # 6 D + 3 D^2 + D^3, D = max(1, |d|), exceeds 1e150.
    d1, d2, d3 = grid.node_arrays()
    with np.errstate(over="ignore", invalid="ignore"):
        floors = lmi._box_floors(d1, (d2, d3))
        values = box_inequalities(d1[:, None, None], d2[:, None], d3)
    plane = max(1.0, np.abs(d2).max(), np.abs(d3).max())
    big = np.maximum(plane, np.abs(d1))
    huge = 12.0 + 6.0 * big + 3.0 * big ** 2 + big ** 3 > 1e150
    bent = {"chi1": np.full(d1.shape, d3.min() < 0.0), "chi2": d1 < 0.0}
    for name, lo, v in zip(lmi.BoxValues._fields, floors, values):
        np.testing.assert_array_equal(
            np.isnan(lo), huge | bent.get(name, False), name)
        ok = ~np.isnan(lo)
        low = v.reshape(len(d1), -1).min(axis=1)
        assert np.all(lo[ok] < low[ok]), name
        ends = v[:, [0, -1]][:, :, [0, -1]].reshape(len(d1), -1).min(axis=1)
        margin = 2.0 ** -48 * (12.0 + 6.0 * big + 3.0 * big ** 2 + big ** 3)
        assert np.all(lo[ok] >= ends[ok] - 2.0 * margin[ok]), name


@pytest.mark.parametrize("omega, ab, size", [
    (OMEGA_GRID_DEFAULT, AB_GRID_DEFAULT, 4096),
    (OMEGA_GRID_DEFAULT, AB_GRID_DEFAULT, 1),
    (GridSpec.cube(2.5, 4.0, 41, 3), GridSpec.cube(-1.0, 1.0, 81, 2), 4096),
    (HUGE_OMEGA, GridSpec.cube(-1.0, 1.0, 3, 2), 4096),
    (ONE_NODE_AXIS, GridSpec.cube(-1.0, 1.0, 9, 2), 4096),
    (ONE_NODE_AXIS, GridSpec.cube(-1.0, 1.0, 9, 2), 1),
    (GridSpec.cube(-3.0, 4.5, 7, 3), GridSpec.cube(-1.0, 1.0, 5, 2), 7),
])
def test_screened_corner_pass_is_the_unscreened_pass(monkeypatch, omega, ab,
                                                     size):
    # The corner minima mu, bit for bit those of eigensolving every node of
    # the corner planes (NaN where the entry bound fails, as on HUGE_OMEGA),
    # while the corners' seeds screen the planes.
    monkeypatch.setattr(lmi, "_BLOCK", size)
    nodes = omega.node_arrays()
    plane = tuple(lmi._folded(ax) for ax in ab.axes)
    buf = np.empty((3, 3, size))
    bound = _scan_margin(omega, plane) / lmi.PSD_EPS
    with np.errstate(over="ignore", invalid="ignore"):
        got = lmi._corner_minima(nodes, plane, buf, bound)
        monkeypatch.setattr(linalg, "cholesky_clears",
                            lambda entries, shift: np.zeros(entries.shape[2],
                                                            dtype=bool))
        want = lmi._corner_minima(nodes, plane, buf, bound)
    assert got.tobytes() == want.tobytes()
    assert np.isnan(got).all() == (omega is HUGE_OMEGA)


FLOOR_TINY_HUGE = [GridSpec.cube(0.0, 1e-100, 3, 3),
                   GridSpec.cube(-1e100, 1e100, 3, 3)]


def _detm_values(w, betas, alpha_count):
    """Each detm row at the omega rows w (n, 3) x betas x alpha nodes, as
    the scan computes it: (n, betas * alpha nodes), (n, betas) for c0."""
    c = [np.broadcast_to(x, (len(w), len(betas))).reshape(-1, 1)
         for x in det_m_alpha_coefs(w[:, None, :], betas)]
    a2 = Axis(-1.0, 1.0, alpha_count).nodes() ** 2
    return {name: row(*c, a2, a2 * a2).reshape(len(w), -1)
            for name, row in lmi._DETM_ROWS.items()}


def _omega_rows(omega):
    return np.stack(np.meshgrid(*omega.node_arrays(), indexing="ij"),
                    axis=-1).reshape(-1, 3)


@pytest.mark.parametrize("omega", FLOOR_OMEGAS + FLOOR_TINY_HUGE)
@pytest.mark.parametrize("alpha_count", [2, 9, 41])
def test_detm_floors_are_below_every_alpha_node(omega, alpha_count):
    # each row's floor from an (omega, beta) cell's own coefficients is at
    # or below its value at every alpha node, as the scan computes it; NaN
    # only where the coefficients are out of range
    betas = Axis(-1.0, 1.0, 7).nodes()
    w = _omega_rows(omega)
    c = [np.broadcast_to(x, (len(w), len(betas))).reshape(-1)
         for x in det_m_alpha_coefs(w[:, None, :], betas)]
    big = 2.0 * np.abs(c[1]) + 24.0 * np.abs(c[2]) + 360.0 * np.abs(c[3])
    values = _detm_values(w, betas, alpha_count)
    for (name, v), lo in zip(values.items(), lmi._detm_floors(*c, big)):
        v = v.reshape(len(w) * len(betas), -1).min(axis=1)
        ok = ~np.isnan(lo)
        assert ok.any(), name
        assert np.all(lo[ok] <= v[ok]), name


@pytest.mark.parametrize("omega", FLOOR_OMEGAS + FLOOR_TINY_HUGE)
@pytest.mark.parametrize("beta", [Axis(-1.0, 1.0, 7), Axis(-0.5, 1.0, 6),
                                  Axis(0.5, 0.5, 1)])
def test_detm_omega_floors_are_below_every_node(omega, beta):
    # each row's omega-cell floor over the axis's computed t = beta^2 is at
    # or below its value at every (beta, alpha) node of the cell, as the
    # scan computes it.  It is NaN exactly where the cell's coefficients
    # are out of range: on these grids their terms are below 1e4 or above
    # 1e190 at some node.
    betas = beta.nodes()
    t = betas ** 2
    w = _omega_rows(omega)
    with np.errstate(over="ignore", invalid="ignore"):
        floors = lmi._detm_floors(*lmi._coef_floors(w, t.min(), t.max()))
    values = _detm_values(w, betas, 9)
    c0, c2, c4, c6 = (np.abs(np.broadcast_to(x, (len(w), len(betas))))
                      for x in det_m_alpha_coefs(w[:, None, :], betas))
    huge = {"detm_alpha0": c0.max(axis=1) > 1e150}
    huge["detm_d2"] = huge["detm_d4"] = huge["detm_min_at_zero"] = (
        (2.0 * c2 + 24.0 * c4 + 360.0 * c6).max(axis=1) > 1e150)
    for (name, v), lo in zip(values.items(), floors):
        np.testing.assert_array_equal(np.isnan(lo), huge[name], name)
        ok = ~np.isnan(lo)
        assert np.all(lo[ok] <= v[ok].min(axis=1)), name
        # finite wherever in range: no factor's sign sends c0's floor to -inf
        assert np.all(np.isfinite(lo[ok])), name


def _exact_coef_floor(k, t0, t1):
    """sum_p min(k_p t0^p, k_p t1^p), exactly."""
    return sum(min(kp * t0 ** p, kp * t1 ** p) for p, kp in enumerate(k))


def test_detm_coef_floors_exact():
    # In Fraction arithmetic, on omega and beta nodes with few bits (so that
    # det_m_t_polys computes its parts exactly): the parts give det m at
    # every alpha; each termwise coefficient floor (c0 expanded into a cubic
    # in t) and each row floor is at or below its value at every t in [t0,
    # t1] and a2 in [0, 1]; and the computed floors lie below the exact
    # ones, by at most twice their margins.
    gen = np.random.default_rng(35)
    F = Fraction
    for _ in range(300):
        w = gen.integers(-48, 49, 3) / 8.0
        b0, b1 = sorted(gen.integers(0, 9, 2) / 8.0)
        t0, t1 = F(b0) ** 2, F(b1) ** 2
        q, a, b, c, d, e, c6 = (
            tuple(F(float(y)) for y in x) if isinstance(x, tuple)
            else F(float(x)) for x in forms.det_m_t_polys(w))
        w1, w2, w3 = (F(float(x)) for x in w)
        h, s = w2 / 2, max(F(1), t1)
        k2 = (-F(3, 8) * sum(c), -F(9, 4) * b, -F(3, 8) * a)
        k4 = (-F(3, 8) * sum(e), -F(3, 8) * d)
        k0 = tuple(F(3, 2) * k for k in (w1 * h, w1 * q + w3 * h,
                                         w1 * h + w3 * q, w3 * h))
        lo = [_exact_coef_floor(k, t0, t1) for k in (k2, k4, k0)]
        u1, u2 = abs(w1) + abs(w3) * s, abs(h) * (1 + s * s) + abs(q) * s
        margin0 = (F(3, 2) * u1 * u2 / 2 ** 48
                   + (1 + s ** 3) * (1 + u1 + u2) / F(2) ** 1000)
        got = lmi._coef_floors(w, float(t0), float(t1))
        assert F(float(got[1])) <= lo[0] <= F(float(got[1])) + 2 * (
            F(float(got[4])) / 2 ** 47)
        assert F(float(got[2])) <= lo[1]
        assert F(float(got[0])) <= lo[2] <= F(float(got[0])) + 2 * margin0
        g2 = 2 * lo[0] + 12 * min(lo[1], 0) + 30 * min(c6, 0)
        g4 = 24 * lo[1] + 360 * min(c6, 0)
        g0 = min(0, lo[0] + min(lo[1], 0) + min(c6, 0))
        for y in (b0, b1, (b0 + b1) / 2):
            t = F(y) ** 2
            c2v, c4v = (sum(kp * t ** p for p, kp in enumerate(k))
                        for k in (k2, k4))
            c0v = F(3, 2) * (w1 + w3 * t) * (w2 / 2 + q * t + w2 / 2 * t * t)
            assert lo[0] <= c2v and lo[1] <= c4v and lo[2] <= c0v
            for al in (F(0), F(1, 3), F(-3, 4), F(1)):
                a2 = al * al
                m = [[3 + w1 * a2 / 2 + w2 * t / 2, w1 * al, w2 * F(y)],
                     [w1 * al, w1 / 2 + 3 * a2 + w3 * t / 2, w3 * al * F(y)],
                     [w2 * F(y), w3 * al * F(y), w2 / 2 + w3 * a2 / 2 + 3 * t]]
                det = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] ** 2)
                       - m[0][1] * (m[0][1] * m[2][2] - m[1][2] * m[0][2])
                       + m[0][2] * (m[0][1] * m[1][2] - m[1][1] * m[0][2]))
                assert det == c0v + c2v * a2 + c4v * a2 ** 2 + c6 * a2 ** 3
                assert g2 <= 2 * c2v + 12 * c4v * a2 + 30 * c6 * a2 ** 2
                assert g4 <= 24 * c4v + 360 * c6 * a2
                assert g0 <= a2 * (c2v + c4v * a2 + c6 * a2 ** 2)


# Grids whose first minimum of a detm row lies off the corners of the omega
# box: on an edge or inside it.
OFF_CORNER_DETM = [
    (GridSpec((Axis(2.0, 5.0, 5), Axis(-10.0, -7.0, 5), Axis(-6.0, -1.0, 3))),
     "detm_d2"),
    (GridSpec((Axis(-8.0, -2.0, 4), Axis(1.0, 8.0, 3), Axis(-5.0, -2.0, 5))),
     "detm_d4"),
    (GridSpec((Axis(-7.0, 0.0, 4), Axis(-10.0, -3.0, 5), Axis(0.0, 2.0, 5))),
     "detm_min_at_zero"),
    (GridSpec.cube(-3.0, 4.5, 7, 3), "detm_alpha0"),
]


@pytest.mark.parametrize("size", [7, 4096])
@pytest.mark.parametrize("omega, name", OFF_CORNER_DETM)
def test_detm_scan_finds_a_minimum_off_the_corners(monkeypatch, size, omega,
                                                   name):
    monkeypatch.setattr(lmi, "_BLOCK", size)
    beta = GridSpec.cube(-1.0, 1.0, 7, 1)
    got = detm_alpha_convexity_check(omega, beta, alpha_count=9)
    row = next(r for r in got.reports if r.grid_id == name)
    ends = [(ax.lo, ax.hi) for ax in omega.axes]
    assert not all(x in e for x, e in zip(row.worst_cell, ends))
    monkeypatch.setattr(lmi, "_unscreened", _no_floors)
    want = detm_alpha_convexity_check(omega, beta, alpha_count=9)
    assert [_key(r) for r in got.reports] == [_key(r) for r in want.reports]


def _corner_least(omega, beta, alpha_count):
    """Each detm row's least value over the 8 omega corners x beta x alpha
    nodes, one corner and beta node at a time (NaN if any value is)."""
    a2 = Axis(-1.0, 1.0, alpha_count).nodes() ** 2
    a4 = a2 * a2
    values = {name: [] for name in lmi._DETM_ROWS}
    ends = (sorted({ax.lo, ax.hi}) for ax in omega.axes)
    for corner, be in itertools.product(itertools.product(*ends),
                                        beta.axes[0].nodes()):
        with np.errstate(all="ignore"):
            c0, c2, c4, c6 = det_m_alpha_coefs(np.array(corner), be)
            values["detm_d2"].append(2.0 * c2 + 12.0 * c4 * a2
                                     + 30.0 * c6 * a4)
            values["detm_d4"].append(24.0 * c4 + 360.0 * c6 * a2)
            values["detm_min_at_zero"].append(a2 * (c2 + c4 * a2 + c6 * a4))
            values["detm_alpha0"].append(np.array([c0]))
    return [float(np.min(np.concatenate(v))) for v in values.values()]


@pytest.mark.parametrize("omega", [OMEGA_GRID_DEFAULT, HUGE_OMEGA,
                                   ONE_NODE_AXIS]
                         + [g for g, _ in OFF_CORNER_DETM])
def test_detm_least_is_the_corner_minimum(monkeypatch, omega):
    # the least corner value that gates the detm scan is, bit for bit, each
    # row's minimum over the corners evaluated one by one: a value the grid
    # attains, or NaN where a corner value is
    beta = GridSpec.cube(-1.0, 1.0, 7, 1)
    scan, seen = lmi._floored_scan, []

    def recording(outer, least, *rest):
        seen.append([float(v) for v in least])
        return scan(outer, least, *rest)

    monkeypatch.setattr(lmi, "_floored_scan", recording)
    detm_alpha_convexity_check(omega, beta, alpha_count=9)
    want = _corner_least(omega, beta, 9)
    assert [[v.hex() for v in x] for x in seen] == [[v.hex() for v in want]]
    assert all(map(math.isnan, want)) == (omega is HUGE_OMEGA)


def test_floors_skip_at_the_default_grids(monkeypatch):
    skipped = _count_floor_skips(monkeypatch)
    assert robust_psd_grid("M").passed
    # every omega cell but the minimum's
    assert sum(skipped) == OMEGA_GRID_DEFAULT.cells - 1
    # the box check evaluates its 8 corners, the 4 plane vertices of each of
    # the 41 d1 nodes, and the 41 x 41 planes of d1 = 2 (chi1, psi) and
    # d1 = 4 (chi2, chi3, chi4 and psi's third tie) alone
    box, cells = lmi.box_inequalities, []

    def evaluating(d1, d2, d3):
        cells.append(np.broadcast(d1, d2, d3).size)
        return box(d1, d2, d3)

    monkeypatch.setattr(lmi, "box_inequalities", evaluating)
    assert box_inequality_grid_check().passed
    assert cells == [8, 4 * 41, 41 * 41, 41 * 41]
    # the detm scan computes coefficients at the 8 corners of the omega box
    # and at the omega cells no floor clears: 23 of the 9,261; it floors
    # each block of omega cells once, and never the corners alone
    coefs, seen = lmi.det_m_alpha_coefs, []
    coef_floors, floored = lmi._coef_floors, []

    def counting(omega, beta):
        seen.append(np.shape(omega)[0])
        return coefs(omega, beta)

    def flooring(w, t0, t1):
        floored.append(len(w))
        return coef_floors(w, t0, t1)

    monkeypatch.setattr(lmi, "det_m_alpha_coefs", counting)
    monkeypatch.setattr(lmi, "_coef_floors", flooring)
    assert detm_alpha_convexity_check().passed
    assert sum(seen) == 8 + 23
    omega = OMEGA_GRID_DEFAULT.node_arrays()
    assert floored == [lmi._cells(coords)[..., 0].size
                       for _, coords in lmi._blocks(omega, lmi._BLOCK)]


# --- non-finite cells --------------------------------------------------------


def test_worst_takes_the_first_nan_cell():
    nodes = (np.arange(6.0),)
    w = linalg.FirstMin()
    for start, block in ((0, [3.0, 1.0]), (2, [np.nan, -5.0]),
                         (4, [np.nan, -9.0])):
        w.update(start, np.array(block))
    assert math.isnan(w.value) and w.index == 2
    rep = lmi._report("x", w, nodes, 6)
    assert rep.worst_cell == (2.0,) and not rep.passed
    w = linalg.FirstMin()
    w.update(0, np.full(6, np.inf))  # an all-inf grid still names a cell
    assert w.value == math.inf and w.index == 0
    assert lmi._report("x", w, nodes, 6).worst_cell == (0.0,)


def test_overflowing_grids_fail_at_their_first_nan_cell():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        box = box_inequality_grid_check(HUGE_OMEGA)
        detm = detm_alpha_convexity_check(
            HUGE_OMEGA, GridSpec.cube(-1.0, 1.0, 3, 1), alpha_count=3)
        robust = robust_psd_grids(GridSpec.cube(2.0, 1e308, 3, 3),
                                  GridSpec.cube(-1.0, 1.0, 3, 2))
    assert not box.passed and not detm.passed
    g = np.meshgrid(*HUGE_OMEGA.node_arrays(), indexing="ij")
    with np.errstate(all="ignore"):
        values = box_inequalities(*g)
    for r, v in zip(box.reports, values):
        k = np.unravel_index(int(np.argmax(np.isnan(v))), v.shape)
        assert math.isnan(r.worst_value)
        assert r.worst_cell == tuple(float(x[k]) for x in g)
    for r in (*detm.reports, *robust):
        assert not r.passed, r.grid_id
        assert len(r.worst_cell) == 4 + (r.grid_id != "detm_alpha0")


def test_reports_independent_of_chunk_size(monkeypatch):
    # Every scan walks one block iterator; its reports equal the one-block
    # scan's at any block size.  On the first grid the blocks split inside
    # omega (down to one cell a block), on the second, whose (alpha, beta)
    # plane of 101^2 cells is larger than a block, inside the plane.
    cases = [((5, 6, 7), 9, (1, 7, 4096)), ((2, 2, 3), 101, (7, 4096))]
    for counts, n, sizes in cases:
        omega = GridSpec(tuple(Axis(2.0, 4.0, c) for c in counts))
        ab = GridSpec.cube(-1.0, 1.0, n, 2)
        beta = GridSpec.cube(-1.0, 1.0, n, 1)

        def scan_all():
            return (robust_psd_grids(omega, ab),
                    detm_alpha_convexity_check(omega, beta, alpha_count=11),
                    box_inequality_grid_check(omega))

        monkeypatch.setattr(lmi, "_BLOCK", 1 << 40)
        want = scan_all()
        for size in sizes:
            monkeypatch.setattr(lmi, "_BLOCK", size)
            assert scan_all() == want, (counts, size)


def test_blocks_walk_the_grid_in_c_order():
    nodes = (np.arange(2.0), np.arange(3.0), np.arange(4.0))
    want = np.stack(np.meshgrid(*nodes, indexing="ij"), axis=-1)
    for size in (1, 3, 5, 12, 13, 24, 100):
        start, cells = 0, []
        for first, coords in lmi._blocks(nodes, size):
            block = np.stack(np.broadcast_arrays(*coords), axis=-1)
            assert first == start and 0 < block[..., 0].size <= size
            start += block[..., 0].size
            cells.append(block.reshape(-1, 3))
        np.testing.assert_array_equal(np.concatenate(cells),
                                      want.reshape(-1, 3))


def _peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


# A block of 4096 cells keeps every temporary at 32 KB: a scan's peak is
# about a megabyte, whatever its grid.
BLOCK_PEAK_MB = 2.0


def test_corner_pass_memory_bounded():
    # 66,049 folded nodes per corner plane, 4.7 MB if a plane were packed
    # whole: the corner pass packs them a block at a time
    omega = GridSpec.cube(2.0, 4.0, 2, 3)
    assert _peak_mb(lambda: robust_psd_grid(
        "M", omega, GridSpec.cube(-1.0, 1.0, 513, 2))) < BLOCK_PEAK_MB


def test_robust_scan_memory_bounded():
    # 5.6M cells: a whole first-axis slice of this grid took 736 MB
    omega = GridSpec((Axis(2.0, 4.0, 2), Axis(2.0, 4.0, 41),
                      Axis(2.0, 4.0, 41)))
    assert _peak_mb(lambda: robust_psd_grid(
        "M", omega, GridSpec.cube(-1.0, 1.0, 41, 2))) < BLOCK_PEAK_MB


def test_robust_scan_builds_no_omega_grid():
    # 643k omega cells: one coordinate of them alone is 4.9 MB
    omega = GridSpec((Axis(2.0, 4.0, 4), Axis(2.0, 4.0, 401),
                      Axis(2.0, 4.0, 401)))
    assert _peak_mb(lambda: robust_psd_grid(
        "M", omega, GridSpec.cube(-1.0, 1.0, 2, 2))) < BLOCK_PEAK_MB


def test_detm_scan_memory_bounded():
    # a whole first-axis slice of this grid took 248 MB
    omega = GridSpec((Axis(2.0, 4.0, 2), Axis(2.0, 4.0, 61),
                      Axis(2.0, 4.0, 61)))
    beta = GridSpec.cube(-1.0, 1.0, 61, 1)
    assert _peak_mb(lambda: detm_alpha_convexity_check(
        omega, beta, alpha_count=61)) < BLOCK_PEAK_MB


# --- det m alpha polynomial --------------------------------------------------

def test_poly_reproduces_det(rng):
    for _ in range(50):
        w = rng.uniform(2.0, 4.0, size=3)
        b = float(rng.uniform(-1.0, 1.0))
        coefs = detm_alpha_poly(w, b)
        alpha = float(rng.uniform(-1.0, 1.0))
        direct = float(det3_batch(m_form(w, alpha, b)))
        poly = float(sum(c * alpha ** k for k, c in enumerate(coefs)))
        assert poly == pytest.approx(direct, rel=1e-9, abs=1e-9)


def test_poly_is_the_closed_form(rng):
    # the degree-6 layout of det_m_alpha_coefs, entry for entry
    for _ in range(20):
        w = rng.uniform(2.0, 4.0, size=3)
        b = float(rng.uniform(-1.0, 1.0))
        assert detm_alpha_poly(w, b)[0::2].tolist() == [
            float(c) for c in det_m_alpha_coefs(w, b)]
    stack = rng.uniform(2.0, 4.0, size=(4, 5, 3))
    coefs = detm_alpha_poly(stack, 0.5)
    assert coefs.shape == (7, 4, 5)
    assert np.array_equal(coefs[:, 2, 3], detm_alpha_poly(stack[2, 3], 0.5))


def test_poly_odd_coefficients_vanish(rng):
    # det m is even in alpha (conjugation by diag(1,-1,1) flips its sign)
    for _ in range(100):
        w = rng.uniform(2.0, 4.0, size=3)
        b = float(rng.uniform(-1.0, 1.0))
        coefs = detm_alpha_poly(w, b)
        assert coefs[1] == coefs[3] == coefs[5] == 0.0


def test_c6_step1_finite_difference_oracle(rng):
    """Validate the leading coefficient against an independent oracle first.

    For a polynomial of degree <= 6 the centered sixth difference is exact:
    sum_k (-1)^k C(6,k) p(a0 + (3-k) h) = 720 c6 h^6, any a0 and h.  Run it
    at five random (omega, beta) before trusting the closed form below.
    """
    binom = [1.0, -6.0, 15.0, -20.0, 15.0, -6.0, 1.0]
    for _ in range(5):
        w = rng.uniform(2.0, 4.0, size=3)
        b = float(rng.uniform(-1.0, 1.0))
        h = 0.25
        a0 = float(rng.uniform(-0.2, 0.2))
        diff = sum(
            binom[k] * float(det3_batch(m_form(w, a0 + (3 - k) * h, b)))
            for k in range(7))
        c6_fd = diff / (720.0 * h ** 6)
        c6_poly = detm_alpha_poly(w, b)[6]
        assert c6_fd == pytest.approx(c6_poly, rel=1e-7, abs=1e-9)
        assert c6_fd == pytest.approx(0.75 * w[0] * w[2], rel=1e-7)


def test_c6_step2_closed_form(rng):
    # only meaningful after the finite-difference validation above
    for _ in range(100):
        w = rng.uniform(2.0, 4.0, size=3)
        b = float(rng.uniform(-1.0, 1.0))
        c6 = detm_alpha_poly(w, b)[6]
        assert c6 == pytest.approx(0.75 * w[0] * w[2], abs=1e-9, rel=1e-9)


def test_c2_nonnegative_at_222():
    coefs = detm_alpha_poly(np.array([2.0, 2.0, 2.0]), 0.0)
    # second derivative at alpha=0 is 2 c2
    assert coefs[2] >= 0.0


# --- alpha convexity grid ----------------------------------------------------

def test_detm_convexity_small_grids():
    summary = detm_alpha_convexity_check(
        GridSpec.cube(2.0, 4.0, 7, 3), GridSpec.cube(-1.0, 1.0, 9, 1),
        alpha_count=11)
    assert summary.passed
    ids = {r.grid_id for r in summary.reports}
    assert ids == {"detm_d2", "detm_d4", "detm_min_at_zero", "detm_alpha0"}
    for r in summary.reports:
        assert r.cells == 343 * 9


def test_detm_single_cell_444_beta1():
    omega = GridSpec(tuple(Axis(4.0, 4.0, 1) for _ in range(3)))
    beta = GridSpec((Axis(1.0, 1.0, 1),))
    summary = detm_alpha_convexity_check(omega, beta, alpha_count=41)
    assert summary.passed
    by_id = {r.grid_id: r for r in summary.reports}
    assert by_id["detm_alpha0"].worst_value == pytest.approx(36.0)
    # every alpha value >= value at alpha 0 (minus tolerance)
    assert by_id["detm_min_at_zero"].worst_value >= -1e-9


def test_detm_d4_exact_zero_at_424():
    # c4 vanishes identically at omega = (4, 2, 4), so the fourth derivative
    # is 360 c6 alpha^2, exactly 0 at the alpha = 0 node
    summary = detm_alpha_convexity_check(_single((4.0, 2.0, 4.0)),
                                         _single((0.9,)), alpha_count=41)
    by_id = {r.grid_id: r for r in summary.reports}
    assert by_id["detm_d4"].worst_value == 0.0
    assert by_id["detm_d4"].worst_cell == (4.0, 2.0, 4.0, 0.9, 0.0)
    assert by_id["detm_min_at_zero"].worst_value == 0.0
    assert summary.passed


def test_detm_rows_match_interpolated_det(rng):
    # an independent oracle: det m_form interpolated through 7 alpha nodes
    # (exact for degree 6 up to roundoff), differentiated by numpy
    w = rng.uniform(2.0, 4.0, 3)
    b = float(rng.uniform(-1.0, 1.0))
    nodes = np.linspace(-1.0, 1.0, 7)
    p = np.polynomial.Polynomial.fit(
        nodes, det3_batch(m_form(w, nodes, b)), 6).convert()
    want = {"detm_d2": p.deriv(2), "detm_d4": p.deriv(4),
            "detm_min_at_zero": p - p(0.0), "detm_alpha0": lambda a: p(0.0)}
    # four alpha nodes (+-1/3, +-1) test every term; nine also test alpha 0
    for count in (4, 9):
        alphas = np.linspace(-1.0, 1.0, count)
        for r in detm_alpha_convexity_check(_single(w), _single((b,)),
                                            alpha_count=count).reports:
            assert r.worst_value == pytest.approx(
                np.min(want[r.grid_id](alphas)), rel=1e-9, abs=1e-9), (
                    r.grid_id, count)


def test_detm_grid_shape_validation():
    with pytest.raises(ValueError):
        detm_alpha_convexity_check(AB_GRID_DEFAULT, BOX_GRID_DEFAULT)

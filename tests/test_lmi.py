import math
import tracemalloc
import warnings

import numpy as np
import pytest

from kantorovich import linalg, lmi
from kantorovich.forms import (DeltaVector, det3_batch, det_m_alpha_coefs,
                               m_form, p_form, q_form)
from kantorovich.linalg import min_eig_batch
from kantorovich.lmi import (AB_GRID_DEFAULT, Axis, BOX_GRID_DEFAULT,
                             OMEGA_GRID_DEFAULT, GridSpec, box_inequalities,
                             box_inequality_grid_check,
                             detm_alpha_convexity_check, detm_alpha_poly,
                             robust_psd_grid, robust_psd_grids, verify_h_lmi)
from kantorovich.sampling import SamplePlan

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


def test_gridspec_cube():
    g = GridSpec.cube(2.0, 4.0, 5, 3)
    assert g.ndim == 3
    assert g.cells == 125
    for nodes in g.node_arrays():
        np.testing.assert_allclose(nodes, [2.0, 2.5, 3.0, 3.5, 4.0])
    with pytest.raises(ValueError):
        GridSpec(())


# --- sampled LMI -------------------------------------------------------------

def test_lmi_identity_delta():
    d = DeltaVector(dim=3, values=np.full(3, 2.0))
    rep = verify_h_lmi(d, PLAN)
    assert rep.passed
    assert rep.worst_value > 0.0


def test_lmi_boundary_delta6():
    d = DeltaVector(dim=2, values=np.array([6.0]))
    rep = verify_h_lmi(d, PLAN)
    assert rep.passed
    assert rep.worst_value == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(np.abs(rep.worst_point),
                               np.full(2, 1.0 / math.sqrt(2.0)), atol=1e-12)


def test_lmi_violated_delta62():
    d = DeltaVector(dim=2, values=np.array([6.2]))
    rep = verify_h_lmi(d, PLAN)
    assert not rep.passed
    assert rep.worst_value < 0.0
    np.testing.assert_allclose(np.abs(rep.worst_point),
                               np.full(2, 1.0 / math.sqrt(2.0)), atol=1e-3)


def test_lmi_worst_point_reevaluates(rng):
    # The worst point, evaluated on its own, gives the worst value to an
    # ulp or so of the scale of h: the BLAS product behind h's diagonal may
    # round one row differently from a whole chunk of rows.
    from kantorovich.forms import h_form
    from kantorovich.linalg import min_eigenvalue
    from kantorovich.sampling import h_scale_bound
    for n in range(2, 9):
        for _ in range(4):
            d = DeltaVector(dim=n,
                            values=rng.uniform(2.0, 7.0, n * (n - 1) // 2))
            rep = verify_h_lmi(d, PLAN)
            h = h_form(d, rep.worst_point)
            ulp = np.spacing(h_scale_bound(d))
            assert abs(min_eig_batch(h) - rep.worst_value) <= 2 * ulp
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
            rep = verify_h_lmi(DeltaVector(dim=n, values=np.full(npairs, d)),
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


@pytest.mark.parametrize("n", [2, 5, 6, 41])
def test_folded_scan_visits_one_quadrant(monkeypatch, n):
    visited, solved = [], []

    def counting(entries, worst, margin):
        rows, lam = linalg.screened_min_eig(entries, worst, margin)
        visited.append(entries.shape[2])
        solved.append(rows.size)
        return rows, lam

    monkeypatch.setattr(lmi, "screened_min_eig", counting)
    rep = robust_psd_grid("M", OMEGA_SMALL, GridSpec.cube(-1.0, 1.0, n, 2))
    assert sum(visited) == OMEGA_SMALL.cells * ((n + 1) // 2) ** 2
    assert 0 < sum(solved) <= sum(visited)
    assert rep.cells == OMEGA_SMALL.cells * n * n


def test_robust_scan_eigensolves_few_cells(monkeypatch):
    # At the default grids the screen clears all but a sliver of the
    # folded cells.
    solved = []

    def counting(mats):
        solved.append(mats.shape[0])
        return min_eig_batch(mats)

    monkeypatch.setattr(linalg, "min_eig_batch", counting)
    assert robust_psd_grid("M").passed
    visited = OMEGA_GRID_DEFAULT.cells * 21 * 21
    assert 0 < sum(solved) < visited // 100


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


@pytest.mark.parametrize("size", [1, 7, 4096])
@pytest.mark.parametrize("omega, ab", [
    (GridSpec.cube(2.0, 4.0, 5, 3), GridSpec.cube(-1.0, 1.0, 9, 2)),
    (GridSpec.cube(2.0, 5.9, 4, 3), GridSpec.cube(-1.0, 1.0, 5, 2)),
    (OMEGA_SMALL, GridSpec((Axis(-1.0, 0.5, 7), Axis(-0.25, 1.0, 6)))),
    (GridSpec.cube(2.0, 1e155, 3, 3), GridSpec.cube(-1.0, 1.0, 3, 2)),
    (GridSpec.cube(2.0, 1e308, 3, 3), GridSpec.cube(-1.0, 1.0, 3, 2)),
    (GridSpec.cube(2.0, 4.0, 3, 3),
     GridSpec((Axis(-1.0, 1e200, 3), Axis(-1.0, 1.0, 3)))),
])
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


# --- non-finite cells --------------------------------------------------------

HUGE_OMEGA = GridSpec.cube(2.0, 1e155, 3, 3)


def test_worst_takes_the_first_nan_cell():
    nodes = (np.arange(6.0),)
    w = lmi._Worst(nodes)
    for start, block in ((0, [3.0, 1.0]), (2, [np.nan, -5.0]),
                         (4, [np.nan, -9.0])):
        w.update(start, np.array(block))
    assert math.isnan(w.value) and w.cell == (2.0,)
    assert not w.report("x", lmi.GRID_TOL, 6).passed
    w = lmi._Worst(nodes)
    w.update(0, np.full(6, np.inf))  # an all-inf grid still names a cell
    assert w.value == math.inf and w.cell == (0.0,)


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

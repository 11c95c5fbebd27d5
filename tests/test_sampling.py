import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from kantorovich import _records, cli, forms, linalg, sampling
from kantorovich.classify import Certificate, classify
from kantorovich.forms import (DeltaVector, delta_from_spd, h_entries,
                               h_form_batch)
from kantorovich.linalg import (PSD_EPS, min_eig_batch, scan_tolerance,
                                validate_spd)
from kantorovich.sampling import (DEFAULT_PLAN, SamplePlan, all_samples,
                                  probe_directions, sample_count, scan_design,
                                  scan_h)
from conftest import spd_with_kappa
from hypothesis import given, settings, strategies as st


def design(dim, plan):
    """The sphere design of ``all_samples``: every row after the probes."""
    return all_samples(dim, plan)[dim * (dim - 1):]


def test_probe_directions_shape_and_norms():
    for n in (2, 3, 5):
        probes = probe_directions(n)
        assert probes.shape == (n * (n - 1), n)
        np.testing.assert_allclose(np.linalg.norm(probes, axis=1), 1.0)
    # first two probes in dim 2 are (e1 +- e2)/sqrt(2)
    p = probe_directions(2)
    r = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(p[0], [r, r])
    np.testing.assert_allclose(p[1], [r, -r])


def test_sphere_design_unit_norm():
    plan = SamplePlan(angles_2d=64, fibonacci_3d=500, random_nd=1000)
    for n in (2, 3, 4, 6):
        pts = design(n, plan)
        count = {2: plan.angles_2d,
                 3: plan.fibonacci_3d}.get(n, plan.random_nd)
        assert pts.shape == (count, n)
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0,
                                   atol=1e-12)


def test_design_determinism():
    # The same seed gives the same rows; another seed, a design that shares
    # no row with it (its offset is not a shift along the sequence).
    plan = SamplePlan(seed=7, random_nd=512)
    a = design(5, plan)
    b = design(5, SamplePlan(seed=7, random_nd=512))
    np.testing.assert_array_equal(a, b)
    c = design(5, SamplePlan(seed=8, random_nd=512))
    assert not np.array_equal(a, c)
    assert not {r.tobytes() for r in a} & {r.tobytes() for r in c}


def test_angles_cover_diagonal():
    # the 2-d design contains the exact 45-degree direction when the count
    # is a multiple of 4 (theta = pi*k/count hits pi/4)
    pts = design(2, SamplePlan(angles_2d=4096))
    r = 1.0 / np.sqrt(2.0)
    hits = np.isclose(pts, [r, r], atol=0.0).all(axis=1)
    assert hits.any()


def test_all_samples_probes_first():
    plan = SamplePlan(fibonacci_3d=100)
    pts = all_samples(3, plan)
    np.testing.assert_array_equal(pts[:6], probe_directions(3))
    assert pts.shape == (106, 3)


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_all_samples_is_one_cached_read_only_design(dim):
    # Each call builds the design afresh, read-only and bit for bit the same.
    plan = SamplePlan(angles_2d=64, fibonacci_3d=100, random_nd=128)
    pts = all_samples(dim, plan)
    again = all_samples(dim, SamplePlan(angles_2d=64, fibonacci_3d=100,
                                        random_nd=128))
    assert not pts.flags.writeable and not again.flags.writeable
    assert pts.tobytes() == again.tobytes() and pts.shape == again.shape
    count = {1: 1, 2: 64, 3: 100}.get(dim, 128)
    assert pts.shape == (dim * (dim - 1) + count, dim)


@pytest.mark.parametrize("dim", range(1, 9))
def test_sample_count_is_the_design_size(dim):
    for plan in (DEFAULT_PLAN, SamplePlan(seed=3, angles_2d=5,
                                          fibonacci_3d=6, random_nd=7)):
        assert sample_count(dim, plan) == all_samples(dim, plan).shape[0]


def test_all_samples_cached_on_what_the_design_reads():
    # One design per (dim, count, seed): refine_rounds, the other dims'
    # counts and, below dim 4, the seed do not change it.
    def same(p, q):
        return p.tobytes() == q.tobytes() and p.shape == q.shape

    assert same(all_samples(8, SamplePlan()), all_samples(
        8, SamplePlan(refine_rounds=5, angles_2d=7, fibonacci_3d=9)))
    assert same(all_samples(3, SamplePlan(seed=1)),
                all_samples(3, SamplePlan(seed=2)))
    assert not same(all_samples(5, SamplePlan(seed=1, random_nd=64)),
                    all_samples(5, SamplePlan(seed=2, random_nd=64)))


def test_plan_validation():
    with pytest.raises(ValueError):
        SamplePlan(angles_2d=0)
    with pytest.raises(ValueError):
        SamplePlan(refine_rounds=-1)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        SamplePlan(seed=-1)


def test_scan_tolerance():
    # PSD_EPS times the largest |entry| of h at a unit point
    assert scan_tolerance(2.0) == PSD_EPS * 3.0  # the diagonal dominates
    assert scan_tolerance(8.0) == PSD_EPS * 4.0


def test_scan_clean_case():
    d = DeltaVector(dim=2, values=np.array([2.0]))
    pts = all_samples(2, SamplePlan(angles_2d=256))
    res = scan_h(d, pts)
    assert not res.violation
    assert res.samples == 258
    assert res.worst_value > 0.0


def test_scan_violating_case():
    # delta = 6.2 > 6 makes the (1,1)/sqrt(2) probe negative
    d = DeltaVector(dim=2, values=np.array([6.2]))
    pts = all_samples(2, SamplePlan(angles_2d=256))
    res = scan_h(d, pts)
    assert res.violation
    assert res.worst_index == 0  # the probe itself, scanned first
    assert res.worst_value < 0.0


def test_scan_nan_direction_is_the_worst():
    # The NaN row is the first minimum, as for argmin: the block's finite
    # minimum is not what is reported, and the scan fails.
    r = 1.0 / np.sqrt(2.0)
    d = DeltaVector(dim=3, values=np.array([5.0, 5.0, 5.0]))
    rows = np.array([[1.0, 0, 0], [np.nan, 0, 0], [r, r, 0]])
    res = scan_h(d, rows)
    assert np.isnan(res.worst_value) and res.worst_index == 1
    assert res.violation and res.samples == 3
    # the same after a head block of six finite probe rows
    res = scan_h(d, np.concatenate([probe_directions(3), rows]))
    assert np.isnan(res.worst_value) and res.worst_index == 7
    assert res.violation


def _delta_case(dim, case):
    if case == "tied":
        return DeltaVector(dim=dim, values=np.full(dim * (dim - 1) // 2, 2.0))
    if case == "huge":  # delta_max ~ 1e306: the row bound's overflow guard
        return DeltaVector(dim=dim, values=np.geomspace(
            1e306, 3.0, dim * (dim - 1) // 2))
    if case == "rotated":  # distinct eigenvalues in the gap, rotated A
        return delta_from_spd(spd_with_kappa(np.random.default_rng(dim),
                                             dim, 5.5))
    kappa = {"gap": 5.0, "kappa6": 6.0, "kappa8": 8.0,
             "kappa30": 30.0}[case]
    return delta_from_spd(validate_spd(np.diag(np.geomspace(1.0, kappa,
                                                            dim))))


SMALL_PLAN = SamplePlan(angles_2d=500, fibonacci_3d=1500, random_nd=1500)


@pytest.mark.parametrize("block", [1, 7, 1 << 20])
@pytest.mark.parametrize("case", ["gap", "kappa6", "kappa8", "kappa30",
                                  "tied", "huge", "rotated"])
@pytest.mark.parametrize("dim", range(2, 9))
def test_scan_matches_reference(monkeypatch, dim, case, block):
    # The screened scan reports bitwise what evaluating every point does:
    # the first argmin of min_eig_batch over the whole stack.
    monkeypatch.setattr(sampling, "_BLOCK", block)
    d = _delta_case(dim, case)
    pts = all_samples(dim, SMALL_PLAN)
    lam = min_eig_batch(h_form_batch(d, pts))
    k = int(np.argmin(lam))
    tol = PSD_EPS * max(1.0, 3.0, 0.5 * float(d.values.max()))
    res = scan_h(d, pts)
    assert ((res.worst_value, res.worst_index, res.violation, res.samples,
             res.tolerance) == (float(lam[k]), k, bool(lam[k] < -tol),
                                pts.shape[0], tol))
    if case.startswith("kappa"):
        assert res.violation


def _gap_scan_eigensolves_only_blocks(monkeypatch, diag):
    # A gap matrix under the default plan: every eigensolve gets one block
    # at most, the screen clears every design row above the probes'
    # minimum, and the report is the unscreened scan's.
    sizes = []

    def counting_min_eig_batch(mats):
        sizes.append(mats.shape[0])
        return min_eig_batch(mats)

    monkeypatch.setattr(linalg, "min_eig_batch", counting_min_eig_batch)
    spd = validate_spd(np.diag(diag))
    n = spd.dim
    v = classify(spd, DEFAULT_PLAN)
    assert v.certificate == Certificate.SAMPLING_EXHAUSTED
    pts = all_samples(n, DEFAULT_PLAN)
    assert sizes and max(sizes) <= sampling._BLOCK
    assert sum(sizes) <= n * (n - 1) + 4
    lam = min_eig_batch(h_form_batch(delta_from_spd(spd), pts))
    k = int(np.argmin(lam))
    assert v.report.worst_value == float(lam[k])
    np.testing.assert_array_equal(v.report.worst_point, pts[k])
    assert v.report.samples == pts.shape[0] and v.report.passed


def test_gap_scan_eigensolves_only_blocks(monkeypatch):
    _gap_scan_eigensolves_only_blocks(monkeypatch,
                                      [1.0, 1.3, 1.8, 2.5, 3.5, 5.0])


def test_gap_scan_eigensolves_only_blocks_dim3(monkeypatch):
    # dim 3 is screened as every other dim: of the 100,006 directions only
    # the six probes are eigensolved
    _gap_scan_eigensolves_only_blocks(monkeypatch, [1.0, 2.2, 5.0])


def test_scan_finds_minimum_just_below_running_worst():
    # The head block (the first 4*3 rows) holds a point a hair off the
    # dim-4 probe minimiser; the exact probe comes later, lower by far less
    # than the screen's margin.  The screen must not clear it.
    d = _delta_case(4, "gap")
    probe = probe_directions(4)
    lam = min_eig_batch(h_form_batch(d, probe))
    best = probe[int(np.argmin(lam))]
    near = best + 1e-5 * np.array([0.0, 1.0, 1.0, 0.0])
    near /= np.linalg.norm(near)
    pts = np.array([near] * 12 + [best] + [near] * 3)
    ref = min_eig_batch(h_form_batch(d, pts))
    assert 0.0 < ref[0] - ref[12] < PSD_EPS
    res = scan_h(d, pts)
    assert (res.worst_value, res.worst_index) == (float(ref[12]), 12)


def _bound_rows(rng, n):
    """Rows where the row bound is tightest or its rounding worst: random
    unit rows, rows within 1e-12 of each probe and within 1e-12..1e-7 of
    each e_k (where the other y_i^2 sum to about one rounding unit of 1),
    unit rows with coordinates down to 1e-300, and rows of norm 1e-200."""
    def unit(v):
        return v / np.linalg.norm(v, axis=1, keepdims=True)
    near_e = np.repeat(np.eye(n), 8, axis=0)
    off_e = 10.0 ** rng.uniform(-12, -7, (8 * n, 1))
    near_p = np.repeat(probe_directions(n), 4, axis=0)
    scales = 10.0 ** rng.uniform(-300, 0, (60, n))
    scales[np.arange(60), rng.integers(n, size=60)] = 1.0
    mixed = rng.standard_normal((60, n)) * scales
    return np.concatenate([
        unit(rng.standard_normal((200, n))),
        unit(near_e + off_e * rng.standard_normal(near_e.shape)),
        unit(near_p + 1e-12 * rng.standard_normal(near_p.shape)),
        unit(mixed), 1e-200 * unit(rng.standard_normal((20, n)))])


@pytest.mark.parametrize("dim", range(2, 9))
def test_row_bound_is_below_lambda_min(rng, dim):
    # forms.row_bound never exceeds the computed lambda_min h(delta, y)
    # by more than rounding, 1e-14 * max(3, delta_max/2): far inside the
    # tolerance/2 = 5e-10 * max(3, delta_max/2) margin the scan clears at.
    npairs = dim * (dim - 1) // 2
    deltas = [2.0 + rng.uniform(0.0, 10.0, npairs) for _ in range(8)]
    deltas += [2.0 + 10.0 ** rng.uniform(-9, 6, npairs) for _ in range(8)]
    deltas += [delta_from_spd(spd_with_kappa(rng, dim, k)).values
               for k in (1.5, 3.5, 5.0, 5.8, 8.0, 40.0)]
    # a + c = 3, so L(e_k) = 3 = lambda_min h(e_k), and near 6 the
    # eigenvalue 3 of h(e_k) is nearly n-fold: near e_k the bound is tight
    # to first order in sqrt(R), which magnifies any rounding of R.
    for top in np.concatenate([rng.uniform(6.0, 40.0, 4),
                               6.0 + 10.0 ** rng.uniform(-4, -1, 4)]):
        vals = np.sort(rng.uniform(4.0 + top / 3.0, top, npairs))
        vals[0], vals[-1] = 4.0 + top / 3.0, top
        deltas.append(rng.permutation(vals))
    checked = 0
    for vals in deltas:
        d = DeltaVector(dim=dim, values=vals)
        least = sampling._bound_coefs(d, 0.0)
        if least is None:
            continue
        coefs = forms.row_coefs(*least)
        rows = _bound_rows(rng, dim)
        bound = forms.row_bound(coefs, rows)
        lam = min_eig_batch(h_form_batch(d, rows))
        slack = 1e-14 * max(3.0, 0.5 * float(vals.max()))
        assert (lam >= bound - slack).all(), float((bound - lam).max())
        # L <= lambda_min M <= (c + a)|y|^2 (take z orthogonal to y): why
        # the scan skips the bound when a is within its margin
        assert (bound <= coefs[0] * (rows ** 2).sum(axis=1) + slack).all()
        checked += 1
    assert checked >= 20


def test_row_bound_clears_nothing_it_cannot():
    # A NaN row and a row with |y|^2 > 2 read -inf.  The bound is skipped
    # for a tie (a = 0), a near-tie whose a is within the margin, and
    # delta_max ~ 1e306.
    d = DeltaVector(dim=3, values=np.array([3.0, 4.0, 5.0]))
    margin = 0.5 * scan_tolerance(float(d.values.max()))
    coefs = forms.row_coefs(*sampling._bound_coefs(d, margin))
    rows = np.array([[np.nan, 0.0, 0.0], [1.5, 0.0, 0.0], [1.0, 0.0, 0.0]])
    assert forms.row_bound(coefs, rows)[:2].tolist() == [-np.inf] * 2
    assert forms.row_bound(coefs, rows)[2] > 0.0
    for vals in ([2.0, 4.0, 4.0], [2.0 + 1e-12, 4.0, 4.0]):
        near = DeltaVector(dim=3, values=np.array(vals))
        assert sampling._bound_coefs(near, margin) is None
    assert sampling._bound_coefs(_delta_case(4, "huge"), 0.0) is None


def _count_h_rows(monkeypatch):
    rows = []

    def counting_h_entries(dm, y):
        rows.append(y.shape[0])
        return h_entries(dm, y)

    monkeypatch.setattr(sampling, "h_entries", counting_h_entries)
    return rows


@pytest.mark.parametrize("dim", range(4, 9))
def test_row_bound_screens_the_design(monkeypatch, dim):
    # A rotated gap matrix with distinct eigenvalues under the default plan:
    # the row bound clears nearly every design row, so h is built for the
    # probe block and a handful of rows more.
    rows = _count_h_rows(monkeypatch)
    spd = spd_with_kappa(np.random.default_rng(100 + dim), dim, 5.0)
    v = classify(spd, DEFAULT_PLAN)
    assert v.certificate == Certificate.SAMPLING_EXHAUSTED and v.report.passed
    assert v.report.samples == dim * (dim - 1) + DEFAULT_PLAN.random_nd
    assert sum(rows) <= dim * (dim - 1) + 16


def test_tied_spectrum_scans_the_whole_design(monkeypatch):
    # delta_min = 2: the bound is skipped, h is built for every row, and the
    # report is the unscreened scan's.
    rows = _count_h_rows(monkeypatch)
    spd = validate_spd(np.diag([1.0, 2.0, 2.0, 5.5]))
    v = classify(spd, DEFAULT_PLAN)
    pts = all_samples(4, DEFAULT_PLAN)
    assert sum(rows) == pts.shape[0] == v.report.samples
    lam = min_eig_batch(h_form_batch(delta_from_spd(spd), pts))
    k = int(np.argmin(lam))
    assert v.report.worst_value == float(lam[k]) and v.report.passed
    np.testing.assert_array_equal(v.report.worst_point, pts[k])


FLOOR_PLAN = SamplePlan(seed=2323, angles_2d=3000, fibonacci_3d=6000,
                        random_nd=6000)
KAPPA_K = 3.0 + 2.0 * np.sqrt(2.0)


def _floor_deltas(rng, dim):
    """delta in every regime the design floors meet: the gap and both sides
    of K = 3 + 2 sqrt(2) (from rotated matrices), a > 3 (every delta above
    6, and nearly equal deltas above 10, where a > 6), a within the bound's
    margin (delta_min = 2 + 1e-12, and a tie), and a nearly repeated pair
    (delta_min = 2 + 1e-6 or 1e-4)."""
    npairs = dim * (dim - 1) // 2
    out = [delta_from_spd(spd_with_kappa(rng, dim, k)).values
           for k in (4.5, 5.2, 5.8, KAPPA_K * (1 + 1e-9), 6.5, 12.0)]
    out.append(6.0 + rng.uniform(0.1, 4.0, npairs))
    out.append(10.0 + rng.uniform(0.1, 0.2, npairs))
    for tiny in (0.0, 1e-12, 1e-6, 1e-4):
        vals = 2.0 + rng.uniform(0.5, 4.0, npairs)
        vals[rng.integers(npairs)] = 2.0 + tiny
        out.append(vals)
    return [DeltaVector(dim=dim, values=v) for v in out]


def _key(rep):
    return (rep.worst_value.hex(), np.array(rep.worst_point).tobytes(),
            rep.tolerance.hex(), rep.samples, rep.passed)


def _scan_key(res, pts):
    """:func:`_key` of the report that ``scan_h`` result ``res`` on ``pts``
    gives."""
    return (res.worst_value.hex(), pts[res.worst_index].tobytes(),
            res.tolerance.hex(), res.samples, not res.violation)


@pytest.mark.parametrize("dim", range(2, 9))
def test_design_floors_change_no_scan(monkeypatch, rng, dim):
    # scan_design reports bitwise what scan_h reports on the same points.
    # Each block's floor is below lambda_min h on every row of the block,
    # up to rounding; the scan skips exactly the blocks whose floor clears
    # the running minimum by half the tolerance (it runs the row bound on
    # every other design block), and eigvalsh on every row of a skipped
    # block is above that minimum.
    monkeypatch.setattr(sampling, "_BLOCK", 500)
    pts = all_samples(dim, FLOOR_PLAN)
    floors = sampling._record(*sampling._design_key(dim, FLOOR_PLAN), 500)
    phi, s_lo, s_hi = floors.T
    blocks = list(sampling._blocks(pts.shape[0], dim * (dim - 1), 500))
    row_bound = forms.row_bound
    calls = []

    def counting_row_bound(coefs, y):
        calls.append(y.shape[0])
        return row_bound(coefs, y)

    monkeypatch.setattr(sampling, "row_bound", counting_row_bound)
    skipped = 0
    for d in _floor_deltas(rng, dim):
        calls.clear()
        got = scan_design(d, FLOOR_PLAN)
        bounded = len(calls)
        assert _key(got) == _scan_key(scan_h(d, pts), pts)
        lam = min_eig_batch(h_form_batch(d, pts))
        assert _key(got)[:2] == (float(lam.min()).hex(),
                                 pts[int(np.argmin(lam))].tobytes())
        a, c = forms.least_coefs(d.values)
        if sampling._bound_coefs(d, 0.5 * got.tolerance) is None:
            continue
        if a > sampling._FLOOR_A:  # no floor: every design block is bounded
            assert bounded == len(blocks) - 1
            continue
        floor = np.minimum(c * s_lo, c * s_hi) + a * phi
        slack = 1e-14 * max(3.0, 0.5 * float(d.values.max()))
        scanned = 0
        for k, (lo, hi) in enumerate(blocks[1:], 1):
            assert floor[k] <= lam[lo:hi].min() + slack
            run = lam[:lo].min()
            if floor[k] > run + 0.5 * got.tolerance:
                assert lam[lo:hi].min() > run
                skipped += 1
            else:
                scanned += 1
        assert bounded == scanned
    assert skipped > 0


def test_design_floors_built_once_and_not_by_all_samples(monkeypatch):
    # The first scan of a design builds its block record, whatever a is
    # (a > 3 here, where the floors cannot serve); later scans reuse it.
    # all_samples builds no record, and no scan builds the design: the
    # record's pass is the only pass over the design that the scans make.
    plan = SamplePlan(seed=2324, random_nd=3000)
    info = sampling._record.cache_info
    passes = []
    pass_of = sampling._pass

    def counting_pass(*args):
        passes.append(args)
        return pass_of(*args)

    monkeypatch.setattr(sampling, "_pass", counting_pass)
    before = info()
    scan_design(DeltaVector(dim=6, values=np.full(15, 8.0)), plan)
    scan_design(DeltaVector(dim=6, values=np.full(15, 2.0)), plan)  # a = 0
    gap = delta_from_spd(spd_with_kappa(np.random.default_rng(6), 6, 5.0))
    reports = [scan_design(gap, plan) for _ in range(3)]
    assert passes == [(6, 3000, 2324, sampling._BLOCK)]
    assert (info().misses - before.misses, info().hits - before.hits) == (1, 4)
    pts = all_samples(6, plan)
    assert info().misses - before.misses == 1 and len(passes) == 2
    assert all(_key(r) == _scan_key(scan_h(gap, pts), pts) for r in reports)
    assert reports[0].samples == pts.shape[0]


def _one_shot_design(dim, plan):
    """The probes and the sphere design built whole, in one step: the
    reference the block-made designs must equal bit for bit."""
    count = sampling._design_key(dim, plan)[1]
    if dim == 1:
        return np.ones((1, 1))
    if dim == 2:
        theta = np.pi * np.arange(count) / count
        rows = np.column_stack([np.cos(theta), np.sin(theta)])
    elif dim == 3:
        i = np.arange(count)
        z = 1.0 - 2.0 * (i + 0.5) / count
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        phi = np.pi * (3.0 - np.sqrt(5.0)) * i
        rows = np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    else:
        s, alpha = (np.array(v) for v in sampling._kronecker(dim, plan.seed))
        k = np.arange(1, count + 1, dtype=float)[:, None]
        rows = (alpha * k + s) % 1.0 - 0.5
        norm2 = rows[:, 0] * rows[:, 0]
        for j in range(1, dim):
            norm2 = norm2 + rows[:, j] * rows[:, j]
        rows = rows / np.sqrt(norm2)[:, None]
    return np.concatenate([probe_directions(dim), rows])


BLOCK_PLAN = SamplePlan(seed=2901, angles_2d=1703, fibonacci_3d=2311,
                        random_nd=2311)


@pytest.mark.parametrize("block", [1, 500])
@pytest.mark.parametrize("dim", range(1, 9))
def test_design_blocks_are_the_one_shot_design(monkeypatch, dim, block):
    # Blocks of ``block`` rows, made in order or each alone and out of
    # order, give the design made whole in one step; so does all_samples.
    want = _one_shot_design(dim, BLOCK_PLAN)
    assert all_samples(dim, BLOCK_PLAN).tobytes() == want.tobytes()
    monkeypatch.setattr(sampling, "_BLOCK", block)
    assert all_samples(dim, BLOCK_PLAN).tobytes() == want.tobytes()
    key = sampling._design_key(dim, BLOCK_PLAN)
    blocks = list(sampling._blocks(want.shape[0], dim * (dim - 1), block))
    buf = np.empty((dim, block))
    got = []
    for k in range(len(blocks) - 1, -1, -1):  # out of order, each alone
        got.insert(0, sampling._rows(*key, *blocks[k], buf).copy())
    assert np.concatenate(got).tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(dim=st.integers(4, 8), count=st.integers(1, 9000),
       seed=st.integers(0, 1 << 64))
def test_design_rows_do_not_depend_on_the_block_size(dim, count, seed):
    # Each row is a function of its index: the design made in blocks of 500
    # rows is the one made in blocks of 4096, bit for bit.
    plan = SamplePlan(seed=seed, random_nd=count)
    designs = []
    for block in (500, 4096):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sampling, "_BLOCK", block)
            designs.append(all_samples(dim, plan).tobytes())
    assert designs[0] == designs[1]


@pytest.mark.parametrize("dim", range(4, 9))
def test_default_designs_are_finite_unit_rows(dim):
    # At seeds 0-20, every row of the default design is finite and unit up
    # to rounding, and no raw vector x = frac(s + k alpha) - 1/2 is zero.
    count = DEFAULT_PLAN.random_nd
    k = np.arange(1, count + 1, dtype=float)
    for seed in range(21):
        y = design(dim, SamplePlan(seed=seed))
        assert y.shape == (count, dim) and np.isfinite(y).all()
        assert np.abs(np.square(y).sum(axis=1) - 1.0).max() <= 1e-15
        s, alpha = (np.array(v)[:, None]
                    for v in sampling._kronecker(dim, seed))
        x = (alpha * k + s) % 1.0 - 0.5
        assert np.abs(x).max(axis=0).min() > 0.0


@pytest.mark.parametrize("dim", range(4, 9))
def test_kronecker_generator_and_offsets(dim):
    # alpha_j = phi^-j, phi the float nearest the root of x^(d+1) = x + 1
    # (its 17 digits from a 60-digit Newton iteration); the offsets
    # are in [0, 1), 1/2 at seed 0, and distinct across seeds distinct mod
    # 2^53, the seed's only bits that the offset reads.
    s, alpha = sampling._kronecker(dim, 0)
    phi = {4: 1.1673039782614187, 5: 1.1347241384015194,
           6: 1.1127756842787055, 7: 1.0969815577985598,
           8: 1.085070245491451}[dim]
    assert alpha[0] == 1.0 / phi
    np.testing.assert_allclose(alpha, phi ** -np.arange(1.0, dim + 1),
                               rtol=1e-14)
    assert s == [0.5] * dim
    offsets = {tuple(sampling._kronecker(dim, seed)[0])
               for seed in [*range(50), 2 ** 52 + 7, 2 ** 53 - 1]}
    assert len(offsets) == 52
    assert (sampling._kronecker(dim, 2 ** 64 + 3)[0]
            == sampling._kronecker(dim, 3)[0])
    for seed in (1, 2 ** 64):
        assert all(0.0 <= v < 1.0 for v in sampling._kronecker(dim, seed)[0])


@pytest.mark.parametrize("dim", range(2, 9))
def test_design_scan_reads_the_design_blocks(monkeypatch, rng, dim):
    # Every block a scan reads, after skipped blocks or not, is the
    # design's, and no block is read twice.
    monkeypatch.setattr(sampling, "_BLOCK", 500)
    pts = all_samples(dim, BLOCK_PLAN)
    key = sampling._design_key(dim, BLOCK_PLAN)
    floors = sampling._record(*key, 500)  # made before the patch
    rows_of = sampling._rows
    reads = []

    def recording_rows(*args):  # (dim, count, seed, lo, hi, buf)
        rows = rows_of(*args)
        reads.append((args[3], rows.tobytes()))
        return rows

    monkeypatch.setattr(sampling, "_rows", recording_rows)
    for d in _floor_deltas(rng, dim):
        reads.clear()
        got = scan_design(d, BLOCK_PLAN)
        assert _key(got) == _scan_key(scan_h(d, pts), pts)
        los = [lo for lo, _ in reads]
        assert los == sorted(set(los)) and los[0] == 0
        for lo, data in reads:
            hi = lo + len(data) // (8 * dim)
            assert pts[lo:hi].tobytes() == data
    # Floors that skip every third block (phi = inf) and read the rest
    # (phi = -inf): each block read after a skip is still the design's.
    phi = np.where(np.arange(len(floors)) % 3 == 2, np.inf, -np.inf)
    fake = np.column_stack([phi, np.ones_like(phi), np.ones_like(phi)])
    monkeypatch.setattr(sampling, "_record", lambda *a: fake)
    reads.clear()
    scan_design(_delta_case(dim, "rotated"), BLOCK_PLAN)
    assert [lo for lo, _ in reads][1:] == [
        lo for k, (lo, _) in enumerate(sampling._blocks(
            pts.shape[0], dim * (dim - 1), 500)) if k and phi[k] < 0]
    for lo, data in reads:
        assert pts[lo:lo + len(data) // (8 * dim)].tobytes() == data


RECORD_PLAN = SamplePlan(seed=2902, angles_2d=9001, fibonacci_3d=9001,
                         random_nd=9001)


@pytest.mark.parametrize("plan, block", [
    pytest.param(RECORD_PLAN, 500, id="500"),
    pytest.param(RECORD_PLAN, 4096, id="4096"),
    pytest.param(DEFAULT_PLAN, sampling._BLOCK, id="shipped"),
])
@pytest.mark.parametrize("dim", range(2, 9))
def test_record_bounds_the_rows_the_scan_makes(monkeypatch, dim, plan,
                                               block):
    # A block made again from its indices is the design's, bit for bit.
    # The record has a floor per block, read from the squares of its rows:
    # phi_k is the least row_bound(_FLOOR_COEFS, y) on block k exactly, and
    # s_lo <= |y|^2 <= s_hi up to 1e-15.  DEFAULT_PLAN's records are the
    # shipped ones (kantorovich._records).
    monkeypatch.setattr(sampling, "_BLOCK", block)
    pts = all_samples(dim, plan)
    key = sampling._design_key(dim, plan)
    floors = sampling._record(*key, block)
    blocks = list(sampling._blocks(pts.shape[0], dim * (dim - 1), block))
    assert len(blocks) == len(floors)
    buf = np.empty((dim, block))
    for k, (lo, hi) in enumerate(blocks):
        rows = sampling._rows(*key, lo, hi, buf)
        assert rows.tobytes() == pts[lo:hi].tobytes()
        phi, s_lo, s_hi = floors[k]
        bound = forms.row_bound(sampling._FLOOR_COEFS, rows)
        assert phi == bound.min()
        s = np.square(rows).sum(axis=1)
        assert s_lo - 1e-15 <= s.min() and s.max() <= s_hi + 1e-15


STALE = ("kantorovich._records is not what sampling._record computes; "
         "regenerate it: PYTHONPATH=src python tools/make_records.py")


@pytest.fixture(scope="module")
def computed_records():
    """Each shipped record as :func:`sampling._record` computes it with the
    table bypassed."""
    keys = list(_records.RECORDS)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_records, "RECORDS", {})
        return {key: sampling._record.__wrapped__(*key) for key in keys}


def test_shipped_records_are_the_computed_ones(monkeypatch,
                                              computed_records):
    # The table holds DEFAULT_PLAN's floors at dims 2-8 and _BLOCK, bit for
    # bit those computed, and _record returns a shipped record as it is,
    # read-only, without making a row.
    assert sorted(_records.RECORDS) == [
        sampling._design_key(d, DEFAULT_PLAN) + (sampling._BLOCK,)
        for d in range(2, 9)], STALE
    for key, floors in computed_records.items():
        shipped = np.array(_records.RECORDS[key])
        assert shipped.tobytes() == floors.tobytes(), STALE
        assert sampling._record(*key).tobytes() == floors.tobytes()
    key = sampling._design_key(5, DEFAULT_PLAN) + (sampling._BLOCK,)
    patched = [list(f) for f in _records.RECORDS[key]]
    patched[1][0] = math.nextafter(patched[1][0], math.inf)
    monkeypatch.setitem(_records.RECORDS, key, patched)
    monkeypatch.setattr(sampling, "_rows", None)  # no row may be made
    got = sampling._record.__wrapped__(*key)
    assert got.tobytes() == np.array(patched).tobytes()
    assert not got.flags.writeable


def _gap_deltas(seed):
    """A gap delta per dim 3-8, kappa in (4.5, 5.8)."""
    rng = np.random.default_rng(seed)
    return [delta_from_spd(spd_with_kappa(rng, dim, rng.uniform(4.5, 5.8)))
            for dim in range(3, 9)]


def test_default_gap_scan_draws_no_design_block(monkeypatch):
    # With the shipped table, the first default-plan scan of a design makes
    # no pass over it for its record, and reads only the probe block.
    sampling._record.cache_clear()
    pass_of = sampling._pass
    rows_of = sampling._rows
    passes, reads = [], []

    def counting_pass(*args):
        passes.append(args)
        return pass_of(*args)

    def recording_rows(*args):  # (dim, count, seed, lo, hi, buf)
        reads.append(args[3])
        return rows_of(*args)

    monkeypatch.setattr(sampling, "_pass", counting_pass)
    monkeypatch.setattr(sampling, "_rows", recording_rows)
    for d in _gap_deltas(50):
        reads.clear()
        scan_design(d, DEFAULT_PLAN)
        assert reads == [0], d.dim
    assert passes == []


@pytest.mark.parametrize("seed", [51, 52, 53])
def test_gap_reports_are_the_same_on_shipped_and_computed_records(
        monkeypatch, capsys, tmp_path, computed_records, seed):
    # Floors only decide which blocks are skipped: every gap report, and analyze's and lmi's
    # output, is the same bit for bit on either record.
    deltas = _gap_deltas(seed)
    argv = [["lmi", "--dim", "3", "--delta", "2.5,3.0,2.8"]]
    for n in (4, 8):
        path = tmp_path / f"gap{n}.txt"
        a = spd_with_kappa(np.random.default_rng(seed), n, 5.5).matrix
        path.write_text(f"{n}\n" + "\n".join(
            " ".join(repr(float(v)) for v in row) for row in a) + "\n")
        argv.append(["analyze", str(path), "--format", "json"])

    def results():
        return ([_key(scan_design(d)) for d in deltas],
                [(cli.run(args), capsys.readouterr()) for args in argv])

    sampling._record.cache_clear()
    shipped = results()
    monkeypatch.setattr(sampling, "_record",
                        lambda *key: computed_records[key])
    assert results() == shipped
    assert [code for code, _ in shipped[1]] == [0, 2, 2]


def test_design_scan_memory_is_bounded():
    # A dim-8 gap scan of a 2,000,000-row design, in a fresh process,
    # twice: the peak RSS grows by less than the design's 128 MB would
    # need, and both reports are equal.
    code = """
import resource, sys
import numpy as np
from kantorovich.forms import delta_from_spd
from kantorovich.linalg import validate_spd
from kantorovich.sampling import SamplePlan, scan_design
q, _ = np.linalg.qr(np.random.default_rng(8).standard_normal((8, 8)))
a = (q * np.geomspace(1.0, 5.5, 8)) @ q.T
d = delta_from_spd(validate_spd(0.5 * (a + a.T)))
scan_design(d, SamplePlan(random_nd=5000))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
keys = []
for _ in range(2):
    r = scan_design(d, SamplePlan(random_nd=2_000_000))
    keys.append((r.worst_value.hex(), np.array(r.worst_point).tobytes().hex(),
                 r.samples, r.passed))
grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
print(grown / 1024, keys[0] == keys[1], keys[0][2], keys[0][3])
"""
    src = str(Path(sampling.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, timeout=600,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    grown, equal, samples, passed = out.split()
    assert float(grown) < 32.0
    assert (equal, samples, passed) == ("True", "2000056", "True")


def test_plan_sample_ceiling():
    # Each count admits 2^27 rows, a record of 2^15 blocks; one more is
    # refused before anything is built.
    for field in ("angles_2d", "fibonacci_3d", "random_nd"):
        assert getattr(SamplePlan(**{field: 1 << 27}), field) == 1 << 27
        with pytest.raises(ValueError, match=r"must be in 1\.\.134217728"):
            SamplePlan(**{field: (1 << 27) + 1})


def test_scan_memory_bounded():
    # 2^20 points at dim 8: building h a whole (2^18, 8, 8) chunk at a
    # time peaked at 400 MB.
    d = _delta_case(8, "gap")
    pts = np.random.default_rng(3).standard_normal((1 << 20, 8))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    tracemalloc.start()
    try:
        res = scan_h(d, pts)
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert res.samples == 1 << 20 and not res.violation
    assert peak < 64.0

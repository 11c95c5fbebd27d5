import tracemalloc

import numpy as np
import pytest

from kantorovich import linalg, sampling
from kantorovich.classify import Certificate, classify
from kantorovich.forms import DeltaVector, delta_from_spd, h_form_batch
from kantorovich.linalg import PSD_EPS, min_eig_batch, validate_spd
from kantorovich.sampling import (DEFAULT_PLAN, SamplePlan, all_samples,
                                  h_scale_bound, probe_directions, scan_h,
                                  sphere_design)


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
        pts = sphere_design(n, plan)
        count = {2: plan.angles_2d,
                 3: plan.fibonacci_3d}.get(n, plan.random_nd)
        assert pts.shape == (count, n)
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0,
                                   atol=1e-12)


def test_design_determinism():
    plan = SamplePlan(seed=7, random_nd=512)
    a = sphere_design(5, plan)
    b = sphere_design(5, SamplePlan(seed=7, random_nd=512))
    np.testing.assert_array_equal(a, b)
    c = sphere_design(5, SamplePlan(seed=8, random_nd=512))
    assert not np.array_equal(a, c)


def test_angles_cover_diagonal():
    # the 2-d design contains the exact 45-degree direction when the count
    # is a multiple of 4 (theta = pi*k/count hits pi/4)
    pts = sphere_design(2, SamplePlan(angles_2d=4096))
    r = 1.0 / np.sqrt(2.0)
    hits = np.isclose(pts, [r, r], atol=0.0).all(axis=1)
    assert hits.any()


def test_all_samples_probes_first():
    plan = SamplePlan(fibonacci_3d=100)
    pts = all_samples(3, plan)
    np.testing.assert_array_equal(pts[:6], probe_directions(3))
    assert pts.shape == (106, 3)


def test_plan_scaling():
    plan = SamplePlan(angles_2d=100, fibonacci_3d=200, random_nd=300)
    big = plan.scaled(10)
    assert (big.angles_2d, big.fibonacci_3d, big.random_nd) == \
        (1000, 2000, 3000)
    assert big.seed == plan.seed


def test_plan_validation():
    with pytest.raises(ValueError):
        SamplePlan(angles_2d=0)
    with pytest.raises(ValueError):
        SamplePlan(refine_rounds=-1)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        SamplePlan(seed=-1)


def test_h_scale_bound():
    d = DeltaVector(dim=2, values=np.array([2.0]))
    assert h_scale_bound(d) == 3.0  # diagonal term dominates for small delta
    d = DeltaVector(dim=2, values=np.array([8.0]))
    assert h_scale_bound(d) == 4.0


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


def _delta_case(dim, case):
    if case == "tied":
        return DeltaVector(dim=dim, values=np.full(dim * (dim - 1) // 2, 2.0))
    kappa = {"gap": 5.0, "neg-eps": 5.0, "kappa6": 6.0, "kappa8": 8.0,
             "kappa30": 30.0}[case]
    return delta_from_spd(validate_spd(np.diag(np.geomspace(1.0, kappa,
                                                            dim))))


SMALL_PLAN = SamplePlan(angles_2d=500, fibonacci_3d=1500, random_nd=1500)


@pytest.mark.parametrize("block", [1, 7, 1 << 20])
@pytest.mark.parametrize("case", ["gap", "kappa6", "kappa8", "kappa30",
                                  "tied", "neg-eps"])
@pytest.mark.parametrize("dim", range(2, 9))
def test_scan_matches_reference(monkeypatch, dim, case, block):
    # The screened scan reports bitwise what evaluating every point does:
    # the first argmin of min_eig_batch over the whole stack.
    monkeypatch.setattr(sampling, "_BLOCK", block)
    d = _delta_case(dim, case)
    eps = -1.0 if case == "neg-eps" else PSD_EPS
    pts = all_samples(dim, SMALL_PLAN)
    lam = min_eig_batch(h_form_batch(d, pts))
    k = int(np.argmin(lam))
    tol = eps * max(1.0, h_scale_bound(d))
    res = scan_h(d, pts, eps=eps)
    assert ((res.worst_value, res.worst_index, res.violation, res.samples,
             res.tolerance) == (float(lam[k]), k, bool(lam[k] < -tol),
                                pts.shape[0], tol))
    if case.startswith("kappa") or case == "neg-eps":
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

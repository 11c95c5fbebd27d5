import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hypothesis import given, strategies as st

from kantorovich.forms import (DeltaVector, delta_from_spd, det3_batch,
                               det_m_alpha_coefs, h_form, h_form_batch,
                               m_entries, m_form, p_form, pair_indices,
                               q_form)
from kantorovich.function import f_hessian
from kantorovich.linalg import DimensionMismatchError, validate_spd
from conftest import random_rotation, random_spd, spd_with_kappa


def two_term_h(lams, y):
    """Independent oracle: the raw eigenvalue-based assembly of the form.

    q_L(y) L^-1 + q_{L^-1}(y) L  +  L y y' L^-1 + L^-1 y y' L
    with L = diag(lams); depends on the eigenvalues themselves rather than
    their pairwise ratio sums, so agreement is a real cross-check.
    """
    lam = np.asarray(lams, dtype=float)
    big = np.diag(lam)
    inv = np.diag(1.0 / lam)
    q_l = 0.5 * float(y @ big @ y)
    q_li = 0.5 * float(y @ inv @ y)
    return (q_l * inv + q_li * big
            + np.outer(big @ y, inv @ y) + np.outer(inv @ y, big @ y))


# --- delta vector ----------------------------------------------------------

def test_pair_indices_order():
    assert pair_indices(4) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_delta_identity_matrix():
    d = delta_from_spd(validate_spd(np.eye(4)))
    np.testing.assert_allclose(d.values, 2.0)


def test_delta_diag16():
    d = delta_from_spd(validate_spd(np.diag([1.0, 6.0])))
    assert d.values[0] == pytest.approx(37.0 / 6.0, abs=1e-15)


def test_delta_at_exact_threshold():
    kappa = 3.0 + 2.0 * math.sqrt(2.0)
    d = delta_from_spd(validate_spd(np.diag([1.0, kappa])))
    # kappa + 1/kappa = (3+2*sqrt(2)) + (3-2*sqrt(2)) = 6, exactly in floats
    assert d.values[0] == 6.0


def test_delta_validation():
    with pytest.raises(ValueError):
        DeltaVector(dim=2, values=np.array([1.5]))
    with pytest.raises(DimensionMismatchError):
        DeltaVector(dim=3, values=np.array([2.5, 2.5]))
    with pytest.raises(ValueError):
        DeltaVector(dim=2, values=np.array([np.inf]))


def test_delta_slack_is_1e_12():
    # A delta entry may sit below 2 by rounding, up to 1e-12: 2 - 1e-13 is
    # accepted and kept as it is, 2 - 1e-11 is rejected.
    d = DeltaVector(dim=3, values=np.array([2.5, 2.0 - 1e-13, 3.0]))
    assert d.values[1] == 2.0 - 1e-13
    with pytest.raises(ValueError, match="must be >= 2"):
        DeltaVector(dim=3, values=np.array([2.5, 2.0 - 1e-11, 3.0]))


def test_delta_envelope_and_kappa(rng):
    for _ in range(30):
        n = int(rng.integers(2, 7))
        spd = spd_with_kappa(rng, n, float(rng.uniform(1.5, 9.0)))
        d = delta_from_spd(spd)
        top = spd.kappa + 1.0 / spd.kappa
        assert d.values.max() <= top * (1.0 + 1e-12)
        # the (1, n) pair attains the envelope
        k = pair_indices(n).index((0, n - 1))
        assert d.values[k] == pytest.approx(top, rel=1e-12)


def test_delta_scale_invariance(rng):
    spd = random_spd(rng, 4)
    scaled = validate_spd(7.3 * spd.matrix)
    np.testing.assert_allclose(delta_from_spd(spd).values,
                               delta_from_spd(scaled).values, rtol=1e-12)


def _numpy_scalar_deltas(spd):
    # the ratio sums on numpy float64 scalars
    w = spd.eigenvalues
    vals = [w[j] / w[i] + w[i] / w[j] for i, j in pair_indices(spd.dim)]
    return np.asarray(vals, dtype=float)


@pytest.mark.parametrize("n", range(1, 9))
def test_delta_from_spd_is_the_numpy_scalar_formula(rng, n):
    # Bit for bit, on random, tied and nearly tied spectra at scales
    # 1e-30..1e30, diagonal (ties kept exact) and rotated.
    base = np.sort(rng.uniform(1.0, 5.0, n))
    spectra = [base]
    if n > 1:
        tied, near, next_up = base.copy(), base.copy(), base.copy()
        tied[n // 2] = tied[n // 2 - 1]
        near[n // 2] = near[n // 2 - 1] * (1.0 + 1e-9)
        next_up[n // 2] = np.nextafter(next_up[n // 2 - 1], np.inf)
        spectra += [tied, near, next_up, np.full(n, 2.0)]
    u = random_rotation(rng, n)
    for w in spectra:
        for scale in 10.0 ** np.arange(-30, 31, 10):
            for a in (np.diag(w * scale), (u * (w * scale)) @ u.T):
                spd = validate_spd(0.5 * (a + a.T))
                got = delta_from_spd(spd).values
                assert got.tobytes() == _numpy_scalar_deltas(spd).tobytes()


# --- h form ----------------------------------------------------------------

def test_h_zero_point():
    d = DeltaVector(dim=3, values=np.array([2.0, 2.0, 2.0]))
    np.testing.assert_allclose(h_form(d, np.zeros(3)), 0.0)


def test_h_2d_hand_values():
    d = DeltaVector(dim=2, values=np.array([2.0]))
    np.testing.assert_allclose(h_form(d, np.array([1.0, 1.0])),
                               [[4.0, 2.0], [2.0, 4.0]])
    d = DeltaVector(dim=2, values=np.array([6.0]))
    np.testing.assert_allclose(h_form(d, np.array([1.0, 1.0])),
                               [[6.0, 6.0], [6.0, 6.0]])


def test_h_homogeneity(rng):
    d = DeltaVector(dim=3, values=np.array([2.5, 3.0, 2.2]))
    y = rng.standard_normal(3)
    t = float(rng.uniform(0.1, 3.0))
    np.testing.assert_allclose(h_form(d, t * y), t * t * h_form(d, y),
                               rtol=1e-12)


def test_h_matches_two_term_oracle(rng):
    for _ in range(50):
        n = int(rng.integers(2, 7))
        lams = np.sort(rng.uniform(0.5, 5.0, size=n))
        spd = validate_spd(np.diag(lams))
        y = rng.standard_normal(n)
        np.testing.assert_allclose(h_form(delta_from_spd(spd), y),
                                   two_term_h(spd.eigenvalues, y),
                                   atol=1e-12)


def test_conjugation_identity(rng):
    # hessian of f at x equals U' h(delta, Ux) U entrywise
    for _ in range(100):
        n = int(rng.integers(2, 7))
        spd = random_spd(rng, n)
        x = rng.standard_normal(n)
        u = spd.spectral.rotation
        h = h_form(delta_from_spd(spd), u @ x)
        np.testing.assert_allclose(f_hessian(spd, x), u.T @ h @ u, atol=1e-9)


@pytest.mark.parametrize("dim", range(2, 9))
def test_h_batch_rows_are_row_local(rng, dim):
    # Every row of a batch is bitwise the row evaluated alone, whatever the
    # batch size, so a scan's report does not depend on how it batches.
    d = DeltaVector(dim=dim, values=rng.uniform(
        2.0, 12.0, size=dim * (dim - 1) // 2))
    for m in (1, 2, 7, 2000):
        pts = rng.standard_normal((m, dim))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        batch = h_form_batch(d, pts)
        for k in range(m):
            assert batch[k].tobytes() == h_form(d, pts[k]).tobytes()


def test_h_biquadratic_symmetry(rng):
    # z'h(d, y)z == y'h(d, z)y
    for n in range(2, 9):
        for _ in range(20):
            d = DeltaVector(dim=n, values=rng.uniform(
                2.0, 40.0, size=n * (n - 1) // 2))
            y, z = rng.standard_normal((2, n))
            h = h_form(d, y)
            scale = np.abs(z) @ np.abs(h) @ np.abs(z)
            assert z @ h @ z == pytest.approx(y @ h_form(d, z) @ y,
                                              rel=0.0, abs=1e-12 * scale)


def _h_exact(delta, y):
    """h(delta, y) from its definition in the forms docstring, with delta
    a dict {(i, j): value} over i < j and every entry a Fraction."""
    n = len(y)
    d = {**delta, **{(j, i): v for (i, j), v in delta.items()}}
    h = [[d[i, j] * y[i] * y[j] if i != j else None for j in range(n)]
         for i in range(n)]
    for i in range(n):
        h[i][i] = 3 * y[i] ** 2 + sum(d[i, j] * y[j] ** 2
                                      for j in range(n) if j != i) / 2
    return h


def _pair_sos(delta, y, z, c):
    """3 (y.z)^2 + sum_{i<j} [delta/2 (a^2 + b^2) + 2 (delta - c) a b],
    a = y_i z_j, b = y_j z_i: the identity for z'h(delta, y)z at c = 3."""
    out = 3 * sum(a * b for a, b in zip(y, z)) ** 2
    for (i, j), v in delta.items():
        a, b = y[i] * z[j], y[j] * z[i]
        out += v * (a * a + b * b) / 2 + 2 * (v - c) * a * b
    return out


def test_h_pair_sos_identity_exact():
    # The identity makes every pair term the 2x2 form [[d/2, d-3], [d-3,
    # d/2]], PSD for 2 <= d <= 6, so h(delta, .) is PSD whenever delta_max
    # <= 6; classify's gap rung relies on it.  Exact in Fraction arithmetic
    # at every delta >= 2; the pair-term constant 29/10 in place of 3 fails.
    gen = random.Random(2010)

    def q(lo, hi):
        return Fraction(gen.randint(lo, hi), gen.randint(1, 40))

    mutant_caught = False
    for n in range(2, 9):
        for _ in range(20):
            delta = {p: 2 + q(0, 400) for p in pair_indices(n)}
            y = [q(-60, 60) for _ in range(n)]
            z = [q(-60, 60) for _ in range(n)]
            h = _h_exact(delta, y)
            lhs = sum(z[i] * h[i][j] * z[j]
                      for i in range(n) for j in range(n))
            assert lhs == _pair_sos(delta, y, z, 3)
            mutant_caught |= lhs != _pair_sos(delta, y, z, Fraction(29, 10))
    assert mutant_caught


def _bound_slack(delta, y, z, half=Fraction(3, 2)):
    """z'h(delta, y)z - (half - delta_max/4) |y|^2 |z|^2, exactly."""
    h = _h_exact(delta, y)
    n = len(y)
    zhz = sum(z[i] * h[i][j] * z[j] for i in range(n) for j in range(n))
    c = half - max(delta.values()) / 4
    return zhz - c * sum(v * v for v in y) * sum(v * v for v in z)


def test_h_lambda_min_bound_exact():
    # With the identity's pair term written as (3d/4 - 3/2)(a+b)^2 + (3/2 -
    # d/4)(a-b)^2 and the Lagrange identity sum_{i<j} (a-b)^2 = |y|^2|z|^2 -
    # (y.z)^2, lambda_min h(delta, y) >= 3/2 - delta_max/4 at every unit y
    # for every delta >= 2, not only delta_max <= 6.  The extreme-pair probe
    # attains it, so a scan's worst value, which includes the probe rows, is
    # already the minimum over the sphere.  Exact in Fraction arithmetic;
    # the constant 149/100 in place of 3/2 misses the equality.
    gen = random.Random(2012)

    def q(lo, hi):
        return Fraction(gen.randint(lo, hi), gen.randint(1, 40))

    for n in range(2, 9):
        for _ in range(20):
            delta = {p: 2 + q(0, 400) for p in pair_indices(n)}
            y = [q(-60, 60) for _ in range(n)]
            z = [q(-60, 60) for _ in range(n)]
            assert _bound_slack(delta, y, z) >= 0
            # y = e_i + e_j, z = e_i - e_j: the probe scaled by sqrt(2).
            i, j = max(delta, key=delta.get)
            y = [int(k in (i, j)) for k in range(n)]
            z = [(k == i) - (k == j) for k in range(n)]
            assert _bound_slack(delta, y, z) == 0
            assert _bound_slack(delta, y, z, Fraction(149, 100)) != 0


def _row_bound_gap(delta, y, z, b_shift=0):
    """z'(h - M)z and the pair sum it equals, exactly, where M = (c + a)
    |y|^2 I + b yy' - 2a diag(y^2) is the row bound's matrix (a = 3
    delta_min/4 - 3/2, c = 3/2 - delta_max/4, b = 3 + a - c + b_shift)."""
    n = len(y)
    a = 3 * min(delta.values()) / 4 - Fraction(3, 2)
    c = Fraction(3, 2) - max(delta.values()) / 4
    b = 3 + a - c + b_shift
    h = _h_exact(delta, y)
    zhz = sum(z[i] * h[i][j] * z[j] for i in range(n) for j in range(n))
    yz = sum(u * v for u, v in zip(y, z))
    zmz = ((c + a) * sum(v * v for v in y) * sum(v * v for v in z)
           + b * yz * yz - 2 * a * sum((u * v) ** 2 for u, v in zip(y, z)))
    pairs = 0
    for (i, j), d in delta.items():
        alpha, beta = 3 * d / 4 - Fraction(3, 2), Fraction(3, 2) - d / 4
        pairs += ((alpha - a) * (y[i] * z[j] + y[j] * z[i]) ** 2
                  + (beta - c) * (y[i] * z[j] - y[j] * z[i]) ** 2)
    return zhz - zmz, pairs


def _floor_step_gap(delta, mu, v, z):
    """z'(N - T)z and (b - a beta)(v.z)^2, exactly, where T = 2a D - b vv'
    is the row bound's 2x2 matrix (D = diag(mu), a, b as above) and N =
    a (2D - beta vv') its normalized form, beta = 1 + 2/A with A = 3
    (sampling._FLOOR_COEFS); the design floors rest on N - T PSD."""
    a = 3 * min(delta.values()) / 4 - Fraction(3, 2)
    c = Fraction(3, 2) - max(delta.values()) / 4
    b = 3 + a - c
    beta = 1 + Fraction(2, 3)
    t = [[2 * a * mu[i] * (i == j) - b * v[i] * v[j] for j in range(2)]
         for i in range(2)]
    m = [[a * (2 * mu[i] * (i == j) - beta * v[i] * v[j]) for j in range(2)]
         for i in range(2)]
    gap = sum(z[i] * (m[i][j] - t[i][j]) * z[j]
              for i in range(2) for j in range(2))
    return gap, (b - a * beta) * (v[0] * z[0] + v[1] * z[1]) ** 2, a


def test_h_row_bound_matrix_exact():
    # Every pair coefficient of the identity is at least a or at least c, so
    # h(delta, y) - M is the sum of nonnegative pair squares below, and
    # lambda_min h >= lambda_min M: step 1 of the scan's row bound
    # (docs/proofs.md#row-bound).  Exact in Fraction arithmetic with
    # delta_ij on both sides of 6; b shifted by 1/10 misses it.
    # The normalized step of the design floors: for 0 < a <= A = 3,
    # a (2D - (1 + 2/A) vv') - (2a D - b vv') = (b - a (1 + 2/A)) vv' is
    # PSD.  Nearly equal delta_ij above 10 (so a > 6 > A) break it.
    gen = random.Random(2021)

    def q(lo, hi):
        return Fraction(gen.randint(lo, hi), gen.randint(1, 40))

    mutant_caught = False
    floor_checked = 0
    for n in range(2, 9):
        for _ in range(20):
            delta = {p: 2 + q(0, 400) for p in pair_indices(n)}
            y = [q(-60, 60) for _ in range(n)]
            z = [q(-60, 60) for _ in range(n)]
            gap, pairs = _row_bound_gap(delta, y, z)
            assert gap == pairs and pairs >= 0
            mutant, pairs = _row_bound_gap(delta, y, z, Fraction(1, 10))
            mutant_caught |= mutant != pairs
            for top in (q(0, 160), 4 + q(0, 80)):
                near = {p: 2 + top * d / 402 for p, d in delta.items()}
                mu = sorted([q(0, 60), q(0, 60)], reverse=True)
                gap, want, a = _floor_step_gap(near, mu, y[:2], z[:2])
                assert gap == want
                if 0 < a <= 3:
                    assert gap >= 0
                    floor_checked += 1
    assert mutant_caught and floor_checked >= 100
    floor_mutant_caught = False
    for n in range(2, 9):
        delta = {p: 10 + q(1, 40) / 100 for p in pair_indices(n)}
        gap, want, a = _floor_step_gap(delta, [q(0, 60), q(0, 60)],
                                       [q(1, 60), q(1, 60)],
                                       [q(1, 60), q(1, 60)])
        assert gap == want and a > 3
        floor_mutant_caught |= gap < 0
    assert floor_mutant_caught


def test_h_batch_shape_validation():
    d = DeltaVector(dim=3, values=np.array([2.0, 2.0, 2.0]))
    with pytest.raises(DimensionMismatchError):
        h_form_batch(d, np.zeros((5, 4)))
    with pytest.raises(DimensionMismatchError):
        h_form(d, np.zeros(2))


# --- normalized 3-d forms --------------------------------------------------

def test_m_entries_are_m_form(rng):
    # the unique entries, in (e11, e22, e33, e12, e13, e23) order, are the
    # packed matrix's entries bit for bit
    w = rng.uniform(2.0, 4.0, size=(50, 3))
    a, b = rng.uniform(-1.0, 1.0, size=(2, 50))
    e = m_entries(w, a, b)
    m = m_form(w, a, b)
    for k, (i, j) in enumerate([(0, 0), (1, 1), (2, 2), (0, 1), (0, 2),
                                (1, 2)]):
        assert np.array_equal(e[k], m[:, i, j])
        assert np.array_equal(e[k], m[:, j, i])


def test_m_form_diagonal_case():
    m = m_form((2.5, 3.0, 3.5), 0.0, 0.0)
    np.testing.assert_allclose(m, np.diag([3.0, 1.25, 1.5]))


def _case_point(rng, which):
    # random y whose largest-magnitude coordinate is `which`
    y = rng.uniform(-1.0, 1.0, size=3)
    y[which] = float(rng.choice([-1.0, 1.0])) * float(rng.uniform(1.2, 2.0))
    return y


@pytest.mark.parametrize("which,builder", [(0, m_form), (1, p_form),
                                           (2, q_form)])
def test_case_decomposition(rng, which, builder):
    """h(delta, y) = y_k^2 * form(omega, ratios) when |y_k| dominates."""
    for _ in range(60):
        vals = rng.uniform(2.0, 6.0, size=3)
        delta = DeltaVector(dim=3, values=vals)
        y = _case_point(rng, which)
        others = [i for i in range(3) if i != which]
        alpha = y[others[0]] / y[which]
        beta = y[others[1]] / y[which]
        built = y[which] ** 2 * builder(vals, alpha, beta)
        np.testing.assert_allclose(built, h_form(delta, y), rtol=1e-12,
                                   atol=1e-12)


def test_p_is_m_conjugated(rng):
    # Swapping coordinates 1 and 2 turns the first-dominates case into the
    # second-dominates case with (w1, w2, w3) -> (w1, w3, w2).
    perm = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    for _ in range(20):
        w = rng.uniform(2.0, 6.0, size=3)
        a, b = rng.uniform(-1.0, 1.0, size=2)
        m = m_form((w[0], w[2], w[1]), a, b)
        np.testing.assert_allclose(p_form(w, a, b), perm @ m @ perm,
                                   atol=1e-14)


def test_q_is_m_conjugated(rng):
    # Cyclic shift sending coordinate 3 to the front: q(w1,w2,w3; a, b)
    # matches m(w2, w3, w1) at (alpha, beta) = (a, b) conjugated by the
    # rotation that maps (y1, y2, y3) -> (y3, y1, y2).
    perm = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    for _ in range(20):
        w = rng.uniform(2.0, 6.0, size=3)
        a, b = rng.uniform(-1.0, 1.0, size=2)
        m = m_form((w[1], w[2], w[0]), a, b)
        np.testing.assert_allclose(q_form(w, a, b), perm.T @ m @ perm,
                                   atol=1e-14)


def test_det_m_examples():
    assert det3_batch(m_form((4.0, 4.0, 4.0), 0.0, 1.0)) == pytest.approx(36.0)
    assert det3_batch(m_form((2.0, 2.0, 2.0), 0.0, 1.0)) == pytest.approx(24.0)


def test_det_m_alpha0_closed_form():
    # c0 = det m at alpha = 0
    assert det_m_alpha_coefs((4.0, 4.0, 4.0), 1.0)[0] == pytest.approx(36.0)
    assert det_m_alpha_coefs((2.0, 2.0, 2.0), 1.0)[0] == pytest.approx(24.0)
    for w1, w2 in ((2.0, 2.0), (3.0, 4.0)):
        assert det_m_alpha_coefs((w1, w2, 2.5), 0.0)[0] == pytest.approx(
            0.75 * w1 * w2)


def test_det_m_alpha0_matches_assembled(rng):
    for _ in range(1000):
        w = rng.uniform(2.0, 6.0, size=3)
        b = float(rng.uniform(-1.0, 1.0))
        got = det_m_alpha_coefs(w, b)[0]
        want = float(det3_batch(m_form(w, 0.0, b)))
        assert got == pytest.approx(want, rel=1e-10)


_unit = st.floats(-1.0, 1.0)


@given(st.tuples(*[st.floats(2.0, 4.0)] * 3), _unit, _unit)
def test_det_m_alpha_coefs_reproduce_det(omega, alpha, beta):
    c0, c2, c4, c6 = det_m_alpha_coefs(omega, beta)
    a2 = alpha * alpha
    got = c0 + c2 * a2 + c4 * a2 ** 2 + c6 * a2 ** 3
    want = float(det3_batch(m_form(omega, alpha, beta)))
    # det m >= 3 at every lemma grid node, so a relative bound is meaningful
    assert got == pytest.approx(want, rel=1e-12)


def test_det_m_degree_six_in_alpha(rng):
    # fixed (omega, beta): values at 7 nodes determine the polynomial; check
    # the interpolation reproduces 20 fresh alpha evaluations
    w = rng.uniform(2.0, 4.0, size=3)
    b = float(rng.uniform(-1.0, 1.0))
    nodes = np.linspace(-1.0, 1.0, 7)
    vals = det3_batch(m_form(w, nodes, b))
    coefs = np.linalg.solve(np.vander(nodes, 7, increasing=True), vals)
    fresh = rng.uniform(-1.0, 1.0, size=20)
    direct = det3_batch(m_form(w, fresh, b))
    poly = sum(c * fresh ** k for k, c in enumerate(coefs))
    np.testing.assert_allclose(poly, direct, rtol=1e-9, atol=1e-9)


def test_forms_broadcast(rng):
    w = rng.uniform(2.0, 4.0, size=(5, 4, 3))
    a = rng.uniform(-1.0, 1.0, size=(5, 4))
    b = rng.uniform(-1.0, 1.0, size=(5, 4))
    out = m_form(w, a, b)
    assert out.shape == (5, 4, 3, 3)
    np.testing.assert_allclose(out[2, 1],
                               m_form(w[2, 1], a[2, 1], b[2, 1]), atol=0.0)

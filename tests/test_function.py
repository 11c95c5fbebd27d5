import numpy as np
import pytest

from kantorovich.function import (f_gradient, f_hessian, f_value, k_value,
                                  kantorovich_bound_check)
from kantorovich.linalg import (DimensionMismatchError, ZeroVectorError,
                                min_eigenvalue, validate_spd)
from conftest import random_spd

DIAG16 = validate_spd(np.diag([1.0, 6.0]))
EYE2 = validate_spd(np.eye(2))


def central_fd_gradient(spd, x, step=1e-5):
    """Independent oracle: central differences of k_value/4."""
    n = x.shape[0]
    g = np.empty(n)
    for i in range(n):
        h = step * (1.0 + abs(x[i]))
        e = np.zeros(n)
        e[i] = h
        g[i] = (k_value(spd, x + e) - k_value(spd, x - e)) / (8.0 * h)
    return g


def central_fd_hessian(spd, x, step=1e-5):
    """Independent oracle: central differences of the analytic gradient."""
    n = x.shape[0]
    cols = []
    for i in range(n):
        h = step * (1.0 + abs(x[i]))
        e = np.zeros(n)
        e[i] = h
        cols.append((f_gradient(spd, x + e) - f_gradient(spd, x - e))
                    / (2.0 * h))
    m = np.column_stack(cols)
    return 0.5 * (m + m.T)


# --- values ----------------------------------------------------------------

def test_k_value_identity():
    x = np.array([1.0, 1.0])
    assert k_value(EYE2, x) == pytest.approx(4.0)
    assert f_value(EYE2, x) == pytest.approx(1.0)


def test_k_value_diag16():
    assert k_value(DIAG16, np.array([1.0, 1.0])) == pytest.approx(49.0 / 6.0)


def test_k_value_zero_point():
    assert k_value(DIAG16, np.zeros(2)) == 0.0


def test_k_value_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        k_value(DIAG16, np.array([1.0, 2.0, 3.0]))


def test_homogeneity(rng):
    for _ in range(50):
        spd = random_spd(rng, int(rng.integers(2, 6)))
        x = rng.standard_normal(spd.dim)
        t = rng.uniform(-2.0, 2.0)
        assert k_value(spd, t * x) == pytest.approx(
            t ** 4 * k_value(spd, x), rel=1e-10, abs=1e-12)


def test_lower_bound(rng):
    # K(x) >= |x|^4 by Cauchy-Schwarz on A^(1/2)x and A^(-1/2)x
    for _ in range(200):
        spd = random_spd(rng, int(rng.integers(2, 6)))
        x = rng.standard_normal(spd.dim)
        nx4 = float(x @ x) ** 2
        assert k_value(spd, x) >= nx4 * (1.0 - 1e-10)


# --- gradient --------------------------------------------------------------

def test_gradient_zero_point():
    np.testing.assert_allclose(f_gradient(DIAG16, np.zeros(2)), 0.0)


def test_gradient_identity():
    np.testing.assert_allclose(f_gradient(EYE2, np.array([1.0, 1.0])),
                               [2.0, 2.0], atol=1e-14)


def test_gradient_diag16():
    # (7/12)*(1,6) + (7/2)*(1,1/6) = (49/12, 49/12)
    np.testing.assert_allclose(f_gradient(DIAG16, np.array([1.0, 1.0])),
                               [49.0 / 12.0, 49.0 / 12.0], atol=1e-14)


def test_gradient_matches_fd(rng):
    for _ in range(100):
        spd = random_spd(rng, int(rng.integers(2, 6)))
        x = rng.standard_normal(spd.dim)
        g = f_gradient(spd, x)
        fd = central_fd_gradient(spd, x)
        scale = max(1.0, float(np.abs(g).max()))
        assert np.abs(fd - g).max() / scale < 1e-6


# --- hessian ---------------------------------------------------------------

def test_hessian_zero_point():
    np.testing.assert_allclose(f_hessian(DIAG16, np.zeros(2)), 0.0)


def test_hessian_diag16_hand_value():
    h = f_hessian(DIAG16, np.array([1.0, 1.0]))
    expect = np.array([[73.0 / 12.0, 37.0 / 6.0], [37.0 / 6.0, 73.0 / 12.0]])
    np.testing.assert_allclose(h, expect, atol=1e-14)
    assert min_eigenvalue(h) == pytest.approx(-1.0 / 12.0, abs=1e-12)


def test_hessian_identity_basis_point():
    # (1/2)I + (1/2)I + 2 x x' at x = e1
    h = f_hessian(EYE2, np.array([1.0, 0.0]))
    np.testing.assert_allclose(h, np.diag([3.0, 1.0]), atol=1e-14)


def test_hessian_symmetry(rng):
    for _ in range(20):
        spd = random_spd(rng, 4)
        h = f_hessian(spd, rng.standard_normal(4))
        np.testing.assert_allclose(h, h.T, atol=0.0)


def test_hessian_matches_fd(rng):
    for _ in range(100):
        spd = random_spd(rng, int(rng.integers(2, 6)))
        x = rng.standard_normal(spd.dim)
        h = f_hessian(spd, x)
        fd = central_fd_hessian(spd, x)
        scale = max(1.0, float(np.abs(h).max()))
        assert np.abs(fd - h).max() / scale < 1e-6


def test_hessian_degree_two_homogeneous(rng):
    spd = random_spd(rng, 3)
    x = rng.standard_normal(3)
    np.testing.assert_allclose(f_hessian(spd, 2.0 * x),
                               4.0 * f_hessian(spd, x), rtol=1e-12)


def test_hessian_near_the_subnormal_range_is_the_unit_scale_hessian():
    # f and its derivatives are the same for A and cA; with c = 2^-1021,
    # x'A^-1x at x = (5, 1) overflows unless the pair is rescaled first.
    tiny = validate_spd(np.ldexp(np.diag([1.0, 6.0]), -1021))
    x = np.array([5.0, 1.0])
    assert f_hessian(tiny, x).tobytes() == f_hessian(DIAG16, x).tobytes()


# --- classical bound -------------------------------------------------------

def test_bound_identity_equality(rng):
    x = rng.standard_normal(3)
    chk = kantorovich_bound_check(validate_spd(np.eye(3)), x)
    assert chk.lhs == pytest.approx(chk.rhs, rel=1e-12)
    assert chk.holds


def test_bound_diag16_extremal():
    chk = kantorovich_bound_check(DIAG16, np.array([1.0, 1.0]))
    assert chk.lhs == pytest.approx(49.0 / 6.0)
    assert chk.rhs == pytest.approx(49.0 / 6.0)
    assert chk.holds


def test_bound_diag16_basis_vector():
    chk = kantorovich_bound_check(DIAG16, np.array([1.0, 0.0]))
    assert chk.lhs == pytest.approx(1.0)
    assert chk.rhs == pytest.approx(49.0 / 24.0)
    assert chk.holds


def test_bound_as_printed_variant_fails_at_extremal():
    chk = kantorovich_bound_check(DIAG16, np.array([1.0, 1.0]), "as_printed")
    assert chk.rhs == pytest.approx(37.0 / 6.0)
    assert not chk.holds


def test_bound_zero_vector():
    with pytest.raises(ZeroVectorError):
        kantorovich_bound_check(DIAG16, np.zeros(2))


@pytest.mark.parametrize("c", [1e160, 1e-200, 2.0 ** 1000])
def test_bound_independent_of_matrix_scale(c):
    # (l1 + ln)^2 overflows a float at these scales unless the eigenvalues
    # are rescaled first; the bound is homogeneous of degree 0 in A.
    spd = validate_spd(c * np.diag([1.0, 6.0]))
    x = np.array([1.0, 1.0])
    assert kantorovich_bound_check(spd, x).holds
    assert not kantorovich_bound_check(spd, x, "as_printed").holds


def test_bound_holds_randomly(rng):
    # 10^4 random (A, x) across dims 2..5
    count = 0
    while count < 10_000:
        spd = random_spd(rng, int(rng.integers(2, 6)))
        for _ in range(50):
            x = rng.standard_normal(spd.dim)
            assert kantorovich_bound_check(spd, x).holds
            count += 1

import numpy as np
import pytest

from kantorovich.linalg import (JacobiConvergenceError, MatrixValidationError,
                                NotPositiveDefiniteError, NotSquareError,
                                NotSymmetricError, NonFiniteError,
                                cholesky_clears, det, eig_sym,
                                min_eig_batch, min_eigenvalue,
                                screened_min_eig, symmetrize, validate_spd)
from conftest import random_rotation


# --- validation ------------------------------------------------------------

def test_validate_identity():
    spd = validate_spd(np.eye(3))
    assert spd.kappa == 1.0
    np.testing.assert_allclose(spd.eigenvalues, [1.0, 1.0, 1.0])


def test_validate_diag16():
    spd = validate_spd(np.diag([1.0, 6.0]))
    assert spd.kappa == 6.0
    np.testing.assert_allclose(spd.eigenvalues, [1.0, 6.0])
    np.testing.assert_allclose(spd.inverse, np.diag([1.0, 1.0 / 6.0]),
                               atol=1e-15)


def test_validate_rejects_indefinite():
    # eigenvalues of [[1,2],[2,1]] are 1 +- 2, i.e. -1 and 3
    with pytest.raises(NotPositiveDefiniteError):
        validate_spd([[1.0, 2.0], [2.0, 1.0]])


def test_validate_rejects_singular():
    with pytest.raises(NotPositiveDefiniteError):
        validate_spd(np.diag([0.0, 1.0]))


def test_symmetrize_rejects_bad_shapes():
    with pytest.raises(NotSquareError):
        symmetrize(np.ones((2, 3)))
    with pytest.raises(NotSquareError):
        symmetrize(np.ones(4))
    with pytest.raises(NonFiniteError):
        symmetrize([[1.0, np.nan], [np.nan, 1.0]])
    with pytest.raises(NotSymmetricError):
        symmetrize([[1.0, 2.0], [2.1, 1.0]])


def test_symmetrize_accepts_roundtrip_noise():
    a = np.array([[2.0, 1.0], [1.0 + 1e-16, 2.0]])
    out = symmetrize(a)
    assert out[0, 1] == out[1, 0]
    assert not out.flags.writeable


def test_dim_cap():
    with pytest.raises(MatrixValidationError):
        validate_spd(np.eye(9))
    validate_spd(np.eye(8))  # boundary dim is fine


def test_inverse_identity_invariant(rng):
    for n in range(2, 9):
        u = random_rotation(rng, n)
        lams = rng.uniform(0.5, 5.0, size=n)
        spd = validate_spd((u * lams) @ u.T)
        np.testing.assert_allclose(spd.matrix @ spd.inverse, np.eye(n),
                                   atol=1e-9)
        assert spd.kappa == pytest.approx(lams.max() / lams.min(), rel=1e-10)


# --- eigensolver -----------------------------------------------------------

def test_eig_diagonal_input():
    spec = eig_sym(np.diag([3.0, 1.0, 2.0]))
    np.testing.assert_allclose(spec.eigenvalues, [1.0, 2.0, 3.0])
    # rotation should be a signed permutation
    np.testing.assert_allclose(np.abs(spec.rotation).sum(axis=0), 1.0)
    np.testing.assert_allclose(np.abs(spec.rotation).sum(axis=1), 1.0)


def test_eig_2x2_hand_solve():
    # lambda^2 - 4 lambda + 3 = 0  ->  1 and 3
    spec = eig_sym([[2.0, 1.0], [1.0, 2.0]])
    np.testing.assert_allclose(spec.eigenvalues, [1.0, 3.0], atol=1e-14)


def test_eig_reconstruction_5x5(rng):
    a = rng.standard_normal((5, 5))
    a = a + a.T
    spec = eig_sym(a)
    u, w = spec.rotation, spec.eigenvalues
    err = np.linalg.norm(u.T @ (w[:, None] * u) - a)
    assert err <= 1e-9 * np.linalg.norm(a)


def test_eig_matches_lapack(rng):
    for n in range(2, 9):
        a = rng.standard_normal((n, n))
        a = a + a.T
        np.testing.assert_allclose(eig_sym(a).eigenvalues,
                                   np.linalg.eigvalsh(a), atol=1e-10)


def test_eig_orthogonal_invariance(rng):
    a = rng.standard_normal((4, 4))
    a = a + a.T
    q = random_rotation(rng, 4)
    w1 = eig_sym(a).eigenvalues
    w2 = eig_sym(q.T @ a @ q).eigenvalues
    np.testing.assert_allclose(w1, w2, atol=1e-8)


def test_eig_zero_matrix():
    spec = eig_sym(np.zeros((3, 3)))
    np.testing.assert_allclose(spec.eigenvalues, 0.0)


def test_jacobi_convergence_error():
    with pytest.raises(JacobiConvergenceError):
        eig_sym(np.diag([1.0, 2.0]) + np.ones((2, 2)), max_sweeps=0)


# --- min eigenvalue / psd --------------------------------------------------

def test_min_eig_examples():
    assert min_eigenvalue(np.diag([0.0, 1.0])) == pytest.approx(0.0, abs=1e-15)
    # [[a,b],[b,a]] has eigenvalues a -+ b
    m = np.array([[73.0 / 12.0, 74.0 / 12.0], [74.0 / 12.0, 73.0 / 12.0]])
    assert min_eigenvalue(m) == pytest.approx(-1.0 / 12.0, abs=1e-14)
    d = 6.0
    m = np.array([[3.0 + d / 2.0, d], [d, 3.0 + d / 2.0]])
    assert min_eigenvalue(m) == pytest.approx(0.0, abs=1e-14)


def test_rayleigh_quotient_bound(rng):
    a = rng.standard_normal((5, 5))
    a = a + a.T
    lam = min_eigenvalue(a)
    x = rng.standard_normal((1000, 5))
    quot = np.einsum("ki,ij,kj->k", x, a, x) / np.einsum("ki,ki->k", x, x)
    assert np.all(lam <= quot + 1e-9)


# --- determinant -----------------------------------------------------------

def test_det_examples():
    assert det(np.eye(4)) == pytest.approx(1.0)
    assert det(np.diag([1.0, 6.0])) == pytest.approx(6.0)
    assert det([[2.0, 1.0], [1.0, 2.0]]) == pytest.approx(3.0)


def test_det_matches_eigenvalue_product(rng):
    for n in range(2, 9):
        u = random_rotation(rng, n)
        lams = rng.uniform(0.5, 3.0, size=n)
        spd = validate_spd((u * lams) @ u.T)
        prod = float(np.prod(spd.eigenvalues))
        assert det(spd.matrix) == pytest.approx(prod, rel=1e-8)


def test_det_singular_4x4():
    a = np.ones((4, 4))
    assert det(a) == pytest.approx(0.0, abs=1e-12)


# --- batched fast paths ----------------------------------------------------

def test_min_eig_batch_matches_lapack(rng):
    for n in (1, 2, 3, 4, 5):
        a = rng.standard_normal((40, n, n))
        a = a + np.swapaxes(a, -1, -2)
        np.testing.assert_allclose(min_eig_batch(a),
                                   np.linalg.eigvalsh(a)[..., 0], atol=1e-11)


def _stack(mats):
    return np.moveaxis(np.asarray(mats, dtype=float), 0, -1)


def _cholesky_ok(m):
    try:
        np.linalg.cholesky(m)
        return True
    except np.linalg.LinAlgError:
        return False


@pytest.mark.parametrize("n", range(1, 9))
def test_cholesky_clears_matches_lapack(rng, n):
    # Shifts on both sides of each matrix's lambda_min, some far and some
    # within 1e-6 of it: the mask is LAPACK's Cholesky success.
    a = rng.standard_normal((24, n, n))
    a = a + np.swapaxes(a, -1, -2)
    lam = np.linalg.eigvalsh(a)[:, 0]
    for rel in (-1.0, -1e-6, 1e-6, 1.0):
        for shift in np.unique(lam + rel):
            shifted = a - shift * np.eye(n)
            want = [_cholesky_ok(m) for m in shifted]
            entries = _stack(a)
            before = entries.copy()
            got = cholesky_clears(entries, shift)
            assert got.tolist() == want
            np.testing.assert_array_equal(entries, before)


@pytest.mark.parametrize("n", range(2, 9))
def test_cholesky_clears_zero_and_nan_pivots(n):
    # diag(n, ..., 1) - I has its last pivot exactly 0: not cleared.  A NaN
    # anywhere in the lower triangle, down to the last entry, never clears
    # its matrix; the clean matrices beside them still clear.
    base = np.diag(np.arange(n, 0, -1.0))
    mats = [base.copy() for _ in range(n + 2)]
    for k, (i, j) in enumerate([(0, 0), (n - 1, n - 1), (n - 1, 0)]):
        mats[k][i, j] = mats[k][j, i] = np.nan
    entries = _stack(mats)
    assert cholesky_clears(entries, 1.0).tolist() == [False] * (n + 2)
    ok = cholesky_clears(entries, 0.5)
    assert ok.tolist() == [False] * 3 + [True] * (n - 1)


def test_min_eig_batch_leading_dims(rng):
    a = rng.standard_normal((3, 4, 3, 3))
    a = a + np.swapaxes(a, -1, -2)
    out = min_eig_batch(a)
    assert out.shape == (3, 4)
    np.testing.assert_allclose(out, np.linalg.eigvalsh(a)[..., 0], atol=1e-11)




def test_min_eig_batch_repeated_eigenvalue():
    # diag(3, 1, 1): a trigonometric closed form read 0.9999999918888355
    assert min_eig_batch(np.diag([3.0, 1.0, 1.0])) == pytest.approx(
        1.0, abs=4 * np.spacing(1.0))


def _unscreened(entries):
    # min_eig_batch per row, NaN for a row with a non-finite entry
    mats = np.moveaxis(entries, -1, 0)
    finite = np.isfinite(mats).all(axis=(1, 2))
    out = np.full(mats.shape[0], np.nan)
    out[finite] = min_eig_batch(mats[finite])
    return out


@pytest.mark.parametrize("n", range(1, 9))
def test_screened_min_eig_keeps_every_row_that_can_win(rng, n):
    # Returned rows carry their unscreened values bitwise; every row left
    # out lies strictly above worst; non-finite rows are kept as NaN.
    a = rng.standard_normal((64, n, n))
    a = a + np.swapaxes(a, -1, -2)
    a[5, 0, 0] = np.inf
    a[9, n - 1, 0] = a[9, 0, n - 1] = np.nan
    entries = _stack(a)
    want = _unscreened(entries)
    finite = want[np.isfinite(want)]
    for worst in (np.inf, finite.min(), np.median(finite), finite.max()):
        rows, lam = screened_min_eig(entries, float(worst), 1e-9)
        np.testing.assert_array_equal(lam, want[rows])
        assert {5, 9} <= set(rows.tolist())
        dropped = np.setdiff1d(np.arange(64), rows)
        assert np.all(want[dropped] > worst)
        if worst == np.inf:
            assert rows.tolist() == list(range(64))


@pytest.mark.parametrize("n", range(2, 9))
def test_cholesky_clears_never_clears_an_infinite_entry(n):
    # Cholesky runs to completion through an inf pivot, whose column it
    # divides down to 0; an infinite pivot must not clear.  An infinite
    # off-diagonal entry (either sign) turns a later pivot into -inf.
    base = np.diag(np.arange(n + 2.0, 2.0, -1.0))
    mats = [base.copy() for _ in range(6)]
    for k, (i, j, v) in enumerate([(0, 0, np.inf), (n - 1, n - 1, np.inf),
                                   (n - 1, 0, np.inf), (n - 1, 0, -np.inf),
                                   (0, 0, -np.inf)]):
        mats[k][i, j] = mats[k][j, i] = v
    ok = cholesky_clears(_stack(mats), 1.0)
    assert ok.tolist() == [False] * 5 + [True]

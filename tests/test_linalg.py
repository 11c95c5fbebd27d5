import math
import pickle

import numpy as np
import pytest

from kantorovich import linalg
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


@pytest.mark.parametrize("scale", [1e-308, 4e-310])
def test_validate_rejects_an_inverse_that_overflows(scale):
    # 1 / (1e-308) is finite but the symmetrized sum is not; at 4e-310
    # 1/w itself overflows.  Rejected, with no RuntimeWarning (an error
    # under this suite's filter), instead of an inverse of inf or NaN.
    with pytest.raises(MatrixValidationError, match="lambda_min"):
        validate_spd(np.diag([scale, 6.0 * scale]))


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_validate_rejects_exactly_where_the_inverse_overflows(rng, n):
    # validate_spd builds the inverse only where sum 1/w_k exceeds
    # float_max/4 (docs/proofs.md#inverse-overflow).  Across the edge of
    # the subnormal range, an accepted matrix has a finite inverse and a
    # rejected one has an entry that overflows when built.
    seen = set()
    for k in range(120):
        w = np.ldexp(rng.uniform(1.0, 4.0, n), -1030 + k // 4)
        u = random_rotation(rng, n)
        with np.errstate(under="ignore"):
            a = (u * w) @ u.T
        a = 0.5 * (a + a.T)
        try:
            spd = validate_spd(a)
        except NotPositiveDefiniteError:
            continue
        except MatrixValidationError as exc:
            assert "the inverse overflows" in str(exc)
            spec = eig_sym(a)
            r = spec.rotation
            with np.errstate(over="ignore", invalid="ignore"):
                inv = r.T @ ((1.0 / spec.eigenvalues)[:, None] * r)
                inv = 0.5 * (inv + inv.T)
            assert not np.isfinite(inv).all()
            seen.add("rejected")
        else:
            assert np.isfinite(spd.inverse).all()
            r = [1.0 / v for v in spd.eigenvalues.tolist()]
            bound = sum(r) <= np.finfo(float).max / 4
            seen.add("accepted" if bound else "accepted-built")
    assert seen >= {"rejected", "accepted", "accepted-built"}


def test_validate_keeps_a_finite_subnormal_scale_inverse():
    spd = validate_spd(np.diag([2e-308, 1.2e-307]))
    assert np.isfinite(spd.inverse).all()
    assert spd.inverse[0, 0] == 1.0 / spd.eigenvalues[0]
    assert spd.kappa == pytest.approx(6.0)


def test_validate_near_the_top_of_the_float_range():
    # M + M' overflows where (M + M')/2 does not: accepted, with no
    # RuntimeWarning.  A lambda_max beyond the float range is rejected by
    # name, and an asymmetry that overflows is still an asymmetry.
    spd = validate_spd(np.diag([1.7e308, 1e308]))
    assert spd.eigenvalues.tolist() == [1e308, 1.7e308]
    with pytest.raises(MatrixValidationError, match="lambda_max"):
        validate_spd([[1e308, 9e307], [9e307, 1e308]])
    with pytest.raises(NotSymmetricError):
        symmetrize([[1e308, -1e308], [1e308, 1e308]])


def test_symmetrize_rejects_bad_shapes():
    with pytest.raises(NotSquareError):
        symmetrize(np.ones((2, 3)))
    with pytest.raises(NotSquareError):
        symmetrize(np.ones(4))
    with pytest.raises(NonFiniteError):
        symmetrize([[1.0, np.nan], [np.nan, 1.0]])
    with pytest.raises(NotSymmetricError):
        symmetrize([[1.0, 2.0], [2.1, 1.0]])


def _float_error(v):
    """The (type name, message) ``float(v)`` raises on this Python."""
    try:
        float(v)
    except (TypeError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    raise AssertionError(f"float({v!r}) converts")


def _shape_error(shape):
    return "NotSquareError", f"expected a square matrix, got {shape}"


RAGGED = _shape_error("ragged rows")

# (input, what _as_square returns or raises): lists, tuples and ndarrays of
# each malformed shape, and entries that float() rejects or that are
# sequences themselves.  The shape is checked before any entry is converted.
SQUARE_CORPUS = {
    "float": (5.0, _shape_error("shape ()")),
    "0-d-ndarray": (np.array(5.0), _shape_error("shape ()")),
    "str": ("ab", _shape_error("shape ()")),
    "numeric-str": ("12", _shape_error("shape ()")),
    "1-d-list": ([1.0, 2.0], _shape_error("shape (2,)")),
    "1-d-tuple": ((1.0, 2.0), _shape_error("shape (2,)")),
    "1-d-ndarray": (np.ones(4), _shape_error("shape (4,)")),
    "3-d-list": ([[[1.0]]], _shape_error("shape (1, 1, 1)")),
    "3-d-tuple": ((((1.0, 2.0), (3.0, 4.0)), ((1.0, 2.0), (3.0, 4.0))),
                  _shape_error("shape (2, 2, 2)")),
    "3-d-ndarray": (np.ones((2, 2, 2)), _shape_error("shape (2, 2, 2)")),
    "ragged-list": ([[1.0, 2.0], [3.0]], RAGGED),
    "ragged-tuple": (((1.0,), (2.0, 3.0)), RAGGED),
    "ragged-ndarray": (np.array([[1.0, 2.0], [3.0]], dtype=object),
                       _shape_error("shape (2,)")),
    "empty-list": ([], _shape_error("shape (0,)")),
    "empty-tuple": ((), _shape_error("shape (0,)")),
    "empty-row": ([[]], _shape_error("shape (1, 0)")),
    "empty-rows": ([[], []], _shape_error("shape (2, 0)")),
    "empty-ndarray": (np.zeros((0, 0)), (
        "MatrixValidationError", "dim 0 outside supported range 1..8")),
    "9x9-list": (np.eye(9).tolist(), (
        "MatrixValidationError", "dim 9 outside supported range 1..8")),
    "9x9-ndarray": (np.eye(9), (
        "MatrixValidationError", "dim 9 outside supported range 1..8")),
    "numeric-strings": ([["1", "2"], ["2", "1"]], [[1.0, 2.0], [2.0, 1.0]]),
    "numeric-string-rows": (["12", "21"], _shape_error("shape (2,)")),
    "strings": ([["a", "b"], ["c", "d"]], _float_error("a")),
    "string-entry": ([[1.0, "ab"], ["ab", 1.0]], _float_error("ab")),
    "none-entry": ([[1.0, None], [None, 1.0]], _float_error(None)),
    "sequence-entry": ([[1.0, [2.0]], [3.0, 4.0]], RAGGED),
    "tuple-entries": ([[(1.0,), (2.0,)], [(3.0,), (4.0,)]],
                      _shape_error("shape (2, 2, 1)")),
    "ndarray-rows": ([np.array([1.0, 0.0]), np.array([0.0, 1.0])],
                     _shape_error("shape (2,)")),
    "dict-rows": ([{"a": 1.0, "b": 2.0}, {"c": 3.0, "d": 4.0}],
                  _shape_error("shape (2,)")),
    "overflow-then-sequence": ([[10 ** 400, [1.0]], [1.0, 2.0]], RAGGED),
    "overflow": ([[10 ** 400, 0], [0, 1]],
                 ("OverflowError", "int too large to convert to float")),
    "nan-list": ([[math.nan, 0.0], [0.0, 1.0]],
                 ("NonFiniteError", "matrix has non-finite entries")),
    "nan-ndarray": (np.array([[1.0, 0.0], [0.0, math.nan]]),
                    ("NonFiniteError", "matrix has non-finite entries")),
    "inf-tuple": (((1.0, 0.0), (0.0, -math.inf)),
                  ("NonFiniteError", "matrix has non-finite entries")),
    "mixed-rows": (([1, 0], (0, 2)), [[1.0, 0.0], [0.0, 2.0]]),
    "dim-1": ([[3]], [[3.0]]),
    "bools": ([[True, False], [False, True]], [[1.0, 0.0], [0.0, 1.0]]),
}


@pytest.mark.parametrize("name", SQUARE_CORPUS)
def test_as_square_errors_are_pinned(name):
    raw, want = SQUARE_CORPUS[name]
    try:
        got = linalg._as_square(raw)
    except Exception as exc:
        got = type(exc).__name__, str(exc)
    assert got == want
    if isinstance(got, list):
        assert all(type(v) is float for row in got for v in row)


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


def test_jacobi_convergence_error(monkeypatch):
    monkeypatch.setattr("kantorovich.linalg.JACOBI_MAX_SWEEPS", 0)
    with pytest.raises(JacobiConvergenceError):
        eig_sym(np.diag([1.0, 2.0]) + np.ones((2, 2)))


def _eager_jacobi(rows):
    """The Jacobi iteration with V rotated alongside the matrix, rotation
    by rotation: eigenvalues and U as Python floats."""
    a = linalg._symmetric(rows)
    n = len(a)
    e = math.frexp(max(abs(v) for row in a for v in row))[1]
    work = [[math.ldexp(v, -e) for v in row] for row in a]
    norm = math.sqrt(math.fsum([v * v for row in work for v in row]))
    vt = [[float(i == j) for j in range(n)] for i in range(n)]

    def offnorm():
        return math.sqrt(math.fsum([v * v for i, row in enumerate(work)
                                    for j, v in enumerate(row) if i != j]))

    while norm and offnorm() > linalg.JACOBI_TOL * norm:
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = work[p][q]
                if apq == 0.0:
                    continue
                tau = (work[q][q] - work[p][p]) / (2.0 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                for k in range(n):
                    if k != p and k != q:
                        x, y = work[p][k], work[q][k]
                        work[p][k] = work[k][p] = c * x - s * y
                        work[q][k] = work[k][q] = s * x + c * y
                work[p][p] -= t * apq
                work[q][q] += t * apq
                work[p][q] = work[q][p] = 0.0
                vp, vq = vt[p], vt[q]
                vt[p] = [c * x - s * y for x, y in zip(vp, vq)]
                vt[q] = [s * x + c * y for x, y in zip(vp, vq)]
    w = [linalg._ldexp(work[k][k], e) for k in range(n)]
    order = sorted(range(n), key=w.__getitem__)
    return [w[k] for k in order], [vt[k] for k in order]


@pytest.mark.parametrize("exponent", [-1000, 0, 1000])
@pytest.mark.parametrize("n", range(1, 9))
def test_replayed_rotation_is_the_eager_rotation(n, exponent):
    rng = np.random.default_rng(1000 * n + exponent)
    for definite in (True, False):
        for _ in range(4):
            b = rng.standard_normal((n, n))
            a = b @ b.T + n * np.eye(n) if definite else b + b.T
            rows = [[math.ldexp(v, exponent) for v in row]
                    for row in a.tolist()]
            w, u = _eager_jacobi(rows)
            spec = eig_sym(rows)
            assert "_u" not in spec.__dict__
            # the log is plain data: a pickled spectrum replays it too
            copy = pickle.loads(pickle.dumps(spec))
            for s in (spec, copy):
                assert s.eigenvalues.tobytes() == np.array(w).tobytes()
                assert s.rotation.tobytes() == np.array(u).tobytes()


def test_rotation_check_runs_at_first_read(monkeypatch):
    jacobi = linalg._jacobi

    def scrambled(a):
        # repeat row 0 of U: the replayed rows are not orthonormal
        spec = jacobi(a)
        spec._order = [spec._order[0]] * len(spec._order)
        return spec

    monkeypatch.setattr(linalg, "_jacobi", scrambled)
    spd = validate_spd([[4.0, 1.0], [1.0, 3.0]])
    assert spd.kappa > 1.0
    for _ in range(2):
        with pytest.raises(MatrixValidationError, match="not orthonormal"):
            spd.spectral.rotation
    assert "_u" not in spd.spectral.__dict__


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
    # Kept rows carry their unscreened values bitwise; every +inf row lies
    # strictly above worst; non-finite rows are kept as NaN.
    a = rng.standard_normal((64, n, n))
    a = a + np.swapaxes(a, -1, -2)
    a[5, 0, 0] = np.inf
    a[9, n - 1, 0] = a[9, 0, n - 1] = np.nan
    entries = _stack(a)
    want = _unscreened(entries)
    finite = want[np.isfinite(want)]
    for worst in (np.inf, finite.min(), np.median(finite), finite.max()):
        lam = screened_min_eig(entries, float(worst), 1e-9)
        assert lam.shape == (64,)
        kept = lam != np.inf
        np.testing.assert_array_equal(lam[kept], want[kept])
        assert np.isnan(lam[[5, 9]]).all()
        assert np.all(want[~kept] > worst)
        if worst == np.inf:
            assert kept.all()
    assert (screened_min_eig(entries, np.nan, 1e-9) == np.inf).all()


@pytest.mark.parametrize("n", [1, 3, 8])
def test_screened_min_eig_screens_each_row_against_its_own_worst(rng, n):
    # One worst per row: each row reads what screening it alone against its
    # own worst reads, bit for bit, but a NaN worst keeps its row (a single
    # NaN worst clears every row); an infinite worst keeps its row.
    a = rng.standard_normal((64, n, n))
    a = a + np.swapaxes(a, -1, -2)
    a[5, 0, 0] = np.inf
    entries = _stack(a)
    want = _unscreened(entries)
    worst = want + rng.choice([-1e-3, 1e-3], 64) * np.abs(want)
    worst[[5, 7, 8, 9]] = (0.0, np.nan, np.inf, want[9])
    lam = screened_min_eig(entries, worst, 1e-9)
    for i in range(64):
        one = screened_min_eig(entries[:, :, i:i + 1], float(worst[i]), 1e-9)
        assert lam[i].tobytes() == one[0].tobytes() or i == 7
    assert lam[7] == want[7] and lam[8] == want[8] and lam[9] == want[9]
    assert np.isnan(lam[5])
    cleared = lam == np.inf
    assert cleared.any() and np.all(want[cleared] > worst[cleared])


def test_validate_spd_symmetrizes_once(monkeypatch):
    # _symmetric is symmetrize's work on Python floats, which
    # validate_spd calls without building symmetrize's ndarray.
    calls = []
    symmetrize_once = linalg._symmetric

    def counting(m):
        calls.append(m)
        return symmetrize_once(m)

    monkeypatch.setattr(linalg, "_symmetric", counting)
    spd = validate_spd([[2.0, 1.0], [1.0, 3.0]])
    assert len(calls) == 1
    spec = eig_sym(spd.matrix)
    assert spd.eigenvalues.tobytes() == spec.eigenvalues.tobytes()


def _count_cholesky(monkeypatch):
    shifts = []

    def counting(entries, shift):
        shifts.append(shift)
        return cholesky_clears(entries, shift)

    monkeypatch.setattr(linalg, "cholesky_clears", counting)
    return shifts


@pytest.mark.parametrize("n", range(1, 9))
def test_screened_min_eig_screens_only_against_a_finite_shift(monkeypatch,
                                                              rng, n):
    # worst = +inf, a finite worst with margin = inf, a NaN margin: every
    # pivot would be +-inf or NaN, so no row can clear and no Cholesky test
    # runs; the values are min_eig_batch's bitwise, NaN on a non-finite row.
    a = rng.standard_normal((32, n, n))
    a = a + np.swapaxes(a, -1, -2)
    a[5, 0, 0] = np.inf
    a[9, n - 1, 0] = a[9, 0, n - 1] = np.nan
    entries = _stack(a)
    want = _unscreened(entries)
    finite = want[np.isfinite(want)]
    mid = float(np.median(finite))
    shifts = _count_cholesky(monkeypatch)
    for worst, margin in ((np.inf, 1e-9), (mid, np.inf), (mid, np.nan),
                          (-np.inf, 1e-9)):
        lam = screened_min_eig(entries, worst, margin)
        assert lam.tobytes() == want.tobytes()
        assert np.isnan(lam[[5, 9]]).all()
    assert shifts == []
    # A finite shift still runs exactly one test.  Above every row nothing
    # clears and the values are the unscreened ones; at the median the
    # kept rows are.
    assert screened_min_eig(entries, float(finite.max()) + 1.0,
                            1e-9).tobytes() == want.tobytes()
    assert len(shifts) == 1
    lam = screened_min_eig(entries, mid, 1e-9)
    assert len(shifts) == 2
    kept = lam != np.inf
    assert lam[kept].tobytes() == want[kept].tobytes()
    assert not kept.all() and np.all(want[~kept] > mid)


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

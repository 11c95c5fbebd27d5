"""Small dense symmetric linear algebra: validation, eigenvalues, determinants.

Everything here targets tiny matrices (dim <= 8).  The eigensolver is a cyclic
Jacobi iteration, which at these sizes is simple, accurate and has no moving
parts; its rotations run on rows of Python floats, bit for bit as on numpy
rows, and only its once-per-sweep off-diagonal norm uses numpy (see
:func:`eig_sym`).  The scans take LAPACK's batched smallest eigenvalues
instead, behind one exact Cholesky screen (:func:`screened_min_eig`), and
keep their first strict minimum with one tracker (:class:`FirstMin`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Relative symmetry slack accepted by symmetrize()/validate_spd().
SYM_TOL = 1e-12
# validate_spd() rejects the matrix when lambda_min <= PD_TOL * lambda_max.
PD_TOL = 1e-12
# Relative PSD slack: m is accepted as PSD when lambda_min >= -PSD_EPS * scale.
PSD_EPS = 1e-9
# Jacobi convergence: off-diagonal Frobenius norm <= JACOBI_TOL * ||A||_F.
JACOBI_TOL = 1e-13
JACOBI_MAX_SWEEPS = 64

MAX_DIM = 8


class MatrixValidationError(ValueError):
    """Base class for rejected matrix inputs."""


class NotSquareError(MatrixValidationError):
    pass


class NonFiniteError(MatrixValidationError):
    pass


class NotSymmetricError(MatrixValidationError):
    pass


class NotPositiveDefiniteError(MatrixValidationError):
    pass


class DimensionMismatchError(ValueError):
    pass


class ZeroVectorError(ValueError):
    pass


class JacobiConvergenceError(RuntimeError):
    """Jacobi sweeps exhausted before the off-diagonal norm converged."""


def _as_square(raw) -> np.ndarray:
    m = np.asarray(raw, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSquareError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 1 or m.shape[0] > MAX_DIM:
        raise MatrixValidationError(
            f"dim {m.shape[0]} outside supported range 1..{MAX_DIM}")
    if not np.isfinite(m).all():
        raise NonFiniteError("matrix has non-finite entries")
    return m


def symmetrize(raw) -> np.ndarray:
    """Return (M + M')/2 after checking M is square, finite and near-symmetric.

    Asymmetry above ``SYM_TOL * max|entry|`` is an error, not something to
    silently average away; an asymmetry beyond the float range is one too.
    """
    m = _as_square(raw)
    scale = np.abs(m).max()
    with np.errstate(over="ignore"):
        skew = np.abs(m - m.T).max()
        out = 0.5 * (m + m.T)
    if skew > SYM_TOL * max(scale, 1e-300):
        raise NotSymmetricError(
            f"asymmetry {skew:.3e} exceeds {SYM_TOL:.1e} * {scale:.3e}")
    big = np.isinf(out)
    if big.any():
        # Halved before the sum only where the sum overflows: halving
        # first rounds subnormal entries.
        out[big] = 0.5 * m[big] + 0.5 * m.T[big]
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class SpectralData:
    """Eigendecomposition A = U' diag(eigenvalues) U with U row-orthonormal.

    ``eigenvalues`` are ascending; ``rotation`` is U, so ``y = U @ x`` maps a
    point into eigencoordinates.
    """

    eigenvalues: np.ndarray
    rotation: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.eigenvalues, dtype=float)
        u = np.asarray(self.rotation, dtype=float)
        n = w.shape[0]
        if u.shape != (n, n):
            raise DimensionMismatchError(
                f"rotation shape {u.shape} does not match {n} eigenvalues")
        if np.any(np.diff(w) < 0):
            raise MatrixValidationError("eigenvalues must be ascending")
        if np.abs(u @ u.T - np.eye(n)).max() > 1e-10:
            raise MatrixValidationError("rotation is not orthonormal")
        w.setflags(write=False)
        u.setflags(write=False)
        object.__setattr__(self, "eigenvalues", w)
        object.__setattr__(self, "rotation", u)

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]


def eig_sym(m) -> SpectralData:
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps rotate every (p, q) pair in row-cyclic order until the off-diagonal
    Frobenius norm drops below ``JACOBI_TOL * ||A||_F``.  The sweeps run on
    A * 2^-e, e the binary exponent of max|A|, so the squared norms neither
    overflow nor underflow; scaling by a power of two is exact, so every
    rotation rounds as it would on A itself
    (docs/proofs.md#power-of-two-scaling), and the eigenvalues are scaled
    back by 2^e: one beyond the float range reads inf.

    The rotations run on rows of Python floats, not on numpy rows: at
    n <= 8 a numpy call costs more than the arithmetic it does.  Each entry
    is still one ``c*x - s*y`` or ``s*x + c*y`` in IEEE double, two rounded
    products and a rounded sum with no fused multiply-add, as numpy computes
    it elementwise, so the eigenvalues and rotation are those of the same
    iteration on numpy rows, bit for bit.  The matrix stays exactly
    symmetric (a rotated row and the rotated column are the same
    expressions), so each new entry is computed once and stored in both.
    The off-diagonal norm, whose summation order decides only when the
    iteration stops, is computed in numpy once per sweep.
    """
    return _jacobi(symmetrize(m))


def _jacobi(a: np.ndarray) -> SpectralData:
    """:func:`eig_sym` of ``a``, the output of :func:`symmetrize`."""
    n = a.shape[0]
    e = math.frexp(float(np.abs(a).max()))[1]
    scaled = np.ldexp(a, -e)
    norm = float(np.sqrt((scaled * scaled).sum()))
    if norm == 0.0:
        return SpectralData(np.zeros(n), np.eye(n))
    work = scaled.tolist()
    # vt[k] is column k of V, the product of the rotations
    vt = np.eye(n).tolist()

    def offnorm():
        w = np.array(work)
        off = w - np.diag(np.diag(w))
        return float(np.sqrt((off * off).sum()))

    for _ in range(JACOBI_MAX_SWEEPS):
        if offnorm() <= JACOBI_TOL * norm:
            break
        for p in range(n - 1):
            row_p = work[p]
            for q in range(p + 1, n):
                row_q = work[q]
                apq = row_p[q]
                if apq == 0.0:
                    continue
                tau = (row_q[q] - row_p[p]) / (2.0 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                for k in range(n):
                    if k != p and k != q:
                        x, y = row_p[k], row_q[k]
                        row_p[k] = work[k][p] = c * x - s * y
                        row_q[k] = work[k][q] = s * x + c * y
                row_p[p] -= t * apq
                row_q[q] += t * apq
                row_p[q] = row_q[p] = 0.0
                vp, vq = vt[p], vt[q]
                vt[p] = [c * x - s * y for x, y in zip(vp, vq)]
                vt[q] = [s * x + c * y for x, y in zip(vp, vq)]
    else:
        if offnorm() > JACOBI_TOL * norm:
            raise JacobiConvergenceError(
                f"no convergence after {JACOBI_MAX_SWEEPS} sweeps "
                f"(off-norm {math.ldexp(offnorm(), e):.3e}, "
                f"target {math.ldexp(JACOBI_TOL * norm, e):.3e})")

    with np.errstate(over="ignore"):
        w = np.ldexp([work[k][k] for k in range(n)], e)
    order = np.argsort(w, kind="stable")
    return SpectralData(w[order], np.array([vt[k] for k in order]))


def min_eigenvalue(m) -> float:
    """Smallest eigenvalue via the Jacobi decomposition."""
    return float(eig_sym(m).eigenvalues[0])


def det(m) -> float:
    """Determinant of a validated square matrix (LAPACK LU)."""
    return float(np.linalg.det(_as_square(m)))


@dataclass(frozen=True)
class SpdMatrix:
    """A validated symmetric positive definite matrix with its decomposition.

    ``inverse`` is assembled spectrally (U' diag(1/w) U), never by a linear
    solve, so matrix and inverse share one eigenbasis exactly.
    """

    matrix: np.ndarray
    inverse: np.ndarray
    spectral: SpectralData
    kappa: float

    @property
    def dim(self) -> int:
        return self.spectral.dim

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.spectral.eigenvalues


def validate_spd(raw) -> SpdMatrix:
    """Validate raw input as SPD and bundle matrix, inverse and spectrum.

    ``raw`` is a square matrix, dim 1..8; asymmetry above ``SYM_TOL``
    relative is rejected (:func:`symmetrize`), and so is a lambda_max
    beyond the float range, lambda_min <= ``PD_TOL`` * lambda_max, and a
    matrix whose inverse has an entry that is not finite (lambda_min near
    the subnormal range).
    """
    a = symmetrize(raw)
    spec = _jacobi(a)
    w = spec.eigenvalues
    if w[-1] == math.inf:
        raise MatrixValidationError(
            f"lambda_max is beyond the float range (above "
            f"{np.finfo(float).max:.6e})")
    if w[0] <= PD_TOL * w[-1]:
        raise NotPositiveDefiniteError(
            f"lambda_min {w[0]:.6e} <= {PD_TOL:.1e} * lambda_max {w[-1]:.6e}")
    # Near the subnormal range the inverse overflows; rejected, not warned.
    with np.errstate(over="ignore", invalid="ignore"):
        inv = spec.rotation.T @ ((1.0 / w)[:, None] * spec.rotation)
        inv = 0.5 * (inv + inv.T)
    if not np.isfinite(inv).all():
        raise MatrixValidationError(
            f"lambda_min {w[0]:.6e} is too small: the inverse overflows")
    inv.setflags(write=False)
    return SpdMatrix(matrix=a, inverse=inv, spectral=spec,
                     kappa=float(w[-1] / w[0]))


# ---------------------------------------------------------------------------
# Batched minimum eigenvalues for the scans, all from LAPACK's eigvalsh;
# min_eigenvalue() above is the Jacobi reference they are tested against.
# ---------------------------------------------------------------------------

def cholesky_clears(entries: np.ndarray, shift: float) -> np.ndarray:
    """Which matrices of an (n, n, m) stack have h - shift*I Cholesky-PD.

    Runs an unblocked right-looking Cholesky on all m matrices at once and
    returns a boolean (m,) mask that is True where every pivot is finite and
    > 0, i.e. where Cholesky runs to completion.  A NaN or infinite entry in
    the lower triangle (the only one read) makes some pivot NaN or infinite,
    so it never clears its matrix.  ``entries`` is not modified: the
    factorization runs in a fresh copy.
    """
    a = np.array(entries, dtype=float)
    n = a.shape[0]
    ok = np.ones(a.shape[2:], dtype=bool)
    # Only the lower triangle is read and updated.  A failed matrix keeps
    # running on a bad pivot; its NaNs stay in its own column of the stack.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        a[np.diag_indices(n)] -= shift
        for k in range(n):
            piv = a[k, k]
            ok &= (0.0 < piv) & (piv < math.inf)
            col = a[k + 1:, k]
            col /= np.sqrt(piv)
            for j in range(k + 1, n):
                a[j:, j] -= col[j - k - 1:] * col[j - k - 1]
    return ok


def min_eig_batch(mats: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each symmetric matrix in a (..., n, n) stack."""
    return np.linalg.eigvalsh(np.asarray(mats, dtype=float))[..., 0]


def screened_min_eig(entries: np.ndarray, worst,
                     margin: float) -> np.ndarray:
    """Smallest eigenvalues of the rows of an (n, n, m) stack, as one (m,)
    array that reads +inf on each row that cannot beat ``worst``, one value
    or one per row.

    The rows :func:`cholesky_clears` passes at ``worst + margin`` are
    cleared; every row is when ``worst`` is one NaN.  The test runs only
    when a shift is finite: an infinite or NaN shift makes every pivot
    +-inf or NaN, so it clears nothing (a scan's probe head, against +inf,
    goes straight to eigvalsh; a row against its own NaN is kept).  A kept
    row with a non-finite entry (such a row never clears) reads NaN, since
    eigvalsh raises on it; any other kept row reads its min_eig_batch value.

    Clearing is exact when ``margin`` is 1e-9 * S, S bounding every |entry|
    (so |worst| <= n S), at n <= 8: a cleared row evaluates strictly above
    its ``worst``, so it cannot be a first strict minimum
    (docs/proofs.md#cholesky-screen).
    """
    lam = np.full(entries.shape[2], math.inf)
    shift = worst + margin
    if np.ndim(worst) == 0 and math.isnan(worst):
        return lam  # no row beats a NaN minimum (see FirstMin)
    rows, kept = np.arange(lam.size), entries
    if np.ndim(shift) or math.isfinite(shift):
        clears = cholesky_clears(entries, shift)
        if clears.any():
            rows = rows[~clears]
            kept = entries[:, :, rows]
    finite = np.isfinite(kept).all(axis=(0, 1))
    if not finite.all():
        lam[rows[~finite]] = np.nan
        rows, kept = rows[finite], kept[:, :, finite]
    if rows.size:
        lam[rows] = min_eig_batch(np.moveaxis(kept, -1, 0))
    return lam


class FirstMin:
    """First strict minimum of values fed in consecutive blocks of one flat
    sequence: the value and index a single argmin over all of them gives.
    The first NaN, if there is one, is the minimum (as for argmin); the
    first block always sets an index."""

    def __init__(self):
        self.value = math.inf
        self.index = -1

    def update(self, start: int, values: np.ndarray) -> None:
        """``values``: the entries from flat index ``start`` on, in C order
        over their own (full, not broadcast) shape."""
        if math.isnan(self.value):
            return
        flat = values.reshape(-1)
        k = int(np.argmin(flat))
        # not >=: a NaN is taken
        if self.index < 0 or not float(flat[k]) >= self.value:
            self.value = float(flat[k])
            self.index = start + k

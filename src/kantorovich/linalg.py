"""Small dense symmetric linear algebra: validation, eigenvalues, determinants.

Everything here targets tiny matrices (dim <= 8).  The eigensolver is a cyclic
Jacobi iteration, which at these sizes is simple, accurate and has no moving
parts.  The scans take LAPACK's batched smallest eigenvalues instead, behind
one exact Cholesky screen (:func:`screened_min_eig`).
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


def symmetrize(raw, tol_sym: float = SYM_TOL) -> np.ndarray:
    """Return (M + M')/2 after checking M is square, finite and near-symmetric.

    Asymmetry above ``tol_sym * max|entry|`` is an error, not something to
    silently average away.
    """
    m = _as_square(raw)
    scale = np.abs(m).max()
    skew = np.abs(m - m.T).max()
    if skew > tol_sym * max(scale, 1e-300):
        raise NotSymmetricError(
            f"asymmetry {skew:.3e} exceeds {tol_sym:.1e} * {scale:.3e}")
    out = 0.5 * (m + m.T)
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


def eig_sym(m, tol: float = JACOBI_TOL,
            max_sweeps: int = JACOBI_MAX_SWEEPS) -> SpectralData:
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps rotate every (p, q) pair in row-cyclic order until the off-diagonal
    Frobenius norm drops below ``tol * ||A||_F``.
    """
    a = symmetrize(m)
    n = a.shape[0]
    work = np.array(a)
    v = np.eye(n)
    norm = float(np.sqrt((work * work).sum()))
    if norm == 0.0:
        return SpectralData(np.zeros(n), np.eye(n))

    def offnorm(w):
        off = w - np.diag(np.diag(w))
        return float(np.sqrt((off * off).sum()))

    for _ in range(max_sweeps):
        if offnorm(work) <= tol * norm:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = work[p, q]
                if apq == 0.0:
                    continue
                tau = (work[q, q] - work[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                app, aqq = work[p, p], work[q, q]
                col_p = work[:, p].copy()
                col_q = work[:, q].copy()
                work[:, p] = c * col_p - s * col_q
                work[:, q] = s * col_p + c * col_q
                row_p = work[p, :].copy()
                row_q = work[q, :].copy()
                work[p, :] = c * row_p - s * row_q
                work[q, :] = s * row_p + c * row_q
                work[p, p] = app - t * apq
                work[q, q] = aqq + t * apq
                work[p, q] = 0.0
                work[q, p] = 0.0
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    else:
        if offnorm(work) > tol * norm:
            raise JacobiConvergenceError(
                f"no convergence after {max_sweeps} sweeps "
                f"(off-norm {offnorm(work):.3e}, target {tol * norm:.3e})")

    w = np.diag(work).copy()
    order = np.argsort(w, kind="stable")
    return SpectralData(w[order], v[:, order].T)


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


def validate_spd(raw, tol_sym: float = SYM_TOL,
                 tol_pd: float = PD_TOL) -> SpdMatrix:
    """Validate raw input as SPD and bundle matrix, inverse and spectrum.

    Parameters
    ----------
    raw : array_like
        Square matrix, dim 1..8.
    tol_sym : float
        Relative asymmetry accepted before symmetrizing.
    tol_pd : float
        Rejects when lambda_min <= tol_pd * lambda_max.
    """
    a = symmetrize(raw, tol_sym)
    spec = eig_sym(a)
    w = spec.eigenvalues
    if w[0] <= tol_pd * w[-1]:
        raise NotPositiveDefiniteError(
            f"lambda_min {w[0]:.6e} <= {tol_pd:.1e} * lambda_max {w[-1]:.6e}")
    inv = spec.rotation.T @ ((1.0 / w)[:, None] * spec.rotation)
    inv = 0.5 * (inv + inv.T)
    inv.setflags(write=False)
    return SpdMatrix(matrix=a, inverse=inv, spectral=spec,
                     kappa=float(w[-1] / w[0]))


# ---------------------------------------------------------------------------
# Batched minimum eigenvalues for the scans, all from LAPACK's eigvalsh;
# min_eigenvalue() above stays the certification route.
# ---------------------------------------------------------------------------

def cholesky_clears(entries: np.ndarray, shift: float) -> np.ndarray:
    """Which matrices of an (n, n, m) stack have h - shift*I Cholesky-PD.

    Runs an unblocked right-looking Cholesky on all m matrices at once and
    returns a boolean (m,) mask that is True where every pivot is finite and
    > 0, i.e. where Cholesky runs to completion.  A NaN or infinite entry in
    the lower triangle (the only one read) makes some pivot NaN or infinite,
    so it never clears its matrix.  ``entries`` is not modified.
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


def screened_min_eig(entries: np.ndarray, worst: float,
                     margin: float) -> tuple[np.ndarray, np.ndarray]:
    """Rows of an (n, n, m) stack that can beat ``worst``, and their smallest
    eigenvalues: (rows, lam), lam[k] belonging to row rows[k].

    The rows :func:`cholesky_clears` passes at ``worst + margin`` are left
    out; none is while ``worst`` is not finite.  A kept row with a
    non-finite entry (such a row never clears) reads NaN, since eigvalsh
    raises on it; any other kept row reads its min_eig_batch value.

    Clearing is exact when ``margin`` is 1e-9 * S, S bounding every |entry|
    (so |worst| <= n S).  If Cholesky of h - (worst + margin) I runs to
    completion, L L' = h - (worst + margin) I + E with |E| <= gamma_{n+1}
    |L| |L'| whatever the summation order (Higham, Accuracy and Stability
    of Numerical Algorithms, Thm 10.3), so lambda_min(h) > worst + margin -
    ||E||.  ||E|| and eigvalsh's own error are below n^3 * 1e-16 * S, under
    1e-13 * S at n <= 8: a cleared row evaluates strictly above ``worst``,
    so it cannot be a first strict minimum.
    """
    rows = np.flatnonzero(~cholesky_clears(entries, worst + margin))
    kept = entries[:, :, rows]
    finite = np.isfinite(kept).all(axis=(0, 1))
    lam = np.full(rows.size, np.nan)
    if finite.any():
        lam[finite] = min_eig_batch(np.moveaxis(kept[:, :, finite], -1, 0))
    return rows, lam

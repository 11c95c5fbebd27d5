"""Small dense symmetric linear algebra: validation, eigenvalues, determinants.

Everything here targets tiny matrices (dim <= 8).  Validation and the
eigensolver run on Python floats, so that importing this module and
validating a matrix load no numpy; the arrays of :class:`SpectralData` and
:class:`SpdMatrix` are built on first access.  The eigensolver is a cyclic
Jacobi iteration, which at these sizes is simple, accurate and has no moving
parts (see :func:`eig_sym`).  It rotates only the working matrix and logs
each rotation; the eigenvectors are replayed from that log, and checked
orthonormal, on the first read of ``SpectralData.rotation``, which only a
witness needs.  The scans take LAPACK's batched smallest eigenvalues
instead, behind one exact Cholesky screen (:func:`screened_min_eig`), and
keep their first strict minimum with one tracker (:class:`FirstMin`); these
import numpy when called.
"""

from __future__ import annotations

import math
import sys
from functools import cached_property
from operator import mul
from typing import TYPE_CHECKING

if TYPE_CHECKING:
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

_FLOAT_MAX = sys.float_info.max


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


def _frozen(values) -> np.ndarray:
    """``values``, floats or rows of them, as a new read-only ndarray."""
    import numpy as np
    out = np.array(values, dtype=float)
    out.setflags(write=False)
    return out


def _shape(x) -> tuple[int, ...]:
    """The shape numpy gives nested lists or tuples ``x``."""
    if not isinstance(x, (list, tuple)):
        return ()
    inner = set(map(_shape, x))
    if len(inner) > 1:
        raise NotSquareError("expected a square matrix, got ragged rows")
    return (len(x), *(inner.pop() if inner else ()))


def _as_square(raw) -> list[list[float]]:
    """``raw``, an array or nested sequences of shape (n, n), 1 <= n <=
    ``MAX_DIM``, as n rows of n finite Python floats.  A list or tuple of n
    lists or tuples of n entries is converted directly; any other input,
    or one whose conversion fails, goes through the shape checks, which
    raise the error that names what is wrong."""
    m = None
    if isinstance(raw, (list, tuple)) and 1 <= len(raw) <= MAX_DIM and all(
            isinstance(row, (list, tuple)) and len(row) == len(raw)
            for row in raw):
        try:
            m = [list(map(float, row)) for row in raw]
        except (TypeError, ValueError, OverflowError):
            pass  # an entry may be a sequence, which the shape check names
    if m is None:
        shape = tuple(raw.shape) if hasattr(raw, "shape") else _shape(raw)
        if len(shape) != 2 or shape[0] != shape[1]:
            raise NotSquareError(
                f"expected a square matrix, got shape {shape}")
        if shape[0] < 1 or shape[0] > MAX_DIM:
            raise MatrixValidationError(
                f"dim {shape[0]} outside supported range 1..{MAX_DIM}")
        rows = raw.tolist() if hasattr(raw, "tolist") else raw
        m = [list(map(float, row)) for row in rows]
    if not all(all(map(math.isfinite, row)) for row in m):
        raise NonFiniteError("matrix has non-finite entries")
    return m


def _symmetric(raw) -> list[list[float]]:
    """(M + M')/2 as rows of Python floats: :func:`symmetrize`'s work."""
    m = _as_square(raw)
    pairs = [list(zip(row, col)) for row, col in zip(m, zip(*m))]
    scale = max(abs(v) for row in m for v in row)
    # The difference of two finite floats can overflow to inf, never NaN.
    skew = max(abs(x - y) for row in pairs for x, y in row)
    if skew > SYM_TOL * max(scale, 1e-300):
        raise NotSymmetricError(
            f"asymmetry {skew:.3e} exceeds {SYM_TOL:.1e} * {scale:.3e}")

    def half_sum(x, y):
        # Halved before the sum only where the sum overflows: halving first
        # rounds subnormal entries.
        s = 0.5 * (x + y)
        return 0.5 * x + 0.5 * y if math.isinf(s) else s

    return [[half_sum(x, y) for x, y in row] for row in pairs]


def symmetrize(raw) -> np.ndarray:
    """Return (M + M')/2 after checking M is square, finite and near-symmetric.

    Asymmetry above ``SYM_TOL * max|entry|`` is an error, not something to
    silently average away; an asymmetry beyond the float range is one too.
    The result is a read-only ndarray.
    """
    return _frozen(_symmetric(raw))


def _ldexp(x: float, e: int) -> float:
    """x * 2^e, +-inf where that overflows (math.ldexp raises there)."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


class SpectralData:
    """Eigendecomposition A = U' diag(eigenvalues) U with U row-orthonormal.

    ``eigenvalues`` are ascending; ``rotation`` is U, so ``y = U @ x`` maps a
    point into eigencoordinates.  Both are read-only ndarrays, built on
    first access.  U is row ``order[k]`` of V' at row k, V the product of
    the Jacobi ``rotations``, (p, q, c, s) each, applied in order; it is
    replayed from them, and checked orthonormal, on the first read of
    ``rotation`` (:attr:`_u`).
    """

    def __init__(self, w: list[float], rotations: list[tuple],
                 order: list[int]):
        self._w, self._rotations, self._order = w, rotations, order

    @cached_property
    def _u(self) -> list[list[float]]:
        # vt[k] is column k of V, the product of the rotations
        n = len(self._w)
        vt = [[float(i == j) for j in range(n)] for i in range(n)]
        for p, q, c, s in self._rotations:
            vp, vq = vt[p], vt[q]
            vt[p] = [c * x - s * y for x, y in zip(vp, vq)]
            vt[q] = [s * x + c * y for x, y in zip(vp, vq)]
        u = [vt[k] for k in self._order]
        if any(abs(sum(map(mul, u[i], u[j])) - (i == j)) > 1e-10
               for i in range(n) for j in range(i, n)):
            raise MatrixValidationError("rotation is not orthonormal")
        return u

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        return _frozen(self._w)

    @cached_property
    def rotation(self) -> np.ndarray:
        return _frozen(self._u)

    @property
    def dim(self) -> int:
        return len(self._w)


def eig_sym(m) -> SpectralData:
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps rotate every (p, q) pair in row-cyclic order until the off-diagonal
    Frobenius norm drops below ``JACOBI_TOL * ||A||_F``.  The sweeps run on
    A * 2^-e, e the binary exponent of max|A|, so the squared norms neither
    overflow nor underflow; scaling by a power of two is exact, so every
    rotation rounds as it would on A itself
    (docs/proofs.md#power-of-two-scaling), and the eigenvalues are scaled
    back by 2^e: one beyond the float range reads inf.

    The iteration runs on rows of Python floats: at n <= 8 a numpy call
    costs more than the arithmetic it does.  Each entry is one
    ``c*x - s*y`` or ``s*x + c*y`` in IEEE double, two rounded products and
    a rounded sum.  The matrix stays exactly symmetric (a rotated row and
    the rotated column are the same expressions), so each new entry is
    computed once and stored in both.  The norms are exactly rounded sums
    of the squares (``math.fsum``), so the stop test depends on no
    summation order; the eigenvalues are sorted stably.

    The sweeps rotate only the matrix and log each rotation (p, q, c, s).
    U is built on its first read by replaying the log onto the identity
    with the same expressions in the same order, then permuted into
    ascending order and checked orthonormal (a failure raises
    :class:`MatrixValidationError` at that read), so it has the bits of
    rotating U alongside the matrix.
    """
    return _jacobi(_symmetric(m))


def _jacobi(a: list[list[float]]) -> SpectralData:
    """:func:`eig_sym` of ``a``, the rows :func:`_symmetric` returns."""
    n = len(a)
    e = math.frexp(max(abs(v) for row in a for v in row))[1]
    work = [[math.ldexp(v, -e) for v in row] for row in a]
    norm = math.sqrt(math.fsum([v * v for row in work for v in row]))
    rotations = []
    if norm == 0.0:
        return SpectralData([0.0] * n, rotations, list(range(n)))

    def offnorm():
        return math.sqrt(math.fsum([v * v for i, row in enumerate(work)
                                    for j, v in enumerate(row) if i != j]))

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
                rotations.append((p, q, c, s))
    else:
        if offnorm() > JACOBI_TOL * norm:
            raise JacobiConvergenceError(
                f"no convergence after {JACOBI_MAX_SWEEPS} sweeps "
                f"(off-norm {_ldexp(offnorm(), e):.3e}, "
                f"target {_ldexp(JACOBI_TOL * norm, e):.3e})")

    w = [_ldexp(work[k][k], e) for k in range(n)]
    order = sorted(range(n), key=w.__getitem__)
    return SpectralData([w[k] for k in order], rotations, order)


def min_eigenvalue(m) -> float:
    """Smallest eigenvalue via the Jacobi decomposition."""
    return float(eig_sym(m).eigenvalues[0])


def det(m) -> float:
    """Determinant of a validated square matrix (LAPACK LU)."""
    import numpy as np
    return float(np.linalg.det(np.array(_as_square(m))))


def pair_indices(dim: int) -> list[tuple[int, int]]:
    """Canonical (i, j), i < j pair order used to flatten delta vectors."""
    return [(i, j) for i in range(dim - 1) for j in range(i + 1, dim)]


def ratio_sums(w: list[float]) -> list[float]:
    """l_j/l_i + l_i/l_j over the floats ``w`` in :func:`pair_indices`
    order: one IEEE division and sum per term, as numpy computes them."""
    return [w[j] / w[i] + w[i] / w[j] for i, j in pair_indices(len(w))]


def scan_tolerance(delta_max: float) -> float:
    """The absolute PSD slack of a scan or probe of h(delta, .): PSD_EPS
    times max(3, delta_max/2), the largest |entry| of h at a unit point
    (diagonal entries peak there, off-diagonal ones at delta_max/2)."""
    return PSD_EPS * max(3.0, 0.5 * delta_max)


class SpdMatrix:
    """A validated symmetric positive definite matrix with its decomposition.

    ``inverse`` is assembled spectrally (U' diag(1/w) U), never by a linear
    solve, so matrix and inverse share one eigenbasis exactly.  ``matrix``
    and ``inverse`` are read-only ndarrays, built on first access.
    """

    def __init__(self, rows: list[list[float]], spectral: SpectralData):
        self._rows = rows
        self.spectral = spectral
        self.kappa = spectral._w[-1] / spectral._w[0]

    @property
    def dim(self) -> int:
        return self.spectral.dim

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.spectral.eigenvalues

    @cached_property
    def matrix(self) -> np.ndarray:
        return _frozen(self._rows)

    @cached_property
    def inverse(self) -> np.ndarray:
        import numpy as np
        u, w = self.spectral.rotation, self.spectral.eigenvalues
        # Near the subnormal range an entry overflows: validate_spd rejects
        # that matrix, with no warning.
        with np.errstate(over="ignore", invalid="ignore"):
            inv = u.T @ ((1.0 / w)[:, None] * u)
            inv = 0.5 * (inv + inv.T)
        inv.setflags(write=False)
        return inv

    def ratio_sums(self) -> list[float]:
        """:func:`ratio_sums` of the ascending spectrum."""
        return ratio_sums(self.spectral._w)


def validate_spd(raw) -> SpdMatrix:
    """Validate raw input as SPD and bundle matrix, inverse and spectrum.

    ``raw`` is a square matrix, dim 1..8; asymmetry above ``SYM_TOL``
    relative is rejected (:func:`symmetrize`), and so is a lambda_max
    beyond the float range, lambda_min <= ``PD_TOL`` * lambda_max, and a
    lambda_min so near the subnormal range that the inverse overflows: an
    entry of U' diag(1/w) U or of its symmetrization that is not finite, so
    any entry above about float_max / 2.  The inverse is built here only
    where sum 1/w_k exceeds float_max / 4 (docs/proofs.md#inverse-overflow).
    """
    a = _symmetric(raw)
    spec = _jacobi(a)
    w = spec._w
    if w[-1] == math.inf:
        raise MatrixValidationError(
            f"lambda_max is beyond the float range (above {_FLOAT_MAX:.6e})")
    if w[0] <= PD_TOL * w[-1]:
        raise NotPositiveDefiniteError(
            f"lambda_min {w[0]:.6e} <= {PD_TOL:.1e} * lambda_max {w[-1]:.6e}")
    spd = SpdMatrix(a, spec)
    # At or below the bound no entry of the inverse can overflow.
    if (sum(1.0 / v for v in w) > _FLOAT_MAX / 4
            and not all(map(math.isfinite, spd.inverse.flat))):
        raise MatrixValidationError(
            f"lambda_min {w[0]:.6e} is too small: the inverse overflows")
    return spd


# ---------------------------------------------------------------------------
# Batched minimum eigenvalues for the scans, all from LAPACK's eigvalsh;
# min_eigenvalue() above is the Jacobi reference they are tested against.
# Each imports numpy: only a scan calls them.
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
    import numpy as np
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
    import numpy as np
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
    import numpy as np
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
        k = int(flat.argmin())
        # not >=: a NaN is taken
        if self.index < 0 or not float(flat[k]) >= self.value:
            self.value = float(flat[k])
            self.index = start + k

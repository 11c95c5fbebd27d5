"""Spectral reduction of the Hessian to eigenvalue-ratio data.

For A with eigenvalues l_1 <= ... <= l_n the Hessian of f conjugates to a
matrix that depends on A only through the pairwise ratio sums

    delta_ij = l_j / l_i + l_i / l_j   (>= 2, with delta_1n = kappa + 1/kappa)

and on the rotated point y = U x.  The conjugated form is

    h(delta, y)_ii = 3 y_i^2 + (1/2) sum_{j != i} delta_ij y_j^2
    h(delta, y)_ij = delta_ij y_i y_j                   (i != j)

so convexity of K is exactly "h(delta, y) PSD for every y": a semi-infinite
linear matrix inequality in delta.  The 3-dim analysis additionally normalizes
h by the largest-magnitude coordinate, which yields the three parametric 3x3
forms m/p/q below on the box omega in [2, 4]^3, alpha, beta in [-1, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DimensionMismatchError, SpdMatrix

__all__ = [
    "DeltaVector", "delta_from_spd", "pair_indices",
    "h_form", "h_form_batch",
    "m_entries", "det_m_alpha_coefs", "m_form", "p_form", "q_form",
    "det3_batch",
]

# Delta entries sit in [2, inf) mathematically; allow this much roundoff when
# values arrive from floating-point eigenvalue ratios.
_DELTA_SLACK = 1e-12


def pair_indices(dim: int) -> list[tuple[int, int]]:
    """Canonical (i, j), i < j pair order used to flatten delta vectors."""
    return [(i, j) for i in range(dim - 1) for j in range(i + 1, dim)]


@dataclass(frozen=True)
class DeltaVector:
    """Pairwise eigenvalue-ratio sums of an SPD matrix, flattened over i < j."""

    dim: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        npairs = self.dim * (self.dim - 1) // 2
        if self.dim < 1:
            raise DimensionMismatchError("dim must be >= 1")
        if vals.shape != (npairs,):
            raise DimensionMismatchError(
                f"expected {npairs} pair values for dim {self.dim}, "
                f"got shape {vals.shape}")
        if not np.isfinite(vals).all():
            raise ValueError("delta values must be finite")
        if npairs and vals.min() < 2.0 - _DELTA_SLACK:
            raise ValueError(
                f"delta values must be >= 2, got min {vals.min()!r}")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def as_matrix(self) -> np.ndarray:
        """Symmetric (dim, dim) matrix of the pair values, zero diagonal."""
        m = np.zeros((self.dim, self.dim))
        for k, (i, j) in enumerate(pair_indices(self.dim)):
            m[i, j] = m[j, i] = self.values[k]
        return m

    def max_pair(self) -> tuple[tuple[int, int], float]:
        """The pair with the largest ratio sum (ties: first in pair order)."""
        if self.values.shape[0] == 0:
            raise ValueError("no pairs in a 1-dimensional delta vector")
        k = int(np.argmax(self.values))
        return pair_indices(self.dim)[k], float(self.values[k])


def delta_from_spd(spd: SpdMatrix) -> DeltaVector:
    """Ratio sums l_j/l_i + l_i/l_j over the sorted spectrum of ``spd``."""
    w = spd.eigenvalues
    vals = [w[j] / w[i] + w[i] / w[j] for i, j in pair_indices(spd.dim)]
    return DeltaVector(dim=spd.dim, values=np.asarray(vals, dtype=float))


def as_points(delta: DeltaVector, points) -> np.ndarray:
    """``points`` as a float (N, dim) stack, or DimensionMismatchError."""
    y = np.asarray(points, dtype=float)
    if y.ndim != 2 or y.shape[1] != delta.dim:
        raise DimensionMismatchError(
            f"points must have shape (N, {delta.dim}), got {y.shape}")
    return y


def h_diagonal(dm: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Diagonals (N, dim) of h at the points y (N, dim); dm = as_matrix().

    3 y_i^2 + (1/2) sum_j delta_ij y_j^2, the sum as one BLAS product over
    all N rows (in place, so the peak is two (N, dim) arrays).  Its last
    bits can depend on N, so a scan that must match h_form_batch bitwise
    calls this on the same rows at once.
    """
    sq = y * y
    out = sq @ dm
    out *= 0.5
    sq *= 3.0
    out += sq
    return out


def h_entries(dm: np.ndarray, y: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """h at the points y (m, dim) in (dim, dim, m) layout.

    The off-diagonal is (y_i * y_j) * delta_ij; ``diag`` is h_diagonal of
    the same rows.  Each entry is a contiguous run over the m points, so
    batched Cholesky pivots read whole vectors.
    """
    yt = np.ascontiguousarray(y.T)
    h = yt[:, None, :] * yt[None, :, :]
    h *= dm[:, :, None]
    idx = np.arange(dm.shape[0])
    h[idx, idx] = diag.T
    return h


def h_form_batch(delta: DeltaVector, points: np.ndarray) -> np.ndarray:
    """Conjugated Hessian form h(delta, y) for a stack of points (N, dim)."""
    y = as_points(delta, points)
    dm = delta.as_matrix()
    h = h_entries(dm, y, h_diagonal(dm, y))
    return np.ascontiguousarray(np.moveaxis(h, -1, 0))


def h_form(delta: DeltaVector, y) -> np.ndarray:
    """h(delta, y) for a single point y."""
    v = np.asarray(y, dtype=float)
    if v.shape != (delta.dim,):
        raise DimensionMismatchError(
            f"point shape {v.shape} does not match dim {delta.dim}")
    return h_form_batch(delta, v[None, :])[0]


def _sym3(e11, e22, e33, e12, e13, e23) -> np.ndarray:
    parts = np.broadcast_arrays(e11, e22, e33, e12, e13, e23)
    e11, e22, e33, e12, e13, e23 = [np.asarray(p, dtype=float) for p in parts]
    out = np.empty(e11.shape + (3, 3))
    out[..., 0, 0] = e11
    out[..., 1, 1] = e22
    out[..., 2, 2] = e33
    out[..., 0, 1] = out[..., 1, 0] = e12
    out[..., 0, 2] = out[..., 2, 0] = e13
    out[..., 1, 2] = out[..., 2, 1] = e23
    return out


def _split_omega(omega):
    w = np.asarray(omega, dtype=float)
    if w.shape and w.shape[-1] == 3:
        return w[..., 0], w[..., 1], w[..., 2]
    raise DimensionMismatchError("omega must have 3 components")


def m_entries(omega, alpha, beta) -> tuple[np.ndarray, ...]:
    """The six unique entries (e11, e22, e33, e12, e13, e23) of m_form.

    Broadcasts like m_form; the robust scan packs them, a block of cells at
    a time, into the (3, 3, cells) layout of its eigenvalue screen.
    """
    w1, w2, w3 = _split_omega(omega)
    al = np.asarray(alpha, dtype=float)
    be = np.asarray(beta, dtype=float)
    return (
        3.0 + 0.5 * w1 * al ** 2 + 0.5 * w2 * be ** 2,
        0.5 * w1 + 3.0 * al ** 2 + 0.5 * w3 * be ** 2,
        0.5 * w2 + 0.5 * w3 * al ** 2 + 3.0 * be ** 2,
        w1 * al,
        w2 * be,
        w3 * al * be,
    )


def det_m_alpha_coefs(omega, beta) -> tuple[np.ndarray, ...]:
    """Closed-form alpha-coefficients (c0, c2, c4, c6) of det m_form:

    det m_form(omega, alpha, beta) = c0 + c2 alpha^2 + c4 alpha^4 + c6 alpha^6

    with t = beta^2 and

    c0 = (3/2)(w1 + w3 t) * ((1/2) w2 + (3 - (1/4) w2^2) t + (1/2) w2 t^2)
    c2 = -(3/8) [t^2 (w2 w3^2 - 2 w1 w3 - 12 w2)
                 + 6 t (w1^2 - w1 w2 w3 + w2^2 + w3^2 - 12)
                 + w1^2 w2 - 2 w1 w3 - 12 w2]
    c4 = -(3/8) [t (w1 w3^2 - 12 w1 - 2 w2 w3) + w1^2 w3 - 2 w1 w2 - 12 w3]
    c6 = (3/4) w1 w3

    Odd powers vanish: conjugation by diag(1, -1, 1) flips alpha.  c0's
    first factor is positive; the second is a quadratic in t whose
    nonnegativity on w2 in [2, 4] is one of the certified box facts.
    Broadcasts like m_entries.
    """
    w1, w2, w3 = _split_omega(omega)
    t = np.asarray(beta, dtype=float) ** 2
    c0 = 1.5 * (w1 + w3 * t) * (
        0.5 * w2 + (3.0 - 0.25 * w2 ** 2) * t + 0.5 * w2 * t * t)
    c2 = -0.375 * (
        t * t * (w2 * w3 ** 2 - 2.0 * w1 * w3 - 12.0 * w2)
        + 6.0 * t * (w1 ** 2 - w1 * w2 * w3 + w2 ** 2 + w3 ** 2 - 12.0)
        + w1 ** 2 * w2 - 2.0 * w1 * w3 - 12.0 * w2)
    c4 = -0.375 * (t * (w1 * w3 ** 2 - 12.0 * w1 - 2.0 * w2 * w3)
                   + w1 ** 2 * w3 - 2.0 * w1 * w2 - 12.0 * w3)
    return c0, c2, c4, 0.75 * w1 * w3


def m_form(omega, alpha, beta) -> np.ndarray:
    """Normalized 3-dim form when the first coordinate dominates.

    With omega = (delta_12, delta_13, delta_23), alpha = y2/y1, beta = y3/y1:
    h(delta, y) = y1^2 * m_form(omega, alpha, beta).  Broadcasts: scalar
    arguments give one (3, 3) matrix, array arguments a stack.
    """
    return _sym3(*m_entries(omega, alpha, beta))


def p_form(omega, alpha, beta) -> np.ndarray:
    """Companion form when the second coordinate dominates (alpha = y1/y2,
    beta = y3/y2); conjugate to m_form under swapping coordinates 1 and 2
    with omega reordered to (w1, w3, w2)."""
    w1, w2, w3 = _split_omega(omega)
    al = np.asarray(alpha, dtype=float)
    be = np.asarray(beta, dtype=float)
    return _sym3(
        3.0 * al ** 2 + 0.5 * w1 + 0.5 * w2 * be ** 2,
        0.5 * w1 * al ** 2 + 3.0 + 0.5 * w3 * be ** 2,
        0.5 * w2 * al ** 2 + 0.5 * w3 + 3.0 * be ** 2,
        w1 * al,
        w2 * al * be,
        w3 * be,
    )


def q_form(omega, alpha, beta) -> np.ndarray:
    """Companion form when the third coordinate dominates (alpha = y1/y3,
    beta = y2/y3)."""
    w1, w2, w3 = _split_omega(omega)
    al = np.asarray(alpha, dtype=float)
    be = np.asarray(beta, dtype=float)
    return _sym3(
        3.0 * al ** 2 + 0.5 * w1 * be ** 2 + 0.5 * w2,
        0.5 * w1 * al ** 2 + 3.0 * be ** 2 + 0.5 * w3,
        0.5 * w2 * al ** 2 + 0.5 * w3 * be ** 2 + 3.0,
        w1 * al * be,
        w2 * al,
        w3 * be,
    )


def det3_batch(mats: np.ndarray) -> np.ndarray:
    """Determinants of a (..., 3, 3) stack, cofactor expansion."""
    a = np.asarray(mats, dtype=float)
    return (a[..., 0, 0] * (a[..., 1, 1] * a[..., 2, 2] - a[..., 1, 2] * a[..., 2, 1])
            - a[..., 0, 1] * (a[..., 1, 0] * a[..., 2, 2] - a[..., 1, 2] * a[..., 2, 0])
            + a[..., 0, 2] * (a[..., 1, 0] * a[..., 2, 1] - a[..., 1, 1] * a[..., 2, 0]))

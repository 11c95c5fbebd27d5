"""Spectral reduction of the Hessian to eigenvalue-ratio data.

For A with eigenvalues l_1 <= ... <= l_n the Hessian of f conjugates to a
matrix that depends on A only through the pairwise ratio sums

    delta_ij = l_j / l_i + l_i / l_j   (>= 2, with delta_1n = kappa + 1/kappa)

and on the rotated point y = U x.  The conjugated form is

    h(delta, y)_ii = 3 y_i^2 + (1/2) sum_{j != i} delta_ij y_j^2
    h(delta, y)_ij = delta_ij y_i y_j                   (i != j)

so convexity of K is exactly "h(delta, y) PSD for every y": a semi-infinite
linear matrix inequality in delta.  The pair-term identity for z'h z bounds
lambda_min h per direction (:func:`row_bound`, used by the direction
scan).  The 3-dim analysis additionally normalizes h by the
largest-magnitude coordinate, which yields the three parametric 3x3 forms
m/p/q below on the box omega in [2, 4]^3, alpha, beta in [-1, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import DimensionMismatchError, SpdMatrix, pair_indices

__all__ = [
    "DeltaVector", "delta_from_spd", "pair_indices",
    "h_form", "h_form_batch",
    "BOUND_DELTA_MAX", "least_coefs", "row_coefs", "row_bound",
    "square_bound", "m_entries", "det_m_t_polys", "det_m_alpha_coefs",
    "m_form", "p_form", "q_form", "det3_batch",
]

# Delta entries sit in [2, inf) mathematically; allow this much roundoff when
# values arrive from floating-point eigenvalue ratios.
_DELTA_SLACK = 1e-12
# Above this delta_max the row bound is skipped; at or below it, with
# |y|^2 <= 2, every quantity the bound forms, squares included, is finite.
BOUND_DELTA_MAX = 1e150


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


def delta_from_spd(spd: SpdMatrix) -> DeltaVector:
    """The ratio sums l_j/l_i + l_i/l_j of ``spd``
    (:meth:`linalg.SpdMatrix.ratio_sums`) as a DeltaVector."""
    return DeltaVector(dim=spd.dim,
                       values=np.asarray(spd.ratio_sums(), dtype=float))


def as_points(delta: DeltaVector, points) -> np.ndarray:
    """``points`` as a float (N, dim) stack, or DimensionMismatchError."""
    y = np.asarray(points, dtype=float)
    if y.ndim != 2 or y.shape[1] != delta.dim:
        raise DimensionMismatchError(
            f"points must have shape (N, {delta.dim}), got {y.shape}")
    return y


def h_entries(dm: np.ndarray, y: np.ndarray) -> np.ndarray:
    """h at the points y (m, dim) in (dim, dim, m) layout; dm = as_matrix().

    The off-diagonal is (y_i * y_j) * delta_ij.  The diagonal sums over j
    in a fixed order with elementwise ops, no BLAS, so each point's h is
    bitwise the same whatever m is.  Each entry is a contiguous run over
    the m points, so batched Cholesky pivots read whole vectors.
    """
    m, n = y.shape
    yt = np.ascontiguousarray(y.T)
    sq = yt * yt
    h = yt[:, None, :] * yt[None, :, :]
    h *= dm[:, :, None]
    diag = h.reshape(n * n, m)[::n + 1]  # the h[i, i] runs, 0 as delta_ii = 0
    for j in range(n):
        diag += dm[:, j, None] * sq[j]
    diag *= 0.5
    diag += 3.0 * sq
    return h


def least_coefs(values: np.ndarray):
    """(a, c) = (3 delta_min/4 - 3/2, 3/2 - delta_max/4), delta_min and
    delta_max over the last axis of ``values``: the least coefficients of
    the rewritten pair terms (docs/proofs.md#row-bound).  A stack of delta
    vectors gives one (a, c) per vector."""
    return (0.75 * values.min(axis=-1) - 1.5,
            1.5 - 0.25 * values.max(axis=-1))


def row_coefs(a, c):
    """(c + a, 2a, b), b = 3 + a - c: the coefficients :func:`row_bound`
    reads, elementwise in (a, c)."""
    return c + a, 2.0 * a, 3.0 + a - c


def row_bound(coefs: tuple[float, float, float],
              y: np.ndarray) -> np.ndarray:
    """Closed-form lower bound L(y) on lambda_min h(delta, y) for each row
    of ``y`` (m, dim); ``coefs`` from :func:`row_coefs`, or columns (k, 1)
    of coefficients, which give one row of bounds (k, m) per set.

    L = (c + a)|y|^2 - lambda_max(T), T the 2x2 matrix [[(2a - b) mu1,
    -b sqrt(mu1 R)], [-b sqrt(mu1 R), 2a mu2 - b R]], with mu1 >= mu2 the two
    largest y_i^2 and R the sum of the y_i^2 other than mu1; it needs a > 0
    (docs/proofs.md#row-bound).  R is accumulated term by term, never as
    |y|^2 - mu1, whose cancellation near e_k the square root would magnify.
    A row with |y|^2 > 2 or a NaN coordinate reads -inf, so it clears
    nothing.
    """
    return square_bound(coefs, np.square(y.T, order="C"))[0]


def square_bound(coefs, sq: np.ndarray):
    """(:func:`row_bound`, |y|^2) per row, read from the squares ``sq``
    (dim, m) of the rows, C layout; |y|^2 is summed as the bound sums it."""
    ca, two_a, b = coefs
    mu1 = sq[0].copy()
    mu2 = np.zeros_like(mu1)
    rest = np.zeros_like(mu1)
    for v in sq[1:]:
        low = np.minimum(mu1, v)
        rest += low
        np.maximum(mu2, low, out=mu2)
        np.maximum(mu1, v, out=mu1)
    s = mu1 + rest
    p = (two_a - b) * mu1
    r = two_a * mu2 - b * rest
    half = 0.5 * (p - r)
    lam = 0.5 * (p + r) + np.sqrt(half * half + (b * b) * (mu1 * rest))
    return np.where(s <= 2.0, ca * s - lam, -math.inf), s


def h_form_batch(delta: DeltaVector, points: np.ndarray) -> np.ndarray:
    """Conjugated Hessian form h(delta, y) for a stack of points (N, dim)."""
    h = h_entries(delta.as_matrix(), as_points(delta, points))
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


def det_m_t_polys(omega) -> tuple:
    """The parts of :func:`det_m_alpha_coefs` that depend on omega alone,
    (q, a, b, c, d, e, c6), as it computes them: with t = beta^2,

    c0 = (3/2)(w1 + w3 t)((1/2) w2 + q t + (1/2) w2 t^2)
    c2 = -(3/8)(a t^2 + 6 b t + c[0] + c[1] + c[2])
    c4 = -(3/8)(d t + e[0] + e[1] + e[2])

    and c6 itself.  c and e are the summands of the t-free parts, which
    det_m_alpha_coefs adds one at a time, in this order.  Broadcasts like
    m_entries.
    """
    w1, w2, w3 = _split_omega(omega)
    return (3.0 - 0.25 * w2 ** 2,
            w2 * w3 ** 2 - 2.0 * w1 * w3 - 12.0 * w2,
            w1 ** 2 - w1 * w2 * w3 + w2 ** 2 + w3 ** 2 - 12.0,
            (w1 ** 2 * w2, -(2.0 * w1 * w3), -(12.0 * w2)),
            w1 * w3 ** 2 - 12.0 * w1 - 2.0 * w2 * w3,
            (w1 ** 2 * w3, -(2.0 * w1 * w2), -(12.0 * w3)),
            0.75 * w1 * w3)


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

    the omega parts coming from :func:`det_m_t_polys`.  Odd powers vanish:
    conjugation by diag(1, -1, 1) flips alpha.  c0's first factor is
    positive; the second is a quadratic in t whose nonnegativity on w2 in
    [2, 4] is one of the certified box facts.  Broadcasts like m_entries.
    """
    w1, w2, w3 = _split_omega(omega)
    q, a, b, c, d, e, c6 = det_m_t_polys(omega)
    t = np.asarray(beta, dtype=float) ** 2
    c0 = 1.5 * (w1 + w3 * t) * (0.5 * w2 + q * t + 0.5 * w2 * t * t)
    return (c0, -0.375 * (t * t * a + 6.0 * t * b + c[0] + c[1] + c[2]),
            -0.375 * (t * d + e[0] + e[1] + e[2]), c6)


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

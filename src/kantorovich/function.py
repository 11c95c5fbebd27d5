"""The Kantorovich function K(x) = (x'Ax)(x'A^-1x): values and derivatives.

All calculus is done on the quarter-scaled f(x) = K(x)/4 = q(x) * q_inv(x)
with q(x) = x'Ax/2, which keeps the gradient and Hessian free of stray
factors.  Convexity of K and of f coincide.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .linalg import (DimensionMismatchError, NonFiniteError, SpdMatrix,
                     ZeroVectorError)

__all__ = [
    "k_value", "f_value", "f_gradient", "f_hessian", "fd_hessian",
    "BoundCheck", "kantorovich_bound_check",
]


def _as_point(spd: SpdMatrix, x) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.shape != (spd.dim,):
        raise DimensionMismatchError(
            f"point shape {v.shape} does not match dim {spd.dim}")
    if not np.isfinite(v).all():
        raise NonFiniteError("point has non-finite entries")
    return v


def _balanced(spd: SpdMatrix) -> tuple[np.ndarray, np.ndarray]:
    """(A 2^-e, A^-1 2^e), 2^e the power of two of sqrt(l1) sqrt(ln).

    f, its gradient and its Hessian are the same for A and cA, so they are
    computed on this pair, whose entries are at most about sqrt(kappa): on
    an A near the subnormal range x'A^-1x no longer overflows.  Scaling by
    a power of two is exact, so any other A gives the same bits
    (docs/proofs.md#power-of-two-scaling).
    """
    w = spd.eigenvalues
    e = math.frexp(math.sqrt(w[0]) * math.sqrt(w[-1]))[1]
    return np.ldexp(spd.matrix, -e), np.ldexp(spd.inverse, e)


# A quadratic form of a huge point overflows to inf and its differences to
# NaN; those values are the result (a NaN deviation fails hessian-check), so
# numpy's floating-point warnings are silenced rather than printed.
@np.errstate(over="ignore", invalid="ignore")
def _quadratics(pair: tuple[np.ndarray, np.ndarray], x: np.ndarray):
    ax = pair[0] @ x
    ix = pair[1] @ x
    return 0.5 * float(x @ ax), 0.5 * float(x @ ix), ax, ix


def f_value(spd: SpdMatrix, x) -> float:
    """f(x) = (x'Ax)(x'A^-1x) / 4."""
    v = _as_point(spd, x)
    qa, qi, _, _ = _quadratics(_balanced(spd), v)
    return qa * qi


def k_value(spd: SpdMatrix, x) -> float:
    """K(x) = (x'Ax)(x'A^-1x).  Homogeneous of degree 4, K(x) >= ||x||^4."""
    return 4.0 * f_value(spd, x)


def f_gradient(spd: SpdMatrix, x) -> np.ndarray:
    """grad f(x) = q_inv(x) * Ax + q(x) * A^-1 x."""
    return _gradient(_balanced(spd), _as_point(spd, x))


def _gradient(pair: tuple[np.ndarray, np.ndarray],
              v: np.ndarray) -> np.ndarray:
    qa, qi, ax, ix = _quadratics(pair, v)
    return qi * ax + qa * ix


def f_hessian(spd: SpdMatrix, x) -> np.ndarray:
    """Exact Hessian of f at x.

    hess f(x) = q(x) A^-1 + q_inv(x) A + (Ax)(A^-1x)' + (A^-1x)(Ax)'

    Assembled in one pass; symmetric by construction.
    """
    v = _as_point(spd, x)
    a, inv = pair = _balanced(spd)
    qa, qi, ax, ix = _quadratics(pair, v)
    cross = np.outer(ax, ix)
    return qa * inv + qi * a + cross + cross.T


@np.errstate(over="ignore", invalid="ignore")
def fd_hessian(spd: SpdMatrix, x, step: float = 1e-5) -> np.ndarray:
    """Central-difference Hessian from the analytic gradient.

    Column i uses step h_i = step * (1 + |x_i|); the result is symmetrized.
    Diagnostic companion to :func:`f_hessian`, not a replacement.  Only x
    is validated: a step whose x_i +- h_i overflows gives NaN columns.
    """
    v = _as_point(spd, x)
    pair = _balanced(spd)
    n = spd.dim
    out = np.empty((n, n))
    for i in range(n):
        h = step * (1.0 + abs(v[i]))
        up = v.copy()
        dn = v.copy()
        up[i] += h
        dn[i] -= h
        out[:, i] = (_gradient(pair, up) - _gradient(pair, dn)) / (2.0 * h)
    return 0.5 * (out + out.T)


class BoundCheck(NamedTuple):
    lhs: float
    rhs: float
    holds: bool


def kantorovich_bound_check(spd: SpdMatrix, x,
                            variant: str = "classical") -> BoundCheck:
    """Check the Kantorovich upper bound on K(x) for nonzero x.

    ``classical``:  K(x) <= (l1 + ln)^2 / (4 l1 ln) * ||x||^4, tight when x
    mixes the extreme eigenvectors equally.

    ``as_printed``: the variant K(x) <= (l1^2 + ln^2) / (4 l1 ln) * ||x||^4.
    This one fails already at A = diag(1, 6), x = (1, 1); it is exposed so the
    CLI can report both forms side by side.

    Both sides are homogeneous of degree 4 in x and of degree 0 in A, so
    ``holds`` is decided at x / ||x|| with the eigenvalues scaled by a power
    of two, whatever the scale of x or A; ``lhs`` and ``rhs`` are the
    values at x itself, inf or 0 where they overflow or underflow.
    """
    v = _as_point(spd, x)
    norm = math.hypot(*v)
    if norm == 0.0:
        raise ZeroVectorError("bound check requires a nonzero point")
    e = math.frexp(float(spd.eigenvalues[-1]))[1]
    l1 = math.ldexp(float(spd.eigenvalues[0]), -e)
    ln = math.ldexp(float(spd.eigenvalues[-1]), -e)
    if variant == "classical":
        factor = (l1 + ln) ** 2 / (4.0 * l1 * ln)
    elif variant == "as_printed":
        factor = (l1 * l1 + ln * ln) / (4.0 * l1 * ln)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    with np.errstate(over="ignore"):
        nx2 = float(v @ v)
    return BoundCheck(lhs=k_value(spd, v), rhs=factor * nx2 * nx2,
                      holds=k_value(spd, v / norm) <= factor * (1.0 + 1e-12))

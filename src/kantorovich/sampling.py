"""Unit-sphere sample plans and the block scanner for the conjugated form.

The semi-infinite constraint "h(delta, y) PSD for all y" is probed on finite
designs: paired coordinate probes (e_i +- e_j)/sqrt(2) are always included,
then a design per dimension, each row a function of its index (equispaced
angles in dim 2, a Fibonacci spiral in dim 3, a seeded Kronecker sequence
above).  h is even and degree-2 homogeneous in y, so unit vectors lose
nothing.

:func:`scan_h` finds the first minimum over rows exactly, block by block,
with the row bound of :func:`forms.row_bound` and a Cholesky screen before
the eigensolver.  No design is kept whole: per block, :func:`scan_design`
keeps a floor of the row bound, to skip it unread, and makes the block
again from its indices where it is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .forms import (BOUND_DELTA_MAX, DeltaVector, as_points, h_entries,
                    least_coefs, pair_indices, row_bound, row_coefs,
                    square_bound)
from .linalg import FirstMin, scan_tolerance, screened_min_eig
# The plan lives apart, without numpy; these names stay importable here.
from .plan import (DEFAULT_PLAN, MAX_SAMPLES, SamplePlan, or_default,
                   sample_count)

__all__ = [
    "SamplePlan", "SampleReport", "DEFAULT_PLAN", "MAX_SAMPLES",
    "or_default", "probe_directions", "all_samples", "sample_count",
    "scan_h", "scan_design", "ScanResult",
]

# Rows per block of the scan and of the designs after the probe block; a
# sphere design has at most MAX_SAMPLES rows, 2^15 blocks in its record.
_BLOCK = 1 << 12
# The design floors hold for a = 3 delta_min/4 - 3/2 in (0, _FLOOR_A]; in
# the gap delta <= 6, so a <= 3 there.  _FLOOR_COEFS are the row bound's
# (c + a, 2a, b) normalized to c + a = 1, 2a = 2, b = 1 + 2/_FLOOR_A.
_FLOOR_A = 3.0
_FLOOR_COEFS = (1.0, 2.0, 1.0 + 2.0 / _FLOOR_A)


@dataclass(frozen=True)
class SampleReport:
    """Outcome of a sampled PSD scan over unit directions."""

    worst_value: float
    worst_point: tuple[float, ...]
    samples: int
    seed: int
    tolerance: float
    passed: bool


@lru_cache(maxsize=16)
def probe_directions(dim: int) -> np.ndarray:
    """All (e_i + e_j)/sqrt(2) and (e_i - e_j)/sqrt(2), i < j; cached and
    read-only."""
    pairs = pair_indices(dim)
    out = np.zeros((2 * len(pairs), dim))
    r = 1.0 / math.sqrt(2.0)
    for k, (i, j) in enumerate(pairs):
        out[2 * k:2 * k + 2, i] = r
        out[2 * k:2 * k + 2, j] = r, -r
    out.setflags(write=False)
    return out


def _kronecker(dim: int, seed: int) -> tuple[list[float], list[float]]:
    """(s, alpha) of the R_d sequence frac(s + k alpha) (Roberts 2018):
    alpha_j = phi^-j, phi > 1 the root of x^(dim+1) = x + 1 by Newton's
    method in products and quotients (the nearest float at dims 4-8), and
    s_j = frac(1/2 + seed beta_j), beta_j = phi^-(dim+j) in odd steps of
    2^-53: an offset per seed mod 2^53."""
    phi = 1.0 + 1.0 / (dim + 1)  # above the root; 8 steps reach it
    for _ in range(8):
        p = 1.0
        for _ in range(dim):
            p *= phi
        phi -= (p * phi - phi - 1.0) / ((dim + 1) * p - 1.0)
    powers = [1.0]
    for _ in range(2 * dim):
        powers.append(powers[-1] / phi)
    one = 1 << 53
    return ([((one >> 1) + seed * (int(b * one) | 1)) % one / one
             for b in powers[dim + 1:]], powers[1:dim + 1])


def _rows(dim: int, count: int, seed: int, lo: int, hi: int,
          buf: np.ndarray) -> np.ndarray:
    """Rows lo:hi (a block of :func:`_blocks`) of the design of ``count``
    sphere rows in ``dim``: the probes, or sphere rows made from their
    indices k alone, written to ``buf`` (dim, block) and returned as its
    transpose.  Above dim 3, row k is x/|x|, x = frac(s + (k+1) alpha) - 1/2
    (:func:`_kronecker`), |x|^2 summed in coordinate order: only +, -, *,
    /, sqrt and floor, so its bits depend on nothing but its index."""
    head = dim * (dim - 1)
    if lo < head:
        return probe_directions(dim)
    out = buf[:, :hi - lo]
    i = np.arange(lo - head, hi - head, dtype=float)
    if dim > 3:
        s, alpha = (np.array(v)[:, None] for v in _kronecker(dim, seed))
        np.multiply(alpha, i + 1.0, out=out)
        out += s
        out -= np.floor(out) + 0.5
        norm = out[0] * out[0]
        for x in out[1:]:
            norm += x * x
        out /= np.sqrt(norm)
    elif dim == 2:
        theta = np.pi * i / count
        out[0], out[1] = np.cos(theta), np.sin(theta)
    elif dim == 3:
        z = 1.0 - 2.0 * (i + 0.5) / count
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        phi = math.pi * (3.0 - math.sqrt(5.0)) * i
        out[0], out[1], out[2] = r * np.cos(phi), r * np.sin(phi), z
    else:
        out.fill(1.0)
    return out.T


def _design_key(dim: int, plan: SamplePlan) -> tuple[int, int, int]:
    """What the design of ``dim`` reads from ``plan``: (dim, its rows past
    the probes (:func:`sample_count`), the seed at dim >= 4, else 0)."""
    count = sample_count(dim, plan) - dim * (dim - 1)
    return dim, count, plan.seed if dim > 3 else 0


def all_samples(dim: int, plan: SamplePlan) -> np.ndarray:
    """Probes first (so ties resolve toward them), then the sphere design:
    ``angles_2d`` equispaced angles in dim 2, a ``fibonacci_3d`` spiral in
    dim 3, ``random_nd`` Kronecker rows offset by ``seed`` above, and the
    single point (1,) in dim 1: the blocks that :func:`scan_design` reads.
    A fresh read-only array on each call, never kept: no scan reads it.
    """
    dim, count, seed = _design_key(dim, plan)
    out = np.empty((dim * (dim - 1) + count, dim))
    for lo, hi, rows in _pass(dim, count, seed, _BLOCK):
        out[lo:hi] = rows
    out.setflags(write=False)
    return out


def _pass(dim: int, count: int, seed: int, block: int):
    """(lo, hi, rows) per block of the design (dim, count, seed) in order,
    :func:`_rows` in one reused buffer."""
    buf = np.empty((dim, min(block, count)))
    for lo, hi in _blocks(dim * (dim - 1) + count, dim * (dim - 1), block):
        yield lo, hi, _rows(dim, count, seed, lo, hi, buf)


@dataclass(frozen=True)
class ScanResult:
    worst_value: float
    worst_index: int
    tolerance: float
    samples: int
    violation: bool


def _blocks(total: int, head: int, block: int):
    """(lo, hi) row ranges: the first ``head`` rows, then ``block`` each."""
    lo = 0
    while lo < total:
        hi = min(total, head if lo < head else lo + block)
        yield lo, hi
        lo = hi


def _bound_coefs(delta: DeltaVector,
                 margin: float) -> tuple[float, float] | None:
    """(a, c) from :func:`forms.least_coefs`, which :func:`forms.row_coefs`
    turns into the row bound's coefficients; None where the bound is
    skipped: delta_max > ``BOUND_DELTA_MAX``, or a <= ``margin``, where it
    cannot clear a unit row (L <= c + a there, and a scan's running minimum
    is at least c up to rounding).  A repeated eigenvalue makes a = 0."""
    if delta.dim < 2 or delta.values.max() > BOUND_DELTA_MAX:
        return None
    a, c = least_coefs(delta.values)
    return (a, c) if a > margin else None


@lru_cache(maxsize=16)
def _record(dim: int, count: int, seed: int, block: int) -> np.ndarray:
    """Per block of the design (dim, count, seed), its floor (phi, s_lo,
    s_hi; see scan_design), read-only, from the squares of its rows: phi is
    the least ``row_bound(_FLOOR_COEFS, y)`` over the block, bit for bit.
    ``DEFAULT_PLAN``'s records at dims 2-8 ship in :mod:`kantorovich._records`
    and are returned as they are."""
    from ._records import RECORDS
    floors = RECORDS.get((dim, count, seed, block))
    if floors is None:
        floors = []
        buf = np.empty(dim * max(dim * (dim - 1), min(block, count)))
        for _, _, rows in _pass(dim, count, seed, block):
            sq = np.square(rows.T, out=buf[:rows.size].reshape(dim, -1))
            bound, s = square_bound(_FLOOR_COEFS, sq)
            floors.append((bound.min(), s.min(), s.max()))
    floors = np.array(floors)
    floors.setflags(write=False)
    return floors


def _scan(delta: DeltaVector, total: int, read,
          floors: np.ndarray | None = None):
    """:func:`scan_h` of ``total`` rows, rows lo:hi being ``read(lo, hi)``,
    and the first worst row as a tuple of floats; ``floors`` clear blocks
    unread."""
    n = delta.dim
    # The tolerance also sets the screens' margins: its scale bounds every
    # |entry| of h at a unit point (see screened_min_eig).
    tol = scan_tolerance(float(delta.values.max(initial=0.0)))
    dm = delta.as_matrix()
    coefs = floor = None
    # The bound and floors are made only for a scan with rows past the
    # probe head, which they never screen (so not for probe rows alone).
    least = _bound_coefs(delta, 0.5 * tol) if total > n * (n - 1) else None
    if least is not None:
        a, c = least
        coefs = row_coefs(a, c)
        # floor[k] <= L(y) on block k, up to rounding
        # (docs/proofs.md#design-block-floor)
        if floors is not None and a <= _FLOOR_A:
            phi, s_lo, s_hi = floors.T
            floor = np.minimum(c * s_lo, c * s_hi) + a * phi
    worst = FirstMin()
    point = None
    for k, (lo, hi) in enumerate(_blocks(total, n * (n - 1), _BLOCK)):
        if floor is not None and lo and floor[k] > worst.value + 0.5 * tol:
            continue
        block = rows = read(lo, hi)
        keep = slice(None)
        if coefs is not None and lo:
            keep = ~(row_bound(coefs, rows) > worst.value + 0.5 * tol)
            rows = rows[keep]
        lam = np.full(hi - lo, math.inf)
        if rows.shape[0]:
            lam[keep] = screened_min_eig(h_entries(dm, rows), worst.value,
                                         tol)
        worst.update(lo, lam)
        if worst.index >= lo:
            point = tuple(block[worst.index - lo].tolist())
    return ScanResult(worst_value=worst.value, worst_index=worst.index,
                      tolerance=tol, samples=total,
                      violation=not worst.value >= -tol), point


def scan_h(delta: DeltaVector, points: np.ndarray) -> ScanResult:
    """Minimum eigenvalue of h(delta, y) over a stack of unit points.

    The result is exact: the worst value, its first index and the violation
    flag (not worst >= -tolerance, tolerance :func:`linalg.scan_tolerance`
    of delta_max) are those of evaluating every point; the first NaN is
    the worst (:class:`linalg.FirstMin`).  The first block is the
    ``dim*(dim-1)`` probe rows.  In each later one, the row bound
    (:func:`forms.row_bound`, where it applies) clears every row whose bound
    exceeds the running minimum by half the tolerance, h is built for the
    rest (:func:`forms.h_entries`), a Cholesky screen clears more
    (:func:`linalg.screened_min_eig`), and the rest are eigensolved.
    """
    pts = as_points(delta, points)
    return _scan(delta, pts.shape[0], lambda lo, hi: pts[lo:hi])[0]


def scan_design(delta: DeltaVector,
                plan: SamplePlan = DEFAULT_PLAN) -> SampleReport:
    """Sampled check that h(delta, y) is PSD over unit directions: the
    :func:`scan_h` result on ``all_samples(delta.dim, plan)``, bit for bit,
    as a report with the first worst row, a tuple, and ``plan.seed``.

    The first scan of a design makes its :func:`_record`: per block,
    phi_k, the least ``row_bound(_FLOOR_COEFS, y)``, and s_lo and s_hi,
    the least and largest |y|^2.  The records of ``DEFAULT_PLAN``'s designs
    ship precomputed, so its scans make none.  Where the row bound applies
    and a = 3 delta_min/4 - 3/2 <= 3 (in the gap, unless two eigenvalues
    nearly tie), every row of block k has bound >= min(c s_lo, c s_hi) +
    a phi_k (docs/proofs.md#design-block-floor): the block is skipped
    unread where that exceeds the running minimum by half the tolerance.
    Others are made again from their indices and screened as by
    :func:`scan_h`.
    """
    key = _design_key(delta.dim, plan)
    buf = np.empty((key[0], min(_BLOCK, key[1])))
    res, point = _scan(delta, sample_count(delta.dim, plan),
                       lambda lo, hi: _rows(*key, lo, hi, buf),
                       _record(*key, _BLOCK))
    return SampleReport(worst_value=res.worst_value, worst_point=point,
                        samples=res.samples, seed=plan.seed,
                        tolerance=res.tolerance, passed=not res.violation)

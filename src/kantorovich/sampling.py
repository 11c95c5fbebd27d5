"""Unit-sphere sample plans and the block scanner for the conjugated form.

The semi-infinite constraint "h(delta, y) PSD for all y" is probed on finite
designs: paired coordinate probes (e_i +- e_j)/sqrt(2) are always included,
then a deterministic design per dimension (equispaced angles in dim 2, a
Fibonacci spiral in dim 3, seeded random unit vectors above).  h is even and
degree-2 homogeneous in y, so unit vectors lose nothing.

:func:`scan_h` takes the minimum by value with first-index tie-break, so
results are deterministic for a fixed seed.  It builds h per block of rows,
never an (N, n, n) stack, so its memory does not grow with the sample
count, and row by row, so the worst point, evaluated alone, gives the
worst value bit for bit.  The scan is exact, but two screens clear the
directions that cannot beat the running minimum: a closed-form lower bound
on lambda_min h per row, from the pair-term identity (docs/formats.md), and
then a batched Cholesky screen on the rows the bound leaves.  h is built
only for those rows, and the eigensolver runs only on what Cholesky leaves;
the reported sample count still counts every direction.

A cached design is scanned by :func:`scan_design` (``lmi.verify_h_lmi``),
which reports a copy of the worst row and keeps, per block of the scan, a
floor of the row bound with the design.  A block whose floor already
clears it is skipped as a whole, so in the gap the design costs O(blocks)
per scan, not O(rows).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .forms import DeltaVector, as_points, h_entries, pair_indices
from .linalg import PSD_EPS, FirstMin, screened_min_eig

__all__ = [
    "SamplePlan", "SampleReport", "DEFAULT_PLAN",
    "probe_directions", "all_samples", "sample_count",
    "h_scale_bound", "scan_h", "scan_design", "ScanResult",
]

# Rows per block of h entries after the probe block (see scan_h).
_BLOCK = 1 << 12
# Above this delta_max the row bound is skipped; at or below it, with
# |y|^2 <= 2, every quantity the bound forms, squares included, is finite.
_BOUND_DELTA_MAX = 1e150
# The design floors hold for a = 3 delta_min/4 - 3/2 in (0, _FLOOR_A]; in
# the gap delta <= 6, so a <= 3 there.  _FLOOR_COEFS are the row bound's
# (c + a, 2a, b) normalized to c + a = 1, 2a = 2, b = 1 + 2/_FLOOR_A.
_FLOOR_A = 3.0
_FLOOR_COEFS = (1.0, 2.0, 1.0 + 2.0 / _FLOOR_A)


@dataclass(frozen=True)
class SamplePlan:
    """Falsification budget: how many directions to test per dimension."""

    seed: int = 42
    angles_2d: int = 4096
    fibonacci_3d: int = 100_000
    random_nd: int = 200_000
    refine_rounds: int = 50  # validated, read by nothing: no descent runs

    def __post_init__(self):
        if min(self.angles_2d, self.fibonacci_3d, self.random_nd) < 1:
            raise ValueError("sample counts must be >= 1")
        if self.refine_rounds < 0:
            raise ValueError("refine_rounds must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


DEFAULT_PLAN = SamplePlan()


@dataclass(frozen=True)
class SampleReport:
    """Outcome of a sampled PSD scan over unit directions."""

    worst_value: float
    worst_point: np.ndarray
    samples: int
    seed: int
    tolerance: float
    passed: bool

    def __post_init__(self):
        p = np.asarray(self.worst_point, dtype=float)
        p.setflags(write=False)
        object.__setattr__(self, "worst_point", p)


def probe_directions(dim: int) -> np.ndarray:
    """All (e_i + e_j)/sqrt(2) and (e_i - e_j)/sqrt(2), i < j."""
    pairs = pair_indices(dim)
    out = np.zeros((2 * len(pairs), dim))
    r = 1.0 / math.sqrt(2.0)
    for k, (i, j) in enumerate(pairs):
        out[2 * k, i] = r
        out[2 * k, j] = r
        out[2 * k + 1, i] = r
        out[2 * k + 1, j] = -r
    out.setflags(write=False)
    return out


def _angles_2d(count: int) -> np.ndarray:
    theta = np.pi * np.arange(count) / count
    return np.column_stack([np.cos(theta), np.sin(theta)])


def _fibonacci_3d(count: int) -> np.ndarray:
    # Golden-angle spiral: near-uniform, fully deterministic.
    i = np.arange(count)
    z = 1.0 - 2.0 * (i + 0.5) / count
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    golden = math.pi * (3.0 - math.sqrt(5.0))
    phi = golden * i
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def _random_sphere(out: np.ndarray, seed: int) -> None:
    # One draw fills every row, as a draw of out.shape would; each row is
    # normalized alone, so blocks of _BLOCK rows give the rows of the whole
    # and keep the norms' temporary small.
    np.random.default_rng(seed).standard_normal(out=out)
    for lo in range(0, out.shape[0], _BLOCK):
        rows = out[lo:lo + _BLOCK]
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)


def _design_key(dim: int, plan: SamplePlan) -> tuple[int, int, int]:
    """What the design of ``dim`` reads from ``plan``: (dim, its count, and
    the seed at dim >= 4, else 0); the count is 1 at dim 1."""
    count = {2: plan.angles_2d, 3: plan.fibonacci_3d}.get(dim, plan.random_nd)
    return dim, count if dim > 1 else 1, plan.seed if dim > 3 else 0


def sample_count(dim: int, plan: SamplePlan) -> int:
    """The row count of ``all_samples(dim, plan)``, without building it."""
    return dim * (dim - 1) + _design_key(dim, plan)[1]


def all_samples(dim: int, plan: SamplePlan) -> np.ndarray:
    """Probes first (so ties resolve toward them), then the sphere design:
    ``angles_2d`` equispaced angles in dim 2, a ``fibonacci_3d`` spiral in
    dim 3, ``random_nd`` unit vectors drawn from ``seed`` above, and the
    single point (1,) in dim 1.

    Cached on what the design reads, (dim, its count, and the seed at
    dim >= 4), and read-only: plans that agree on those share one array.
    """
    return _samples(*_design_key(dim, plan))


@lru_cache(maxsize=16)
def _samples(dim: int, count: int, seed: int) -> np.ndarray:
    if dim <= 1:
        out = np.ones((1, 1))
    else:
        head = dim * (dim - 1)
        out = np.empty((head + count, dim))
        out[:head] = probe_directions(dim)
        if dim == 2:
            out[head:] = _angles_2d(count)
        elif dim == 3:
            out[head:] = _fibonacci_3d(count)
        else:
            _random_sphere(out[head:], seed)
    out.setflags(write=False)
    return out


def h_scale_bound(delta: DeltaVector) -> float:
    """sup over unit y of the largest |entry| of h(delta, y).

    Diagonal entries peak at max(3, delta_max/2); off-diagonal at
    delta_max/2.  Used to turn the relative PSD slack into one deterministic
    absolute tolerance for a whole scan.
    """
    dmax = float(delta.values.max()) if delta.values.size else 0.0
    return max(3.0, 0.5 * dmax)


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


def _least_coefs(values: np.ndarray):
    """(a, c) = (3 delta_min/4 - 3/2, 3/2 - delta_max/4), delta_min and
    delta_max over the last axis of ``values``: the least coefficients of
    the rewritten pair terms (docs/formats.md).  A stack of delta vectors
    gives one (a, c) per vector."""
    return (0.75 * values.min(axis=-1) - 1.5,
            1.5 - 0.25 * values.max(axis=-1))


def _row_coefs(a, c):
    """(c + a, 2a, b), b = 3 + a - c: the coefficients :func:`_row_bound`
    reads, elementwise in (a, c)."""
    return c + a, 2.0 * a, 3.0 + a - c


def _bound_coefs(delta: DeltaVector,
                 margin: float) -> tuple[float, float, float] | None:
    """(c + a, 2a, b) for :func:`_row_bound`, with (a, c) from
    :func:`_least_coefs` and b = 3 + a - c; None where the bound is
    skipped: delta_max > ``_BOUND_DELTA_MAX``, or a <= ``margin``, where it
    cannot clear a unit row (L <= c + a there, and a scan's running minimum
    is at least c up to rounding).  A repeated eigenvalue makes a = 0."""
    if delta.dim < 2 or delta.values.max() > _BOUND_DELTA_MAX:
        return None
    a, c = _least_coefs(delta.values)
    return _row_coefs(a, c) if a > margin else None


def _row_bound(coefs: tuple[float, float, float],
               y: np.ndarray) -> np.ndarray:
    """Closed-form lower bound L(y) on lambda_min h(delta, y) for each row
    of ``y`` (m, dim); ``coefs`` from :func:`_bound_coefs`, or columns
    (k, 1) of coefficients, which give one row of bounds (k, m) per set.

    L = (c + a)|y|^2 - lambda_max(T), T the 2x2 matrix [[(2a - b) mu1,
    -b sqrt(mu1 R)], [-b sqrt(mu1 R), 2a mu2 - b R]], with mu1 >= mu2 the two
    largest y_i^2 and R the sum of the y_i^2 other than mu1 (proof in
    docs/formats.md).  R is accumulated term by term, never as |y|^2 - mu1,
    whose cancellation near e_k the square root would magnify.  A row with
    |y|^2 > 2 or a NaN coordinate reads -inf, so it clears nothing.
    """
    ca, two_a, b = coefs
    sq = np.square(y.T, order="C")
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
    return np.where(s <= 2.0, ca * s - lam, -math.inf)


@lru_cache(maxsize=16)
def _floors(dim: int, count: int, seed: int, block: int) -> np.ndarray:
    """(blocks, 3): for each block of the scan of ``_samples(dim, count,
    seed)`` in rows of ``block`` after the probe head, the least normalized
    row bound phi = ``_row_bound(_FLOOR_COEFS, y)`` and the least and
    largest s = |y|^2 over its rows (see :func:`scan_design`)."""
    pts = _samples(dim, count, seed)
    out = []
    for lo, hi in _blocks(pts.shape[0], dim * (dim - 1), block):
        rows = pts[lo:hi]
        s = np.square(rows).sum(axis=1)
        out.append((_row_bound(_FLOOR_COEFS, rows).min(), s.min(), s.max()))
    return np.array(out)


def _scan(delta: DeltaVector, points: np.ndarray,
          design: tuple[int, int, int] | None = None) -> ScanResult:
    """:func:`scan_h`; ``points`` is ``_samples(*design)`` if ``design`` is
    given, and then its :func:`_floors` clear whole blocks."""
    n = delta.dim
    pts = as_points(delta, points)
    total = pts.shape[0]
    # The tolerance also sets the screens' margins: max(1, h_scale_bound)
    # bounds every |entry| of h at a unit point (see screened_min_eig).
    tol = PSD_EPS * max(1.0, h_scale_bound(delta))
    dm = delta.as_matrix()
    coefs = _bound_coefs(delta, 0.5 * tol)
    # floor[k] <= L(y), up to rounding, on every row y of block k
    # (docs/formats.md)
    floor = None
    if coefs is not None and design is not None:
        a, c = _least_coefs(delta.values)
        if a <= _FLOOR_A:
            phi, s_lo, s_hi = _floors(*design, _BLOCK).T
            floor = np.minimum(c * s_lo, c * s_hi) + a * phi
    worst = FirstMin()
    for k, (lo, hi) in enumerate(_blocks(total, n * (n - 1), _BLOCK)):
        if floor is not None and lo and floor[k] > worst.value + 0.5 * tol:
            continue
        rows = pts[lo:hi]
        keep = slice(None)
        if coefs is not None and lo:
            keep = ~(_row_bound(coefs, rows) > worst.value + 0.5 * tol)
            rows = rows[keep]
        lam = np.full(hi - lo, math.inf)
        if rows.shape[0]:
            lam[keep] = screened_min_eig(h_entries(dm, rows), worst.value,
                                         tol)
        worst.update(lo, lam)
    return ScanResult(worst_value=worst.value, worst_index=worst.index,
                      tolerance=tol, samples=total,
                      violation=not worst.value >= -tol)


def scan_h(delta: DeltaVector, points: np.ndarray) -> ScanResult:
    """Minimum eigenvalue of h(delta, y) over a stack of unit points.

    The result is exact: the worst value, its first index and the violation
    flag (not worst >= -tolerance, with tolerance ``PSD_EPS * max(1,
    h_scale_bound)``) are those of evaluating every point.  A
    direction where h has a non-finite entry reads NaN, and the first NaN
    is the worst (:class:`linalg.FirstMin`).  The first block is the
    ``dim*(dim-1)`` probe rows that :func:`all_samples` puts first.

    Each later block is screened twice.  First the closed-form row bound
    (:func:`_row_bound`) clears every row whose bound exceeds the running
    minimum by half the tolerance; it is skipped where it could clear no
    unit row (3 delta_min/4 - 3/2 at most half the tolerance, as for a
    repeated eigenvalue) or delta_max > 1e150.  h is built by
    :func:`forms.h_entries` only for the rows left, bitwise as for each row
    alone, and a batched Cholesky screen (:func:`linalg.screened_min_eig`)
    clears, row by row, those that cannot beat the running minimum; only
    the rest are eigensolved.  ``samples`` still counts every point.
    :func:`scan_design` scans a cached design to the same result, and
    clears whole blocks of it by floors kept with the design.
    """
    return _scan(delta, points)


def scan_design(delta: DeltaVector,
                plan: SamplePlan = DEFAULT_PLAN) -> SampleReport:
    """Sampled check that h(delta, y) is PSD over unit directions: the
    :func:`scan_h` result on ``all_samples(delta.dim, plan)``, bit for bit,
    as a report with a copy of the first worst row and ``plan.seed``.

    For each block of the scan the design keeps phi_k, the least of
    ``_row_bound(_FLOOR_COEFS, y)`` over its rows, and the least and
    largest |y|^2, s_lo and s_hi.  Where the row bound applies and a =
    3 delta_min/4 - 3/2 <= 3 (in the gap, unless two eigenvalues nearly
    tie), every row of the block has bound at least min(c s_lo, c s_hi) +
    a phi_k (proof in
    docs/formats.md), so where that exceeds the running minimum by half the
    tolerance the block is skipped unread.  Any other block is screened as
    :func:`scan_h` screens it.  The floors are computed by the first scan
    of a design that can use them, in one pass, and cached with it;
    :func:`all_samples` alone does not compute them.
    """
    points = all_samples(delta.dim, plan)
    res = _scan(delta, points, _design_key(delta.dim, plan))
    return SampleReport(worst_value=res.worst_value,
                        worst_point=np.array(points[res.worst_index]),
                        samples=res.samples, seed=plan.seed,
                        tolerance=res.tolerance, passed=not res.violation)

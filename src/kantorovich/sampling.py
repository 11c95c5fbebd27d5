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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .forms import DeltaVector, as_points, h_entries, pair_indices
from .linalg import PSD_EPS, FirstMin, screened_min_eig

__all__ = [
    "SamplePlan", "SampleReport", "DEFAULT_PLAN",
    "probe_directions", "all_samples",
    "h_scale_bound", "scan_h", "ScanResult",
]

# Rows per block of h entries after the probe block (see scan_h).
_BLOCK = 1 << 12
# Above this delta_max the row bound is skipped; at or below it, with
# |y|^2 <= 2, every quantity the bound forms, squares included, is finite.
_BOUND_DELTA_MAX = 1e150


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

    def scaled(self, factor: float) -> "SamplePlan":
        """Same plan with all design counts multiplied by ``factor``."""
        return replace(
            self,
            angles_2d=max(1, int(round(self.angles_2d * factor))),
            fibonacci_3d=max(1, int(round(self.fibonacci_3d * factor))),
            random_nd=max(1, int(round(self.random_nd * factor))),
        )


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


def _random_sphere(dim: int, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((count, dim))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v


def all_samples(dim: int, plan: SamplePlan) -> np.ndarray:
    """Probes first (so ties resolve toward them), then the sphere design:
    ``angles_2d`` equispaced angles in dim 2, a ``fibonacci_3d`` spiral in
    dim 3, ``random_nd`` unit vectors drawn from ``seed`` above, and the
    single point (1,) in dim 1.

    Cached on what the design reads, (dim, its count, and the seed at
    dim >= 4), and read-only: plans that agree on those share one array.
    """
    count = {2: plan.angles_2d, 3: plan.fibonacci_3d}.get(dim, plan.random_nd)
    return _samples(dim, count if dim > 1 else 1, plan.seed if dim > 3 else 0)


@lru_cache(maxsize=16)
def _samples(dim: int, count: int, seed: int) -> np.ndarray:
    if dim <= 1:
        out = np.ones((1, 1))
    else:
        if dim == 2:
            design = _angles_2d(count)
        elif dim == 3:
            design = _fibonacci_3d(count)
        else:
            design = _random_sphere(dim, count, seed)
        out = np.concatenate([probe_directions(dim), design], axis=0)
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


def _blocks(total: int, head: int):
    """(lo, hi) row ranges: the first ``head`` rows, then ``_BLOCK`` each."""
    lo = 0
    while lo < total:
        hi = min(total, head if lo < head else lo + _BLOCK)
        yield lo, hi
        lo = hi


def _bound_coefs(delta: DeltaVector,
                 margin: float) -> tuple[float, float, float] | None:
    """(c + a, 2a, b) for :func:`_row_bound`, with a = 3 delta_min/4 - 3/2,
    c = 3/2 - delta_max/4 and b = 3 + a - c; None where the bound is
    skipped: delta_max > ``_BOUND_DELTA_MAX``, or a <= ``margin``, where it
    cannot clear a unit row (L <= c + a there, and a scan's running minimum
    is at least c up to rounding).  A repeated eigenvalue makes a = 0."""
    if delta.dim < 2 or delta.values.max() > _BOUND_DELTA_MAX:
        return None
    a = 0.75 * float(delta.values.min()) - 1.5
    c = 1.5 - 0.25 * float(delta.values.max())
    return (c + a, 2.0 * a, 3.0 + a - c) if a > margin else None


def _row_bound(coefs: tuple[float, float, float],
               y: np.ndarray) -> np.ndarray:
    """Closed-form lower bound L(y) on lambda_min h(delta, y) for each row
    of ``y`` (m, dim); ``coefs`` from :func:`_bound_coefs`.

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
    repeated eigenvalue) or delta_max > 1e150.  h is built by :func:`forms.h_entries` only for the rows left,
    bitwise as for each row alone, and a batched Cholesky screen
    (:func:`linalg.screened_min_eig`) clears, row by row, those that cannot
    beat the running minimum; only the rest are eigensolved.  ``samples``
    still counts every point.
    """
    n = delta.dim
    pts = as_points(delta, points)
    total = pts.shape[0]
    # The tolerance also sets the screens' margins: max(1, h_scale_bound)
    # bounds every |entry| of h at a unit point (see screened_min_eig).
    tol = PSD_EPS * max(1.0, h_scale_bound(delta))
    dm = delta.as_matrix()
    coefs = _bound_coefs(delta, 0.5 * tol)
    worst = FirstMin()
    for lo, hi in _blocks(total, n * (n - 1)):
        rows = pts[lo:hi]
        keep = slice(None)
        if coefs is not None and lo:
            keep = ~(_row_bound(coefs, rows) > worst.value + 0.5 * tol)
            rows = rows[keep]
        lam = np.full(hi - lo, math.inf)
        if rows.shape[0]:
            lam[keep] = screened_min_eig(h_entries(dm, rows), worst.value, tol)
        worst.update(lo, lam)
    return ScanResult(worst_value=worst.value, worst_index=worst.index,
                      tolerance=tol, samples=total,
                      violation=not worst.value >= -tol)

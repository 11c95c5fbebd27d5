"""Unit-sphere sample plans and chunked scanners for the conjugated form.

The semi-infinite constraint "h(delta, y) PSD for all y" is probed on finite
designs: paired coordinate probes (e_i +- e_j)/sqrt(2) are always included,
then a deterministic design per dimension (equispaced angles in dim 2, a
Fibonacci spiral in dim 3, seeded random unit vectors above).  h is even and
degree-2 homogeneous in y, so unit vectors lose nothing.

:func:`scan_h` takes the minimum by value with first-index tie-break, so
results are deterministic for a fixed seed.  It computes the diagonal of h
per fixed-size chunk and the entries per block of rows, never an (N, n, n)
stack, so its memory does not grow with the sample count.  The scan is
exact, but a batched Cholesky screen clears the directions that cannot
beat the running minimum and the eigensolver runs only on the rest; the
reported sample count still counts every direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .forms import (DeltaVector, as_points, h_diagonal, h_entries,
                    pair_indices)
from .linalg import PSD_EPS, screened_min_eig

__all__ = [
    "SamplePlan", "SampleReport", "DEFAULT_PLAN",
    "probe_directions", "sphere_design", "all_samples",
    "h_scale_bound", "scan_h", "ScanResult",
]

_CHUNK = 1 << 18
# Rows per block of h entries after the probe block (see scan_h).
_BLOCK = 1 << 12


@dataclass(frozen=True)
class SamplePlan:
    """Falsification budget: how many directions to test per dimension."""

    seed: int = 42
    angles_2d: int = 4096
    fibonacci_3d: int = 100_000
    random_nd: int = 200_000
    refine_rounds: int = 50

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


@lru_cache(maxsize=16)
def _angles_2d(count: int) -> np.ndarray:
    theta = np.pi * np.arange(count) / count
    out = np.column_stack([np.cos(theta), np.sin(theta)])
    out.setflags(write=False)
    return out


@lru_cache(maxsize=16)
def _fibonacci_3d(count: int) -> np.ndarray:
    # Golden-angle spiral: near-uniform, fully deterministic.
    i = np.arange(count)
    z = 1.0 - 2.0 * (i + 0.5) / count
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    golden = math.pi * (3.0 - math.sqrt(5.0))
    phi = golden * i
    out = np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    out.setflags(write=False)
    return out


@lru_cache(maxsize=16)
def _random_sphere(dim: int, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((count, dim))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    v.setflags(write=False)
    return v


def sphere_design(dim: int, plan: SamplePlan) -> np.ndarray:
    """The deterministic-per-seed direction design for ``dim``."""
    if dim <= 1:
        return np.ones((1, 1))
    if dim == 2:
        return _angles_2d(plan.angles_2d)
    if dim == 3:
        return _fibonacci_3d(plan.fibonacci_3d)
    return _random_sphere(dim, plan.random_nd, plan.seed)


def all_samples(dim: int, plan: SamplePlan) -> np.ndarray:
    """Probes first (so ties resolve toward them), then the sphere design."""
    design = sphere_design(dim, plan)
    if dim <= 1:
        return design
    return np.concatenate([probe_directions(dim), design], axis=0)


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
    """(lo, hi) row ranges of a scan: the first ``head`` rows, then
    ``_BLOCK`` rows each, cut at every multiple of ``_CHUNK``."""
    lo = 0
    while lo < total:
        hi = min(total, head if lo < head else lo + _BLOCK,
                 (lo // _CHUNK + 1) * _CHUNK)
        yield lo, hi
        lo = hi


def scan_h(delta: DeltaVector, points: np.ndarray,
           eps: float = PSD_EPS) -> ScanResult:
    """Minimum eigenvalue of h(delta, y) over a stack of unit points.

    The result is exact: the worst value, its first index and the violation
    flag (worst < -tolerance) are those of evaluating every point.  The
    diagonal of h is one BLAS product per ``_CHUNK`` rows; the entries are
    built per block, the first block being the ``dim*(dim-1)`` probe rows
    that :func:`all_samples` puts first.  A batched Cholesky screen
    (:func:`linalg.screened_min_eig`) clears, row by row, the directions
    that cannot beat the running minimum, and only the rest are
    eigensolved; ``samples`` still counts every point.
    """
    n = delta.dim
    pts = as_points(delta, points)
    total = pts.shape[0]
    scale = max(1.0, h_scale_bound(delta))
    tol = eps * scale
    # scale bounds every |entry| of h at a unit point (see screened_min_eig);
    # the margin is not the caller's eps, which may be <= 0.
    margin = PSD_EPS * scale
    dm = delta.as_matrix()
    worst = math.inf
    worst_idx = -1
    for lo, hi in _blocks(total, n * (n - 1)):
        if lo % _CHUNK == 0:
            base = lo
            chunk = pts[lo:lo + _CHUNK]
            diag = h_diagonal(dm, chunk)
        h = h_entries(dm, chunk[lo - base:hi - base],
                      diag[lo - base:hi - base])
        rows, lam = screened_min_eig(h, worst, margin)
        if rows.size == 0:
            continue
        k = int(np.argmin(lam))
        if lam[k] < worst:
            worst = float(lam[k])
            worst_idx = lo + int(rows[k])
    return ScanResult(worst_value=worst, worst_index=worst_idx,
                      tolerance=tol, samples=total,
                      violation=worst < -tol)

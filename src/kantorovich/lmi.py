"""Numerical verification of the certified inequalities and robust PSD claims.

Two layers (the sampled check of h(delta, y) PSD itself is
:func:`sampling.scan_design`):

* exhaustive grid checks of the five scalar box inequalities on
  [2, 4]^3 that drive the 3-dim sufficiency proof
  (:func:`box_inequality_grid_check`);
* robust PSD grids for the normalized forms m/p/q on
  omega in [2, 4]^3 x (alpha, beta) in [-1, 1]^2, plus the convexity-in-alpha
  facts about det m, evaluated from its closed-form alpha-coefficients
  (:func:`robust_psd_grid`, :func:`robust_psd_grids`,
  :func:`detm_alpha_convexity_check`).  p and q are m with omega permuted,
  and lambda_min of m is even in alpha and in beta, so all three are
  scanned as m (:func:`linalg.screened_min_eig`), on the nodes <= 0 of
  each symmetric (alpha, beta) axis.

Grid scans use one absolute tolerance (values >= -GRID_TOL pass); every
check reports its worst cell so a failure is immediately reproducible, and a
NaN cell is the worst cell and fails its check.  Every scan walks its grid with
one block iterator, :func:`_blocks`: a block is a C-order run of about
``_BLOCK`` cells whose coordinates are node arrays that broadcast against
one another, so no grid (of omega or of any other axis) is ever built cell
by cell, and memory does not grow with the grid.

The robust and detm scans evaluate the 8 corners of the omega box first,
then skip the cells whose floor, a value at or below every value of the
cell as computed, reaches a value the grid attains (:func:`_unscreened`):
an omega cell by the concavity of lambda_min m in omega, from its minima
at the corners (:func:`_concave_floors`); for a detm row, an omega cell
by the signs of the det m coefficients' terms over the beta axis, and an
(omega, beta) cell by its own coefficients (:func:`_coef_floors`,
:func:`_detm_floors`).  Each report is still that of evaluating every
cell (docs/proofs.md#concavity-floor, docs/proofs.md#detm-floors,
docs/proofs.md#symmetries-of-m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .forms import (BOUND_DELTA_MAX, det_m_alpha_coefs, det_m_t_polys,
                    m_entries)
from .linalg import PSD_EPS, FirstMin, screened_min_eig

__all__ = [
    "GRID_TOL", "MAX_NODES", "Axis", "GridSpec", "GridScanReport",
    "GridCheckSummary", "box_inequalities", "BoxValues",
    "box_inequality_grid_check", "robust_psd_grid", "robust_psd_grids",
    "detm_alpha_poly", "detm_alpha_convexity_check",
    "BOX_GRID_DEFAULT", "OMEGA_GRID_DEFAULT", "AB_GRID_DEFAULT",
    "BETA_GRID_DEFAULT",
]

# Absolute pass tolerance for grid-evaluated inequality values.
GRID_TOL = 1e-9

# Grid cells evaluated per block of a scan, so that memory stays the same
# whatever the grid size: a box temporary, one entry of m, a detm
# coefficient or floor, or a chunk of detm row values (a cell counts once
# per alpha node there) is at most 32 KB, and the robust scan's packed
# (3, 3, cells) stack 288 KB.  The robust and detm scans walk the omega
# cells in blocks of this many.
_BLOCK = 1 << 12
# No axis has more nodes than one block holds cells.  A separate name,
# so that tests may shrink _BLOCK without shrinking the axes.
MAX_NODES = _BLOCK
# The detm floors' rounding margin is _ROUND times a bound on the sum of
# the absolute values of their terms (32 unit roundoffs), plus _TINY for
# underflow; both floors apply only where that sum, and the robust scan's
# entry bound, is at most BOUND_DELTA_MAX, so nothing they compare can
# overflow (docs/proofs.md#detm-floors).
_ROUND = 2.0 ** -48
_TINY = 2.0 ** -1000


@dataclass(frozen=True)
class Axis:
    lo: float
    hi: float
    count: int

    def __post_init__(self):
        if not math.isfinite(self.hi - self.lo):
            raise ValueError(
                "axis bounds and their span hi - lo must be finite")
        if not 1 <= self.count <= MAX_NODES:
            raise ValueError(f"axis count must be in 1..{MAX_NODES}")
        if self.lo > self.hi:
            raise ValueError("axis range must be ordered lo <= hi")
        if self.count == 1 and self.lo != self.hi:
            raise ValueError("single-node axis requires lo == hi")

    def nodes(self) -> np.ndarray:
        if self.count == 1:
            return np.array([self.lo])
        return np.linspace(self.lo, self.hi, self.count)


@dataclass(frozen=True)
class GridSpec:
    axes: tuple[Axis, ...]

    def __post_init__(self):
        object.__setattr__(self, "axes", tuple(self.axes))
        if not self.axes:
            raise ValueError("grid needs at least one axis")

    @classmethod
    def cube(cls, lo: float, hi: float, count: int, ndim: int) -> "GridSpec":
        return cls(tuple(Axis(lo, hi, count) for _ in range(ndim)))

    @property
    def ndim(self) -> int:
        return len(self.axes)

    @property
    def cells(self) -> int:
        out = 1
        for ax in self.axes:
            out *= ax.count
        return out

    def node_arrays(self) -> tuple[np.ndarray, ...]:
        return tuple(ax.nodes() for ax in self.axes)


@dataclass(frozen=True)
class GridScanReport:
    """Worst cell of one scanned inequality."""

    grid_id: str
    passed: bool
    tolerance: float
    worst_value: float
    worst_cell: tuple[float, ...]
    cells: int


@dataclass(frozen=True)
class GridCheckSummary:
    """A bundle of grid scans that pass or fail together."""

    passed: bool
    reports: tuple[GridScanReport, ...]


BOX_GRID_DEFAULT = GridSpec.cube(2.0, 4.0, 41, 3)
OMEGA_GRID_DEFAULT = GridSpec.cube(2.0, 4.0, 21, 3)
AB_GRID_DEFAULT = GridSpec.cube(-1.0, 1.0, 41, 2)
BETA_GRID_DEFAULT = GridSpec.cube(-1.0, 1.0, 41, 1)


class BoxValues(NamedTuple):
    chi1: np.ndarray
    chi2: np.ndarray
    chi3: np.ndarray
    chi4: np.ndarray
    psi: np.ndarray


def box_inequalities(d1, d2, d3) -> BoxValues:
    """The five scalar functions certified nonnegative on [2, 4]^3.

    chi1 = 6 d3 + d1 d2 - (1/2) d3 d2^2
    chi2 = 6 d1 + d3 d2 - (1/2) d1 d2^2
    chi3 = 6 d2 + d1 d3 - (1/2) d2 d1^2
    chi4 = 6 d3 + d1 d2 - (1/2) d3 d1^2
    psi  = 12 + d1 d2 d3 - d1^2 - d2^2 - d3^2

    Each is concave in every variable separately, so box minima sit at
    corners; psi bottoms out at 4 on permutations of (2, 2, 4).
    """
    d1 = np.asarray(d1, dtype=float)
    d2 = np.asarray(d2, dtype=float)
    d3 = np.asarray(d3, dtype=float)
    return BoxValues(
        chi1=6.0 * d3 + d1 * d2 - 0.5 * d3 * d2 ** 2,
        chi2=6.0 * d1 + d3 * d2 - 0.5 * d1 * d2 ** 2,
        chi3=6.0 * d2 + d1 * d3 - 0.5 * d2 * d1 ** 2,
        chi4=6.0 * d3 + d1 * d2 - 0.5 * d3 * d1 ** 2,
        psi=12.0 + d1 * d2 * d3 - d1 ** 2 - d2 ** 2 - d3 ** 2,
    )


def _blocks(nodes: tuple[np.ndarray, ...], size: int):
    """Yield (start, coords) for C-order-contiguous runs of at most ``size``
    cells of the product grid of ``nodes``.

    In a block the leading axes are fixed, one split axis covers a range of
    nodes and every later axis is whole.  ``coords`` are the nodes of each
    axis shaped to broadcast against one another (a scalar for a fixed
    axis), so the block's cells are never copied out per coordinate.
    """
    shape = tuple(len(n) for n in nodes)
    s = next(j for j in range(len(shape)) if math.prod(shape[j + 1:]) <= size)
    tail = math.prod(shape[s + 1:])
    step = max(1, size // tail)
    cols = tuple(n.reshape((-1,) + (1,) * (len(shape) - j - 1))
                 for j, n in enumerate(nodes))
    start = 0
    for lead in np.ndindex(*shape[:s]):
        fixed = tuple(n[i] for n, i in zip(nodes, lead))
        for a in range(0, shape[s], step):
            split = cols[s][a:a + step]
            yield start, fixed + (split,) + cols[s + 1:]
            start += len(split) * tail


def _unscreened(lo: np.ndarray, worst: float) -> np.ndarray:
    """Indices of the cells whose floor ``lo`` does not reach ``worst``: all
    but those with lo >= worst, so a NaN floor keeps its cell.  A floor lies
    at or below every value of its cell as computed, none of which is NaN,
    and ``worst`` is attained by an earlier cell or lies strictly above the
    floor: a skipped cell cannot hold the first strict minimum."""
    return np.flatnonzero(~(lo >= worst))


def _report(grid_id: str, worst: FirstMin, nodes: tuple[np.ndarray, ...],
            cells: int) -> GridScanReport:
    """The row of a scan that fed ``worst`` the C-order cells of ``nodes``;
    its flat index becomes a cell here, and it passes at >= -GRID_TOL."""
    idx = np.unravel_index(worst.index, tuple(len(n) for n in nodes))
    return GridScanReport(grid_id=grid_id, passed=worst.value >= -GRID_TOL,
                          tolerance=GRID_TOL, worst_value=worst.value,
                          worst_cell=tuple(float(n[i])
                                           for n, i in zip(nodes, idx)),
                          cells=cells)


# Huge grid nodes overflow to inf and their differences to NaN; those cells
# fail their rows, so numpy's floating-point warnings are silenced.
@np.errstate(over="ignore", invalid="ignore")
def box_inequality_grid_check(
        grid: GridSpec = BOX_GRID_DEFAULT) -> GridCheckSummary:
    """Evaluate the five box inequalities at every grid node; each row
    passes when its worst value is >= -GRID_TOL."""
    if grid.ndim != 3:
        raise ValueError("box grid must have 3 axes")
    nodes = grid.node_arrays()
    worst = [FirstMin() for _ in BoxValues._fields]
    for start, coords in _blocks(nodes, _BLOCK):
        for w, v in zip(worst, box_inequalities(*coords)):
            w.update(start, v)
    reports = tuple(_report(f"box_{name}", w, nodes, grid.cells)
                    for name, w in zip(BoxValues._fields, worst))
    return GridCheckSummary(passed=all(r.passed for r in reports),
                            reports=reports)


# Omega-axis order under which each form is m: p(w, a, b) and q(w, a, b) are
# m((w1, w3, w2), a, b) and m((w2, w3, w1), a, b) conjugated by a coordinate
# permutation, so they share its eigenvalues.
_FORM_AXES = {"M": (0, 1, 2), "P": (0, 2, 1), "Q": (1, 2, 0)}
# Where m_entries' (e11, e22, e33, e12, e13, e23) sit in m.
_M_INDEX = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))


def _check_robust_grids(omega_grid: GridSpec, ab_grid: GridSpec) -> None:
    if omega_grid.ndim != 3 or ab_grid.ndim != 2:
        raise ValueError("omega grid needs 3 axes and ab grid needs 2")


def _relabel(m_report: GridScanReport, form: str) -> GridScanReport:
    """An m scan over the permuted omega axes, as the row of ``form``."""
    perm = _FORM_AXES[form]
    u = m_report.worst_cell
    w = tuple(u[perm.index(i)] for i in range(3))
    return replace(m_report, grid_id=f"robust_{form}", worst_cell=w + u[3:])


def _folded(ax: Axis) -> np.ndarray:
    """The nodes of an (alpha, beta) axis that a robust scan visits: those at
    or below the midpoint if the axis is symmetric about 0, else all."""
    nodes = ax.nodes()
    return nodes[:(ax.count + 1) // 2] if ax.lo == -ax.hi else nodes


def _min_eigs(w: np.ndarray, al, be, buf: np.ndarray, worst: float,
              margin: float) -> np.ndarray:
    """lambda_min m, (cells, nodes), at the omega rows ``w`` (cells, 3) x the
    (alpha, beta) nodes ``al`` x ``be``: packed into the reused stack ``buf``
    and screened against ``worst`` (:func:`linalg.screened_min_eig`)."""
    pshape = np.broadcast_shapes(np.shape(al), np.shape(be))
    entries = m_entries(w.reshape(-1, *[1] * len(pshape), 3), al, be)
    stack = buf[:, :, :len(w) * math.prod(pshape)]
    packed = stack.reshape((3, 3, len(w)) + pshape)
    for (i, j), e in zip(_M_INDEX, entries):
        packed[i, j] = packed[j, i] = e
    return screened_min_eig(stack, worst, margin).reshape(len(w), -1)


def _corners(omega: tuple[np.ndarray, ...]) -> tuple[np.ndarray, list]:
    """The corners of the box of the omega nodes, (k, 3), in C order, and
    the shape of their grid: an axis whose ends coincide is taken once."""
    ends = [n[:1] if n[0] == n[-1] else n[[0, -1]] for n in omega]
    return (np.stack(np.meshgrid(*ends, indexing="ij"), axis=-1)
            .reshape(-1, 3), [len(e) for e in ends])


def _corner_minima(omega: tuple[np.ndarray, ...], runs: list,
                   buf: np.ndarray, per_run: int) -> np.ndarray:
    """mu, (2, 2, 2): at each corner of the box of the omega nodes, the
    least lambda_min m over the (alpha, beta) nodes of ``runs``, as the scan
    computes it."""
    rows, shape = _corners(omega)
    mu = np.full(len(rows), math.inf)
    for k in range(0, len(rows), per_run):
        for _, (al, be) in runs:
            lam = _min_eigs(rows[k:k + per_run], al, be, buf, math.inf, 0.0)
            mu[k:k + per_run] = np.minimum(mu[k:k + per_run], lam.min(axis=1))
    return np.broadcast_to(mu.reshape(shape), (2, 2, 2))


def _concave_floors(w: np.ndarray, omega: tuple[np.ndarray, ...],
                    mu: np.ndarray, margin: float) -> np.ndarray:
    """G = sum_k t_k mu_k - ``margin`` for each omega cell, a row of ``w``
    (cells, 3), t_k its trilinear weights in the box of the omega nodes and
    mu from :func:`_corner_minima` (docs/proofs.md#concavity-floor)."""
    lo, hi = (np.array([n[i] for n in omega]) for i in (0, -1))
    # an axis with hi == lo has every node at lo: its t is 0
    t = (w - lo) / np.where(hi > lo, hi - lo, 1.0)
    t1, t2, t3 = np.stack([1.0 - t, t], axis=-1).transpose(1, 0, 2)
    return np.einsum("ia,ib,ic,abc->i", t1, t2, t3, mu) - margin


@np.errstate(over="ignore", invalid="ignore")
def robust_psd_grid(form: str, omega_grid: GridSpec = OMEGA_GRID_DEFAULT,
                    ab_grid: GridSpec = AB_GRID_DEFAULT) -> GridScanReport:
    """Minimum eigenvalue of one normalized form over the full grid; the
    row passes when it is >= -GRID_TOL.

    Every form is scanned as m over its permuted omega axes.  The planes
    of the omega box's corners are eigensolved first
    (:func:`_corner_minima`).  Then the omega cells are walked in blocks of
    ``_BLOCK``; an omega cell whose floor (:func:`_concave_floors`) reaches
    the running minimum or the least corner minimum is skipped whole, and
    the rest are packed in C order, with their (alpha, beta) nodes, into
    runs of at most ``_BLOCK`` cells.  Each run's m goes into one reused
    (3, 3, cells) stack for :func:`linalg.screened_min_eig`, so the report
    is exactly that of eigensolving every cell (NaN where an entry is not
    finite).  The worst cell is in the form's own coordinates.

    lambda_min of m is even in alpha and in beta (conjugation by
    diag(1, -1, 1) or diag(1, 1, -1) flips their signs), bit for bit in
    LAPACK's eigvalsh, so an axis with lo == -hi is scanned on its nodes at
    or below the midpoint.  A linspace node may miss its mirror in the last
    bit; the reported cell can then move to one that ties within roundoff.
    ``cells`` counts the full grid.
    """
    key = form.upper()
    if key not in _FORM_AXES:
        raise ValueError(f"form must be one of M, P, Q, got {form!r}")
    _check_robust_grids(omega_grid, ab_grid)
    omega = tuple(omega_grid.axes[k].nodes() for k in _FORM_AXES[key])
    plane = tuple(_folded(ax) for ax in ab_grid.axes)
    # Term by term, every |entry of m| <= (3 + W) s^2 with W = max|omega|
    # and s = max(1, |alpha|, |beta|) over the nodes.  An overflowing grid
    # makes the margin inf or NaN, and then the screen clears nothing.  The
    # floor applies only where that bound is at most BOUND_DELTA_MAX.
    big = np.max([np.abs(n).max() for n in omega])
    s = np.max([1.0] + [np.abs(n).max() for n in plane])
    bound = float((3.0 + big) * s * s)
    margin = PSD_EPS * bound
    per_plane = math.prod(map(len, plane))
    # a run is per_run omega cells times one block of (alpha, beta) nodes
    per_run = max(1, _BLOCK // per_plane)
    runs = list(_blocks(plane, _BLOCK))
    worst = FirstMin()
    # one packing stack for every run, so no run maps fresh pages for its own
    buf = np.empty((3, 3, min(_BLOCK, omega_grid.cells * per_plane)))
    mu = (_corner_minima(omega, runs, buf, per_run)
          if bound <= BOUND_DELTA_MAX else np.full((2, 2, 2), math.nan))
    for first, ws in _blocks(omega, _BLOCK):
        w = np.stack(np.broadcast_arrays(*ws), axis=-1).reshape(-1, 3)
        lo = _concave_floors(w, omega, mu, margin)
        todo = np.arange(len(w))
        while todo.size:
            # screen what is left against the latest minimum, or the least
            # corner minimum (a value of the grid, or NaN)
            todo = todo[_unscreened(lo[todo], min(worst.value, mu.min()))]
            if not todo.size:
                break
            batch, todo = todo[:per_run], todo[per_run:]
            for p_first, (al, be) in runs:
                lam = _min_eigs(w[batch], al, be, buf, worst.value, margin)
                # the run's first minimum, at its flat index in the grid
                k, cols = int(np.argmin(lam)), lam.shape[1]
                worst.update((first + batch[k // cols]) * per_plane
                             + p_first + k % cols, lam.reshape(-1)[k:k + 1])
    cells = omega_grid.cells * ab_grid.cells
    return _relabel(_report("robust_M", worst, omega + plane, cells), key)


def robust_psd_grids(omega_grid: GridSpec = OMEGA_GRID_DEFAULT,
                     ab_grid: GridSpec = AB_GRID_DEFAULT
                     ) -> tuple[GridScanReport, ...]:
    """The robust_M, robust_P and robust_Q rows, in that order.

    One m scan per distinct permuted omega-axis order: one on a cube grid,
    up to three otherwise.
    """
    _check_robust_grids(omega_grid, ab_grid)
    scans: dict[tuple[Axis, ...], GridScanReport] = {}
    rows = []
    for form, perm in _FORM_AXES.items():
        axes = tuple(omega_grid.axes[k] for k in perm)
        if axes not in scans:
            scans[axes] = robust_psd_grid("M", GridSpec(axes), ab_grid)
        rows.append(_relabel(scans[axes], form))
    return tuple(rows)


def detm_alpha_poly(omega, beta: float) -> np.ndarray:
    """Coefficients (ascending) of alpha -> det m_form(omega, alpha, beta).

    The closed form of :func:`forms.det_m_alpha_coefs` in the degree-6
    layout; the odd coefficients are exactly 0 (det m is even in alpha).
    """
    coefs = np.broadcast_arrays(*det_m_alpha_coefs(omega, float(beta)))
    out = np.zeros((7,) + coefs[0].shape)
    out[0::2] = coefs
    return out


# The detm rows at (omega, beta) cells, from coefficient columns c0, c2, c4,
# c6 (cells, 1) and the alpha nodes' a2 = a^2 and a4 = a2^2; detm_alpha0
# has no alpha axis.
_DETM_ROWS = {
    "detm_d2": lambda c0, c2, c4, c6, a2, a4: (
        2.0 * c2 + 12.0 * c4 * a2 + 30.0 * c6 * a4),
    "detm_d4": lambda c0, c2, c4, c6, a2, a4: 24.0 * c4 + 360.0 * c6 * a2,
    "detm_min_at_zero": lambda c0, c2, c4, c6, a2, a4: (
        a2 * (c2 + c4 * a2 + c6 * a4)),
    "detm_alpha0": lambda c0, c2, c4, c6, a2, a4: c0,
}


def _margin(size, tiny=_TINY):
    """_ROUND size + tiny, or NaN where size exceeds BOUND_DELTA_MAX."""
    return np.where(size <= BOUND_DELTA_MAX, _ROUND * size + tiny, math.nan)


def _coef_floors(w: np.ndarray, t0, t1) -> tuple[np.ndarray, ...]:
    """(c0, c2, c4, c6, big) per omega row of ``w`` (..., 3): floors of c0,
    c2 and c4 as :func:`forms.det_m_alpha_coefs` computes them at every
    beta node whose computed t = beta^2 lies in [t0, t1], 0 <= t0 <= t1
    (broadcast against w[..., 0]), c6 itself, and ``big`` >= 2|c2| +
    24|c4| + 360|c6| there.  A term k t^p is at least min(k t0^p, k t1^p);
    c0 is the product of its factors' floors where both are >= 0, else
    -inf.  A floor is NaN out of range (docs/proofs.md#detm-floors)."""
    q, a, b, c, d, e, c6 = det_m_t_polys(w)
    w1, w2, w3 = np.moveaxis(w, -1, 0)
    tt0, tt1, s, h = t0 * t0, t1 * t1, np.maximum(1.0, t1), 0.5 * w2

    def low(k, p0, p1):
        return np.minimum(k * p0, k * p1)

    s2 = 0.375 * (np.abs(a) * (s * s) + 6.0 * np.abs(b) * s
                  + sum(map(np.abs, c)))
    s4 = 0.375 * (np.abs(d) * s + sum(map(np.abs, e)))
    c2 = (-0.375 * (c[0] + c[1] + c[2]) + low(-2.25 * b, t0, t1)
          + low(-0.375 * a, tt0, tt1) - _margin(s2))
    c4 = (-0.375 * (e[0] + e[1] + e[2]) + low(-0.375 * d, t0, t1)
          - _margin(s4))
    f1, f2 = w1 + low(w3, t0, t1), h + low(q, t0, t1) + low(h, tt0, tt1)
    u1, u2 = np.abs(w1) + np.abs(w3) * s, (np.abs(h) * (1.0 + s * s)
                                           + np.abs(q) * s)
    c0 = (np.where((f1 >= 0.0) & (f2 >= 0.0), 1.5 * f1 * f2, -math.inf)
          - _margin(1.5 * u1 * u2, _TINY * (1.0 + u1 + u2)))
    return c0, c2, c4, c6, 2.0 * s2 + 24.0 * s4 + 360.0 * np.abs(c6)


def _detm_floors(c0, c2, c4, c6, big) -> tuple[np.ndarray, ...]:
    """One floor per ``_DETM_ROWS`` row, at or below its value at every
    alpha node of the cells whose coefficients, as computed, are at least
    c0, c2, c4 (c6 exact) with 2|c2| + 24|c4| + 360|c6| at most ``big``:
    g2 = 2 c2 + 12 min(c4, 0) + 30 min(c6, 0), g4 = 24 c4 + 360 min(c6, 0),
    min(0, g0), g0 = c2 + min(c4, 0) + min(c6, 0), each less the margin of
    big, and c0 (docs/proofs.md#detm-floors)."""
    n4, n6 = np.minimum(c4, 0.0), np.minimum(c6, 0.0)
    margin = _margin(big)
    return (2.0 * c2 + 12.0 * n4 + 30.0 * n6 - margin,
            24.0 * c4 + 360.0 * n6 - margin,
            np.minimum(0.0, c2 + n4 + n6 - margin), c0)


def _detm_cells(w: np.ndarray, first: int, span, above: dict, betas, a2, a4,
                trackers: dict) -> None:
    """Feed ``trackers`` the detm rows at the omega rows ``w`` (n, 3), of
    flat omega indices ``first`` on, at every beta and alpha node.  A row
    skips the cells whose floor reaches its gate, min(running minimum,
    ``above[row]``): an omega cell by its floor over the t interval
    ``span``, an (omega, beta) cell by the larger of that and its own.  The
    kept omega cells go in C order, in batches of ``_BLOCK`` (omega, beta)
    cells after a first batch of one omega cell, which sets a running
    minimum before the rest are screened."""
    nb = len(betas)
    lo = _detm_floors(*_coef_floors(w, *span))
    todo, size = np.arange(len(w)), 1
    while todo.size:
        # min(): a NaN running minimum stays NaN, a NaN ``above`` is ignored
        gate = [min(trackers[name].value, above[name]) for name in trackers]
        keep = np.zeros(len(w), dtype=bool)
        for rl, g in zip(lo, gate):
            keep[todo[_unscreened(rl[todo], g)]] = True
        todo = np.flatnonzero(keep)
        batch, todo = todo[:size], todo[size:]
        size = max(1, _BLOCK // nb)
        c = [x.reshape(-1) for x in np.broadcast_arrays(
            *det_m_alpha_coefs(w[batch, None, :], betas))]
        big = 2.0 * np.abs(c[1]) + 24.0 * np.abs(c[2]) + 360.0 * np.abs(c[3])
        cells = ((first + batch[:, None]) * nb + np.arange(nb)).reshape(-1)
        # a row's gate moves only while that row is evaluated
        for (name, row), rl, cl, g in zip(_DETM_ROWS.items(), lo,
                                          _detm_floors(*c, big), gate):
            worst = trackers[name]
            kept = _unscreened(np.fmax(np.repeat(rl[batch], nb), cl), g)
            cols = 1 if name == "detm_alpha0" else a2.size
            chunk = max(1, _BLOCK // cols)
            for k in range(0, kept.size, chunk):
                idx = kept[k:k + chunk]
                v = row(*(x[idx, None] for x in c), a2, a4)
                # the chunk's first minimum, at its flat index in the grid
                j = int(np.argmin(v))
                worst.update(cells[idx[j // cols]] * cols + j % cols,
                             v.reshape(-1)[j:j + 1])


@np.errstate(over="ignore", invalid="ignore")
def detm_alpha_convexity_check(omega_grid: GridSpec = OMEGA_GRID_DEFAULT,
                               beta_grid: GridSpec = BETA_GRID_DEFAULT,
                               alpha_count: int = 41) -> GridCheckSummary:
    """Certify the alpha-behavior of det m over an (omega, beta) grid.

    With det m = c0 + c2 a^2 + c4 a^4 + c6 a^6 (closed-form coefficients,
    :func:`forms.det_m_alpha_coefs`), at every (omega, beta) cell and alpha
    node a the rows are

    detm_d2          = 2 c2 + 12 c4 a^2 + 30 c6 a^4   (d^2/da^2 det m)
    detm_d4          = 24 c4 + 360 c6 a^2             (d^4/da^4 det m)
    detm_min_at_zero = a^2 (c2 + c4 a^2 + c6 a^4)     (det m - det m at 0)

    and detm_alpha0 = c0 per (omega, beta) cell; each must be >= -GRID_TOL.
    Worst cells are (w1, w2, w3, beta[, alpha]).  The (beta, alpha) planes
    of the omega box's corners are evaluated first, for each row's least
    corner value mu.  Then the omega cells are walked in blocks of
    ``_BLOCK`` (:func:`_detm_cells`): a row skips an omega cell whose floor
    over the beta axis reaches its running minimum or lies strictly above
    mu (a floor can equal a value), and the rest are screened per (omega,
    beta) cell and evaluated in chunks, so no temporary exceeds 32 KB
    whatever the grids.  The report is that of evaluating every cell.
    """
    if omega_grid.ndim != 3 or beta_grid.ndim != 1:
        raise ValueError("omega grid needs 3 axes and beta grid 1")
    alpha_nodes = Axis(-1.0, 1.0, alpha_count).nodes()
    a2 = alpha_nodes ** 2
    a4 = a2 * a2
    omega = omega_grid.node_arrays()
    betas = beta_grid.axes[0].nodes()
    span = tuple(np.sort(betas ** 2)[[0, -1]])
    mins = {name: FirstMin() for name in _DETM_ROWS}
    _detm_cells(_corners(omega)[0], 0, span, dict.fromkeys(mins, math.inf),
                betas, a2, a4, mins)
    # nextafter: a floor skips at >= the float above mu, that is, > mu
    above = {name: float(np.nextafter(m.value, math.inf))
             for name, m in mins.items()}
    trackers = {name: FirstMin() for name in _DETM_ROWS}
    for first, ws in _blocks(omega, _BLOCK):
        w = np.stack(np.broadcast_arrays(*ws), axis=-1).reshape(-1, 3)
        _detm_cells(w, first, span, above, betas, a2, a4, trackers)
    nodes = omega + (betas,)
    cells = omega_grid.cells * beta_grid.cells
    reports = tuple(_report(name, w, nodes if name == "detm_alpha0"
                            else nodes + (alpha_nodes,), cells)
                    for name, w in trackers.items())
    return GridCheckSummary(passed=all(r.passed for r in reports),
                            reports=reports)

"""Numerical verification of the certified inequalities and robust PSD claims.

Three grid checks (h(delta, y) PSD itself is :func:`sampling.scan_design`):
the five box inequalities of the 3-dim sufficiency proof on [2, 4]^3
(:func:`box_inequality_grid_check`), the robust PSD of m/p/q on omega in
[2, 4]^3 x (alpha, beta) in [-1, 1]^2, all scanned as m
(:func:`robust_psd_grids`, docs/proofs.md#symmetries-of-m), and det m's
convexity in alpha (:func:`detm_alpha_convexity_check`).  Values >=
-GRID_TOL pass; each row reports its first worst cell, a NaN cell first.
Each check is one floored scan (:func:`_floored_scan`) over C-order blocks
of node arrays (:func:`_blocks`), in memory that does not grow with the
grid: a row skips an outer cell whose floor reaches its running minimum or
lies above its least corner value, by the box rows' vertex minima
(docs/proofs.md#box-floor), the concavity of lambda_min m in omega
(docs/proofs.md#concavity-floor) or the det m coefficients' terms in t
(docs/proofs.md#detm-floors), with the report of evaluating every cell.
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

# Grid cells evaluated per block of a scan: a box temporary, an entry of m,
# a detm coefficient, floor or chunk of row values (a cell counts once per
# alpha node there) is at most 32 KB, the robust scan's (3, 3, cells) stack
# 288 KB, whatever the grid size.
_BLOCK = 1 << 12
# No axis has more nodes than one block holds cells.  A separate name,
# so that tests may shrink _BLOCK without shrinking the axes.
MAX_NODES = _BLOCK
# The box and detm floors' margin is _ROUND (32 unit roundoffs) times a
# bound on the sum of their terms' absolute values, plus _TINY for
# underflow; a floor applies only where that bound, or the robust entry
# bound, is at most BOUND_DELTA_MAX, so nothing overflows.
_ROUND = 2.0 ** -48
_TINY = 2.0 ** -1000
# The robust corner pass seeds each corner from every _SEED-th node per axis.
_SEED = 5


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
    """The five scalar functions certified nonnegative on [2, 4]^3:

    chi1 = 6 d3 + d1 d2 - (1/2) d3 d2^2     chi2 = 6 d1 + d3 d2 - (1/2) d1 d2^2
    chi3 = 6 d2 + d1 d3 - (1/2) d2 d1^2     chi4 = 6 d3 + d1 d2 - (1/2) d3 d1^2
    psi  = 12 + d1 d2 d3 - d1^2 - d2^2 - d3^2

    On positive d each is concave in every variable separately, so box
    minima sit at corners; psi bottoms out at 4 on permutations of (2, 2, 4).
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
    cells of the product grid of ``nodes``: the leading axes fixed, one
    split axis over a range of nodes, every later axis whole.  ``coords``
    are each axis's nodes shaped to broadcast against one another (a
    scalar for a fixed axis), so no cell is copied out per coordinate."""
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


def _cells(coords) -> np.ndarray:
    """The cells of a block of :func:`_blocks`, (*shape, axes)."""
    return np.stack(np.broadcast_arrays(*coords), axis=-1)


def _unscreened(lo: np.ndarray, worst: float) -> np.ndarray:
    """The cells whose floor ``lo`` does not reach ``worst``, a NaN floor's
    included: the one skip gate.  ``worst`` is attained by an earlier cell
    or lies above an attained value, so no skipped cell is a first minimum."""
    return np.flatnonzero(~(lo >= worst))


def _feed(worst: FirstMin, v: np.ndarray, starts: np.ndarray) -> None:
    """Feed ``worst`` the first minimum of ``v`` (n, ...), whose row i holds
    the cells from flat grid index starts[i] on, in C order."""
    k, cols = int(np.argmin(v)), v[0].size
    worst.update(int(starts[k // cols]) + k % cols, v.reshape(-1)[k:k + 1])


def _floored_scan(outer: tuple[np.ndarray, ...], least, floors, evaluate,
                  trackers: list, size: int) -> None:
    """Feed ``trackers``, one per row, each cell of a grid with outer axes
    ``outer`` that can hold the row's first strict minimum.  ``least``:
    each row's least value at the corners, a value the grid attains (NaN:
    none).  ``floors(coords, w)``: per row, at a block's outer cells (their
    rows ``w``), a floor at or below each cell's values as computed.  A row
    skips a cell whose floor reaches min(running minimum, next float above
    ``least``), its gate.  ``evaluate(cells, index, gates)`` feeds the
    trackers every value of the kept outer cells (n, len(outer)), of flat
    indices ``index``, in C order: one cell first, to set a running
    minimum, then ``size`` at a time."""
    # nextafter: a floor skips at >= the float above ``least``, that is, > it
    above = [float(np.nextafter(v, math.inf)) for v in least]
    for first, coords in _blocks(outer, _BLOCK):
        w = _cells(coords).reshape(-1, len(outer))
        lo = [rl.reshape(-1) for rl in floors(coords, w)]
        todo, n = np.arange(len(w)), 1
        while todo.size:
            # a NaN running minimum stays NaN, a NaN ``above`` is ignored
            gates = [min(t.value, a) for t, a in zip(trackers, above)]
            keep = np.zeros(len(w), dtype=bool)
            for rl, g in zip(lo, gates):
                keep[todo[_unscreened(rl[todo], g)]] = True
            todo = np.flatnonzero(keep)
            batch, todo, n = todo[:n], todo[n:], size
            if batch.size:
                evaluate(w[batch], first + batch, gates)


def _plane_scan(outer: tuple[np.ndarray, ...], plane: tuple[np.ndarray, ...],
                least, floors, rows, trackers: list) -> None:
    """:func:`_floored_scan` of the outer cells times the ``plane`` nodes, in
    runs of at most ``_BLOCK`` cells: ``rows(cells, coords, gates)`` gives
    each row's values at outer cells x a block of the plane."""
    per_plane = math.prod(map(len, plane))
    runs = list(_blocks(plane, _BLOCK))

    def evaluate(cells, index, gates):
        for p_first, coords in runs:
            for worst, v in zip(trackers, rows(cells, coords, gates)):
                _feed(worst, v, index * per_plane + p_first)

    _floored_scan(outer, least, floors, evaluate, trackers,
                  max(1, _BLOCK // per_plane))


def _report(grid_id: str, worst: FirstMin, nodes: tuple[np.ndarray, ...],
            cells: int) -> GridScanReport:
    """The row of a scan that fed ``worst`` the C-order cells of ``nodes``;
    its flat index becomes a cell here, and it passes at >= -GRID_TOL."""
    idx = np.unravel_index(worst.index, tuple(len(n) for n in nodes))
    cell = tuple(float(n[i]) for n, i in zip(nodes, idx))
    return GridScanReport(grid_id=grid_id, passed=worst.value >= -GRID_TOL,
                          tolerance=GRID_TOL, worst_value=worst.value,
                          worst_cell=cell, cells=cells)


def _summary(reports) -> GridCheckSummary:
    reports = tuple(reports)
    return GridCheckSummary(all(r.passed for r in reports), reports)


def _margin(size, tiny=_TINY):
    """_ROUND size + tiny, or NaN where size exceeds BOUND_DELTA_MAX."""
    return np.where(size <= BOUND_DELTA_MAX, _ROUND * size + tiny, math.nan)


def _ends(nodes: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    """Each axis's first and last node, once if equal: the corners' grid."""
    return tuple(n[:1] if n[0] == n[-1] else n[[0, -1]] for n in nodes)


def _box_floors(d1, plane: tuple[np.ndarray, ...]) -> list:
    """Per box row and d1 node, the least value at the (d2, d3) ``plane``'s
    4 vertices less a margin; NaN out of range or where chi1 (a d3 < 0) or
    chi2 (d1 < 0) need not be concave (docs/proofs.md#box-floor)."""
    (l2, h2), (l3, h3) = ((n.min(), n.max()) for n in plane)
    vertex = box_inequalities(d1[:, None], np.array([l2, l2, h2, h2]),
                              np.array([l3, h3, l3, h3]))
    big = np.maximum(max(1.0, -l2, h2, -l3, h3), np.abs(d1))
    margin = _margin(12.0 + big * (6.0 + big * (3.0 + big)))
    lo = [v.min(axis=1) - margin for v in vertex]
    lo[0] = np.where(l3 >= 0.0, lo[0], math.nan)
    lo[1] = np.where(d1 >= 0.0, lo[1], math.nan)
    return lo


# Huge grid nodes overflow to inf and their differences to NaN; those cells
# fail their rows, so numpy's floating-point warnings are silenced.
@np.errstate(over="ignore", invalid="ignore")
def box_inequality_grid_check(
        grid: GridSpec = BOX_GRID_DEFAULT) -> GridCheckSummary:
    """Evaluate the five box inequalities at every grid node; each row
    passes when its worst value is >= -GRID_TOL.  A d1 node is an outer
    cell, floored by :func:`_box_floors` (:func:`_plane_scan`)."""
    if grid.ndim != 3:
        raise ValueError("box grid must have 3 axes")
    nodes = grid.node_arrays()
    worst = [FirstMin() for _ in BoxValues._fields]
    _plane_scan(nodes[:1], nodes[1:],
                [v.min() for v in box_inequalities(*np.ix_(*_ends(nodes)))],
                lambda c, w: _box_floors(c[0], nodes[1:]),
                lambda cells, coords, gates: box_inequalities(
                    cells.reshape(-1, 1, 1), *coords), worst)
    return _summary(_report(f"box_{name}", w, nodes, grid.cells)
                    for name, w in zip(BoxValues._fields, worst))


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


def _min_eigs(w: np.ndarray, al, be, buf: np.ndarray, worst,
              margin: float) -> np.ndarray:
    """lambda_min m, (cells, nodes), at the omega rows ``w`` (cells, 3) x the
    (alpha, beta) nodes ``al`` x ``be``, packed into the reused stack ``buf``
    and screened against ``worst``, one or one per row of ``w``."""
    pshape = np.broadcast_shapes(np.shape(al), np.shape(be))
    entries = m_entries(w.reshape(-1, *[1] * len(pshape), 3), al, be)
    stack = buf[:, :, :len(w) * math.prod(pshape)]
    packed = stack.reshape((3, 3, len(w)) + pshape)
    for (i, j), e in zip(_M_INDEX, entries):
        packed[i, j] = packed[j, i] = e
    if np.ndim(worst):
        worst = np.repeat(worst, math.prod(pshape))
    return screened_min_eig(stack, worst, margin).reshape(len(w), -1)


def _corner_minima(omega: tuple[np.ndarray, ...], plane, buf: np.ndarray,
                   bound: float) -> np.ndarray:
    """mu, (2, 2, 2): each omega corner's least lambda_min m over ``plane``,
    as the scan computes it (NaN if ``bound`` > BOUND_DELTA_MAX).  Seeded
    from every ``_SEED``-th node, each corner screens its nodes against its
    seed (docs/proofs.md#concavity-floor), a _BLOCK stack at a time."""
    ends = _ends(omega)
    rows = _cells(np.ix_(*ends)).reshape(-1, 3)
    if not bound <= BOUND_DELTA_MAX:
        return np.full((2, 2, 2), math.nan)

    def minima(nodes, seed):
        mu = np.full(len(rows), math.inf)
        step = max(1, _BLOCK // math.prod(map(len, nodes)))
        for k in range(0, len(rows), step):
            worst = math.inf if seed is None else seed[k:k + step]
            for _, (al, be) in _blocks(nodes, _BLOCK):
                lam = _min_eigs(rows[k:k + step], al, be, buf, worst,
                                PSD_EPS * bound)
                mu[k:k + step] = np.minimum(mu[k:k + step], lam.min(axis=1))
        return mu

    mu = minima(plane, minima(tuple(n[::_SEED] for n in plane), None))
    return np.broadcast_to(mu.reshape([len(e) for e in ends]), (2, 2, 2))


def _concave_floors(coords, omega: tuple[np.ndarray, ...], mu: np.ndarray,
                    margin: float) -> np.ndarray:
    """G = sum_k t_k mu_k - ``margin`` at a block's omega cells ``coords``:
    mu lerped, (1 - t) x + t y, along each axis in turn, on its nodes
    (docs/proofs.md#concavity-floor)."""
    g = mu
    for j, (x, n) in enumerate(zip(coords, omega)):
        # an axis with hi == lo has every node at lo: its t is 0
        t = (x - n[0]) / (n[-1] - n[0] if n[-1] > n[0] else 1.0)
        t = np.reshape(t, np.shape(t) + (1,) * (2 - j))
        rest = (slice(None),) * (2 - j)
        g = (1.0 - t) * g[(..., 0) + rest] + t * g[(..., 1) + rest]
    return g - margin


@np.errstate(over="ignore", invalid="ignore")
def robust_psd_grid(form: str, omega_grid: GridSpec = OMEGA_GRID_DEFAULT,
                    ab_grid: GridSpec = AB_GRID_DEFAULT) -> GridScanReport:
    """Minimum eigenvalue of one normalized form over the full grid; the
    row passes when it is >= -GRID_TOL.  Scanned as m over the form's
    permuted omega axes (:func:`_plane_scan`, floored by
    :func:`_concave_floors`), reported in its own coordinates, and exactly
    as if every cell were eigensolved (NaN where an entry is not finite);
    ``cells`` counts the full grid.  An axis with lo == -hi is scanned on
    its nodes <= 0; a node that misses its mirror in the last bit can move
    the cell to a tie."""
    key = form.upper()
    if key not in _FORM_AXES:
        raise ValueError(f"form must be one of M, P, Q, got {form!r}")
    _check_robust_grids(omega_grid, ab_grid)
    omega = tuple(omega_grid.axes[k].nodes() for k in _FORM_AXES[key])
    plane = tuple(_folded(ax) for ax in ab_grid.axes)
    # Term by term, every |entry of m| <= (3 + W) s^2 with W = max|omega|
    # and s = max(1, |alpha|, |beta|) over the nodes.  An overflowing grid
    # makes the margin inf or NaN, and then the screen clears nothing.
    s = np.max([1.0] + [np.abs(n).max() for n in plane])
    bound = float((3.0 + np.max([np.abs(n).max() for n in omega])) * s * s)
    margin = PSD_EPS * bound
    worst = FirstMin()
    # one packing stack for every run, so no run maps fresh pages for its own
    buf = np.empty((3, 3, min(_BLOCK,
                              omega_grid.cells * math.prod(map(len, plane)))))
    mu = _corner_minima(omega, plane, buf, bound)
    _plane_scan(omega, plane, [mu.min()],
                lambda c, w: [_concave_floors(c, omega, mu, margin)],
                lambda cells, ab, gates: [_min_eigs(
                    cells, *ab, buf, min(worst.value, gates[0]), margin)],
                [worst])
    cells = omega_grid.cells * ab_grid.cells
    return _relabel(_report("robust_M", worst, omega + plane, cells), key)


def robust_psd_grids(omega_grid: GridSpec = OMEGA_GRID_DEFAULT,
                     ab_grid: GridSpec = AB_GRID_DEFAULT
                     ) -> tuple[GridScanReport, ...]:
    """The robust_M, robust_P and robust_Q rows, in that order: one m scan
    per distinct permuted omega-axis order (one on a cube grid)."""
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
    """Coefficients (ascending) of alpha -> det m_form(omega, alpha, beta):
    :func:`forms.det_m_alpha_coefs` in the degree-6 layout, odd ones 0."""
    coefs = np.broadcast_arrays(*det_m_alpha_coefs(omega, float(beta)))
    out = np.zeros((7,) + coefs[0].shape)
    out[0::2] = coefs
    return out


# The detm rows from coefficient columns c0, c2, c4, c6 (cells, 1) and the
# alpha nodes' a2 = a^2 and a4 = a2^2; detm_alpha0 has no alpha axis.
_DETM_ROWS = {
    "detm_d2": lambda c0, c2, c4, c6, a2, a4: (
        2.0 * c2 + 12.0 * c4 * a2 + 30.0 * c6 * a4),
    "detm_d4": lambda c0, c2, c4, c6, a2, a4: 24.0 * c4 + 360.0 * c6 * a2,
    "detm_min_at_zero": lambda c0, c2, c4, c6, a2, a4: (
        a2 * (c2 + c4 * a2 + c6 * a4)),
    "detm_alpha0": lambda c0, c2, c4, c6, a2, a4: c0,
}


def _coef_floors(w: np.ndarray, t0, t1) -> tuple[np.ndarray, ...]:
    """(c0, c2, c4, c6, big) per omega row of ``w`` (..., 3): floors of c0,
    c2, c4 as :func:`forms.det_m_alpha_coefs` computes them at every beta
    node with t = beta^2 in [t0, t1], each a polynomial in t whose terms k
    t^p are floored at min(k t0^p, k t1^p), c6, and ``big`` >= 2|c2| +
    24|c4| + 360|c6| there; NaN out of range (docs/proofs.md#detm-floors)."""
    q, a, b, c, d, e, c6 = det_m_t_polys(w)
    w1, w2, w3 = np.moveaxis(w, -1, 0)
    s, h = np.maximum(1.0, t1), 0.5 * w2
    tp = ((t0, t1), (t0 * t0, t1 * t1), (t0 * t0 * t0, t1 * t1 * t1))

    def floor(k0, *k):  # k0 + sum_p min(k_p t0^p, k_p t1^p), left to right
        return sum((np.minimum(kp * x, kp * y)
                    for kp, (x, y) in zip(k, tp)), k0)

    s2 = 0.375 * (np.abs(a) * (s * s) + 6.0 * np.abs(b) * s
                  + sum(map(np.abs, c)))
    s4 = 0.375 * (np.abs(d) * s + sum(map(np.abs, e)))
    c2 = (floor(-0.375 * (c[0] + c[1] + c[2]), -2.25 * b, -0.375 * a)
          - _margin(s2))
    c4 = floor(-0.375 * (e[0] + e[1] + e[2]), -0.375 * d) - _margin(s4)
    # c0 = 1.5 (w1 + w3 t)(h + q t + h t^2), expanded
    u1, u2 = np.abs(w1) + np.abs(w3) * s, (np.abs(h) * (1.0 + s * s)
                                           + np.abs(q) * s)
    h1, h3 = w1 * h, w3 * h
    tiny = _TINY * (1.0 + s * s * s) * (1.0 + u1 + u2)
    c0 = (1.5 * floor(h1, w1 * q + h3, h1 + w3 * q, h3)
          - _margin(1.5 * u1 * u2, tiny))
    return c0, c2, c4, c6, 2.0 * s2 + 24.0 * s4 + 360.0 * np.abs(c6)


def _detm_floors(c0, c2, c4, c6, big) -> tuple[np.ndarray, ...]:
    """One floor per ``_DETM_ROWS`` row at every alpha node of the cells
    with coefficients >= c0, c2, c4 (c6 exact) and terms within ``big``:
    g2 = 2 c2 + 12 min(c4, 0) + 30 min(c6, 0), g4 = 24 c4 + 360 min(c6, 0)
    and min(0, c2 + min(c4, 0) + min(c6, 0)), less big's margin, and c0."""
    n4, n6 = np.minimum(c4, 0.0), np.minimum(c6, 0.0)
    margin = _margin(big)
    return (2.0 * c2 + 12.0 * n4 + 30.0 * n6 - margin,
            24.0 * c4 + 360.0 * n6 - margin,
            np.minimum(0.0, c2 + n4 + n6 - margin), c0)


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
    Worst cells are (w1, w2, w3, beta[, alpha]).  The rows' least values
    at the 8 omega corners come first; then a :func:`_floored_scan` floors
    each omega cell over the beta axis's t range, and each kept (omega,
    beta) cell by its own coefficients, with the report of evaluating all.
    """
    if omega_grid.ndim != 3 or beta_grid.ndim != 1:
        raise ValueError("omega grid needs 3 axes and beta grid 1")
    alpha_nodes = Axis(-1.0, 1.0, alpha_count).nodes()
    a2 = alpha_nodes ** 2
    omega, betas = omega_grid.node_arrays(), beta_grid.axes[0].nodes()
    nb, a4, span = len(betas), a2 * a2, tuple(np.sort(betas ** 2)[[0, -1]])
    # values per (omega, beta) cell, cells per run of at most _BLOCK values
    cols = [1 if name == "detm_alpha0" else a2.size for name in _DETM_ROWS]
    steps = [max(1, _BLOCK // n) for n in cols]

    def coefs(w):  # c0, c2, c4, c6 at the omega rows w x betas, (cells, 1)
        return [x.reshape(-1, 1) for x in np.broadcast_arrays(
            *det_m_alpha_coefs(w[:, None, :], betas))]

    c = coefs(_cells(np.ix_(*_ends(omega))).reshape(-1, 3))
    least = [np.min([row(*(x[k:k + step] for x in c), a2, a4).min()
                     for k in range(0, len(c[0]), step)])
             for row, step in zip(_DETM_ROWS.values(), steps)]
    trackers = [FirstMin() for _ in _DETM_ROWS]

    def evaluate(w, index, gates):
        c = coefs(w)
        big = 2.0 * np.abs(c[1]) + 24.0 * np.abs(c[2]) + 360.0 * np.abs(c[3])
        cells = (index[:, None] * nb + np.arange(nb)).reshape(-1)
        # a row's gate moves only while that row is evaluated
        for row, n, step, worst, lo, g in zip(
                _DETM_ROWS.values(), cols, steps, trackers,
                _detm_floors(*c, big), gates):
            kept = _unscreened(lo, g)
            for k in range(0, kept.size, step):
                i = kept[k:k + step]
                _feed(worst, row(*(x[i] for x in c), a2, a4), cells[i] * n)

    _floored_scan(omega, least,
                  lambda coords, w: _detm_floors(*_coef_floors(w, *span)),
                  evaluate, trackers, max(1, _BLOCK // nb))
    nodes = omega + (betas,)
    return _summary(_report(name, w, nodes if name == "detm_alpha0"
                            else nodes + (alpha_nodes,),
                            omega_grid.cells * beta_grid.cells)
                    for name, w in zip(_DETM_ROWS, trackers))

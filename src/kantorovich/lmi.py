"""Numerical verification of the certified inequalities and robust PSD claims.

Three layers:

* sampled verification of the semi-infinite constraint h(delta, y) PSD
  (:func:`verify_h_lmi`);
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

Grid scans use one absolute tolerance (values >= -1e-9 pass); every check
reports its worst cell so a failure is immediately reproducible, and a NaN
cell is the worst cell and fails its check.  Every scan walks its grid with
one block iterator, :func:`_blocks`: a block is a C-order run of about
``_BLOCK`` cells whose coordinates are node arrays that broadcast against
one another, so no grid (of omega or of any other axis) is ever built cell
by cell, and memory does not grow with the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .forms import DeltaVector, det_m_alpha_coefs, m_entries
from .linalg import PSD_EPS, screened_min_eig
from .sampling import DEFAULT_PLAN, SamplePlan, SampleReport, all_samples, scan_h

__all__ = [
    "GRID_TOL", "Axis", "GridSpec", "GridScanReport", "GridCheckSummary",
    "verify_h_lmi", "box_inequalities", "BoxValues",
    "box_inequality_grid_check", "robust_psd_grid", "robust_psd_grids",
    "detm_alpha_poly", "detm_alpha_convexity_check",
    "BOX_GRID_DEFAULT", "OMEGA_GRID_DEFAULT", "AB_GRID_DEFAULT",
    "BETA_GRID_DEFAULT",
]

# Absolute pass tolerance for grid-evaluated inequality values.
GRID_TOL = 1e-9

# Grid cells evaluated per block of a scan, so that memory stays the same
# whatever the grid size: a box temporary, or one entry of m, is at most
# 32 KB, and the robust scan's packed (3, 3, cells) stack 288 KB.  A detm
# cell counts once per alpha node, and its blocks are four times larger, to
# spread the fixed cost of the ~40 small numpy calls each block makes.  At
# 41 alpha nodes a detm temporary is then 121 KB, under malloc's default
# mmap threshold (128 KiB in glibc); with five times larger blocks every
# temporary is mapped and page-faulted in afresh.
_BLOCK = 1 << 12


@dataclass(frozen=True)
class Axis:
    lo: float
    hi: float
    count: int

    def __post_init__(self):
        if not math.isfinite(self.hi - self.lo):
            raise ValueError(
                "axis bounds and their span hi - lo must be finite")
        if self.count < 1:
            raise ValueError("axis count must be >= 1")
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


def verify_h_lmi(delta: DeltaVector, plan: SamplePlan = DEFAULT_PLAN,
                 eps: float = PSD_EPS) -> SampleReport:
    """Sampled check that h(delta, y) is PSD over unit directions.

    The worst point, re-evaluated on its own, gives the worst value to
    about an ulp of sup|h| (h's diagonal is a BLAS product whose last bit
    can depend on the row count), and ``passed`` means the worst value
    clears ``-eps * max(1, sup|h|)``.
    """
    pts = all_samples(delta.dim, plan)
    res = scan_h(delta, pts, eps=eps)
    return SampleReport(worst_value=res.worst_value,
                        worst_point=np.array(pts[res.worst_index]),
                        samples=res.samples, seed=plan.seed,
                        tolerance=res.tolerance, passed=not res.violation)


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


def _omega(w1, w2, w3) -> np.ndarray:
    """A block's omega nodes as one (..., 3) stack, one row per omega cell
    of the block; it broadcasts against the alpha and beta nodes."""
    out = np.empty(np.broadcast(w1, w2, w3).shape + (3,))
    out[..., 0], out[..., 1], out[..., 2] = w1, w2, w3
    return out


class _Worst:
    """First strict minimum over the C-order cells of ``nodes``, fed in
    consecutive blocks: the cell a single argmin over the grid reports.
    The first NaN cell, if there is one, is the minimum (as for argmin)."""

    def __init__(self, nodes: tuple[np.ndarray, ...]):
        self.nodes = nodes
        self.shape = tuple(len(n) for n in nodes)
        self.value = math.inf
        self.cell: tuple[float, ...] = ()

    def update(self, start: int, values: np.ndarray) -> None:
        """``values``: the cells from flat index ``start`` on, in C order
        over their own (full, not broadcast) shape."""
        if math.isnan(self.value):
            return
        flat = values.reshape(-1)
        k = int(np.argmin(flat))
        # not >=: a NaN is taken, and the first block always sets a cell
        if not self.cell or not float(flat[k]) >= self.value:
            idx = np.unravel_index(start + k, self.shape)
            self.value = float(flat[k])
            self.cell = tuple(float(n[i]) for n, i in zip(self.nodes, idx))

    def report(self, grid_id: str, tol: float, cells: int) -> GridScanReport:
        return GridScanReport(grid_id=grid_id, passed=self.value >= -tol,
                              tolerance=tol, worst_value=self.value,
                              worst_cell=self.cell, cells=cells)


# Huge grid nodes overflow to inf and their differences to NaN; those cells
# fail their rows, so numpy's floating-point warnings are silenced.
@np.errstate(over="ignore", invalid="ignore")
def box_inequality_grid_check(grid: GridSpec = BOX_GRID_DEFAULT,
                              tol: float = GRID_TOL) -> GridCheckSummary:
    """Evaluate the five box inequalities at every grid node."""
    if grid.ndim != 3:
        raise ValueError("box grid must have 3 axes")
    nodes = grid.node_arrays()
    worst = [_Worst(nodes) for _ in BoxValues._fields]
    for start, coords in _blocks(nodes, _BLOCK):
        for w, v in zip(worst, box_inequalities(*coords)):
            w.update(start, v)
    reports = tuple(w.report(f"box_{name}", tol, grid.cells)
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


@np.errstate(over="ignore", invalid="ignore")
def robust_psd_grid(form: str, omega_grid: GridSpec = OMEGA_GRID_DEFAULT,
                    ab_grid: GridSpec = AB_GRID_DEFAULT,
                    tol: float = GRID_TOL) -> GridScanReport:
    """Minimum eigenvalue of one normalized form over the full grid.

    Every form is scanned as m over its permuted omega axes, in blocks of
    at most ``_BLOCK`` cells whose omega nodes broadcast against the
    (alpha, beta) nodes.  Each block's m is packed into one reused
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
    nodes = (tuple(omega_grid.axes[k].nodes() for k in _FORM_AXES[key])
             + tuple(_folded(ax) for ax in ab_grid.axes))
    # Term by term, every |entry of m| <= (3 + W) s^2 with W = max|omega|
    # and s = max(1, |alpha|, |beta|) over the nodes.  An overflowing grid
    # makes the margin inf or NaN, and then the screen clears nothing.
    big = np.max([np.abs(n).max() for n in nodes[:3]])
    s = np.max([1.0] + [np.abs(n).max() for n in nodes[3:]])
    margin = float(PSD_EPS * (3.0 + big) * s * s)
    worst = _Worst(nodes)
    # one stack for every block, so no block maps fresh pages for its own
    buf = np.empty((3, 3, min(_BLOCK, math.prod(map(len, nodes)))))
    for start, (w1, w2, w3, al, be) in _blocks(nodes, _BLOCK):
        entries = m_entries(_omega(w1, w2, w3), al, be)
        shape = np.broadcast_shapes(*(e.shape for e in entries))
        stack = buf[:, :, :math.prod(shape)]
        packed = stack.reshape((3, 3) + shape)
        for (i, j), e in zip(_M_INDEX, entries):
            packed[i, j] = packed[j, i] = e
        rows, lam = screened_min_eig(stack, worst.value, margin)
        if rows.size:
            # a cleared cell lies above the running minimum
            values = np.full(stack.shape[2], np.inf)
            values[rows] = lam
            worst.update(start, values)
    cells = omega_grid.cells * ab_grid.cells
    return _relabel(worst.report("robust_M", tol, cells), key)


def robust_psd_grids(omega_grid: GridSpec = OMEGA_GRID_DEFAULT,
                     ab_grid: GridSpec = AB_GRID_DEFAULT,
                     tol: float = GRID_TOL) -> tuple[GridScanReport, ...]:
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
            scans[axes] = robust_psd_grid("M", GridSpec(axes), ab_grid, tol)
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


@np.errstate(over="ignore", invalid="ignore")
def detm_alpha_convexity_check(omega_grid: GridSpec = OMEGA_GRID_DEFAULT,
                               beta_grid: GridSpec = BETA_GRID_DEFAULT,
                               alpha_count: int = 41,
                               tol: float = GRID_TOL) -> GridCheckSummary:
    """Certify the alpha-behavior of det m over an (omega, beta) grid.

    With det m = c0 + c2 a^2 + c4 a^4 + c6 a^6 (closed-form coefficients,
    :func:`forms.det_m_alpha_coefs`), at every (omega, beta) cell and alpha
    node a the rows are

    detm_d2          = 2 c2 + 12 c4 a^2 + 30 c6 a^4   (d^2/da^2 det m)
    detm_d4          = 24 c4 + 360 c6 a^2             (d^4/da^4 det m)
    detm_min_at_zero = a^2 (c2 + c4 a^2 + c6 a^4)     (det m - det m at 0)

    and detm_alpha0 = c0 per (omega, beta) cell; each must be nonnegative.
    Worst cells are (w1, w2, w3, beta[, alpha]).  The (omega, beta) cells
    are scanned in blocks of about ``4 * _BLOCK`` (cell, alpha node) values,
    128 KB per temporary, whatever the grids.
    """
    if omega_grid.ndim != 3 or beta_grid.ndim != 1:
        raise ValueError("omega grid needs 3 axes and beta grid 1")
    alpha_nodes = Axis(-1.0, 1.0, alpha_count).nodes()
    a2 = alpha_nodes ** 2
    a4 = a2 * a2
    nodes = omega_grid.node_arrays() + beta_grid.node_arrays()
    with_alpha = nodes + (alpha_nodes,)
    trackers = {"detm_d2": _Worst(with_alpha), "detm_d4": _Worst(with_alpha),
                "detm_min_at_zero": _Worst(with_alpha),
                "detm_alpha0": _Worst(nodes)}

    for start, (w1, w2, w3, betas) in _blocks(
            nodes, max(1, 4 * _BLOCK // alpha_count)):
        c0, c2, c4, c6 = det_m_alpha_coefs(_omega(w1, w2, w3), betas)
        trackers["detm_alpha0"].update(start, c0)
        # (cells, alpha_count) values: C order over (w1, w2, w3, beta, alpha)
        c2, c4, c6 = c2[..., None], c4[..., None], c6[..., None]
        first = start * alpha_count
        trackers["detm_d2"].update(
            first, 2.0 * c2 + 12.0 * c4 * a2 + 30.0 * c6 * a4)
        trackers["detm_d4"].update(first, 24.0 * c4 + 360.0 * c6 * a2)
        trackers["detm_min_at_zero"].update(
            first, a2 * (c2 + c4 * a2 + c6 * a4))

    cells = omega_grid.cells * beta_grid.cells
    reports = tuple(w.report(name, tol, cells)
                    for name, w in trackers.items())
    return GridCheckSummary(passed=all(r.passed for r in reports),
                            reports=reports)

"""Convexity-threshold probing over parametric eigenvalue families.

For a family kappa -> spectrum(kappa) the prober bisects on kappa between a
witness-free floor and a witness-bearing ceiling; :func:`classify.classify`
decides each step, by the ladder's theorems outside the gap and by the
sampled scan of h inside it.  A floor in the gap is only as good as the sample
budget, so brackets are reported per family and never asserted to coincide.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

# falsify stays importable here: bench/workloads.py re-checks kappa_hi with it.
from .classify import classify, falsify  # noqa: F401
from .linalg import MAX_DIM, PD_TOL, SpdMatrix, validate_spd
from .sampling import DEFAULT_PLAN, SamplePlan, all_samples

__all__ = [
    "FAMILY_KINDS", "EigenFamily", "BoundaryStep", "BoundaryEstimate",
    "BadInitialBracketError", "SweepRow", "probe_boundary", "sweep",
    "SWEEP_CSV_HEADER", "sweep_csv",
]

FAMILY_KINDS = ("two_point", "geometric", "pinned_pair")

SWEEP_CSV_HEADER = "family,dim,kappa_lo,kappa_hi,tol,samples,seed,wall_ms"


class BadInitialBracketError(RuntimeError):
    """The initial kappa bracket does not straddle the empirical threshold."""


@dataclass(frozen=True)
class EigenFamily:
    """A kappa-parametrized spectrum with lambda_max / lambda_min == kappa.

    Kinds: ``two_point`` (1, ..., 1, kappa); ``geometric``
    (kappa^(i/(n-1)), i = 0..n-1); ``pinned_pair`` (1, kappa, ..., kappa).
    """

    kind: str
    dim: int

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"kind must be one of {FAMILY_KINDS}")
        if not 2 <= self.dim <= MAX_DIM:
            raise ValueError(f"family dim {self.dim} not in 2..{MAX_DIM}")

    def eigenvalues(self, kappa: float) -> np.ndarray:
        if kappa < 1.0:
            raise ValueError("kappa must be >= 1")
        n = self.dim
        if self.kind == "two_point":
            lam = np.ones(n)
            lam[-1] = kappa
        elif self.kind == "pinned_pair":
            lam = np.full(n, kappa)
            lam[0] = 1.0
        else:
            lam = kappa ** (np.arange(n) / (n - 1))
        return lam

    def spd(self, kappa: float) -> SpdMatrix:
        return validate_spd(np.diag(self.eigenvalues(kappa)))


@dataclass(frozen=True)
class BoundaryStep:
    kappa: float
    found_witness: bool


@dataclass(frozen=True)
class BoundaryEstimate:
    family: EigenFamily
    kappa_lo: float
    kappa_hi: float
    tol: float
    steps: tuple[BoundaryStep, ...]
    samples: int
    seed: int
    wall_ms: int

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.kappa_lo + self.kappa_hi)


def _witness_found(family: EigenFamily, kappa: float,
                   plan: SamplePlan) -> bool:
    return classify(family.spd(kappa), plan).witness is not None


def probe_boundary(family: EigenFamily, tol: float = 1e-4,
                   plan: SamplePlan = DEFAULT_PLAN,
                   bracket: tuple[float, float] = (1.0, 8.0)) -> BoundaryEstimate:
    """Bisect kappa down to ``tol`` between no-witness and witness regimes.

    Each step asks :func:`classify.classify` for a witness; it requires none
    at ``bracket[0]`` and one at ``bracket[1]``, else raises
    :class:`BadInitialBracketError` after the first endpoint that fails.  The
    bracket must satisfy 1 <= lo < hi and PD_TOL * hi < 1: every family has
    lambda_min = 1 and lambda_max = kappa, so that is the product
    :func:`linalg.validate_spd` rejects.  A ``tol`` below the float spacing at
    ``bracket[1]`` is rejected: bisection would stall on adjacent floats.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (1.0 <= lo < hi and PD_TOL * hi < 1.0):
        raise ValueError(
            f"bracket must satisfy 1 <= lo < hi and {PD_TOL:.0e} * hi < 1")
    if tol < math.ulp(hi):
        raise ValueError(f"tol {tol!r} is below the float spacing "
                         f"{math.ulp(hi)!r} at kappa_hi = {hi!r}")
    t0 = time.perf_counter()
    if _witness_found(family, lo, plan):
        raise BadInitialBracketError(
            f"witness already found at kappa_lo = {lo}")
    if not _witness_found(family, hi, plan):
        raise BadInitialBracketError(
            f"no witness found at kappa_hi = {hi}")
    steps = [BoundaryStep(lo, False), BoundaryStep(hi, True)]
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        found = _witness_found(family, mid, plan)
        steps.append(BoundaryStep(mid, found))
        if found:
            hi = mid
        else:
            lo = mid
    wall_ms = int(round(1000.0 * (time.perf_counter() - t0)))
    return BoundaryEstimate(family=family, kappa_lo=lo, kappa_hi=hi, tol=tol,
                            steps=tuple(steps),
                            samples=all_samples(family.dim, plan).shape[0],
                            seed=plan.seed, wall_ms=wall_ms)


@dataclass(frozen=True)
class SweepRow:
    family: EigenFamily
    estimate: BoundaryEstimate | None
    error: str | None


def sweep(families, tol: float = 1e-4, plan: SamplePlan = DEFAULT_PLAN,
          bracket: tuple[float, float] = (1.0, 8.0)) -> list[SweepRow]:
    """Probe each family in order; a failed bracket fails only its own row."""
    rows = []
    for fam in families:
        try:
            est = probe_boundary(fam, tol=tol, plan=plan, bracket=bracket)
            rows.append(SweepRow(family=fam, estimate=est, error=None))
        except BadInitialBracketError as exc:
            rows.append(SweepRow(family=fam, estimate=None, error=str(exc)))
    return rows


def sweep_csv(rows) -> str:
    """Render sweep rows with the fixed header; failed rows carry nan bounds."""
    lines = [SWEEP_CSV_HEADER]
    for row in rows:
        fam = row.family
        if row.estimate is None:
            lines.append(
                f"{fam.kind},{fam.dim},nan,nan,nan,0,0,0")
        else:
            e = row.estimate
            lines.append(
                f"{fam.kind},{fam.dim},{e.kappa_lo!r},{e.kappa_hi!r},"
                f"{e.tol!r},{e.samples},{e.seed},{e.wall_ms}")
    return "\n".join(lines) + "\n"

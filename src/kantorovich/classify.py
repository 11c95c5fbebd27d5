"""Convexity classification by condition number, with a reported gap scan.

Decision ladder, in order:

1. dim 2: convex iff kappa <= 3 + 2*sqrt(2) (sharp both ways).
2. any dim: kappa > 3 + 2*sqrt(2) rules convexity out; the (e_i + e_j)
   coordinate probe on the extreme eigenvalue pair is the witness.
3. dim 3: kappa <= 2 + sqrt(3) is sufficient.
4. any dim: kappa <= sqrt(5 + 2*sqrt(6)) is sufficient.
5. otherwise kappa sits in the open gap: scan the sampled design once
   (:func:`sampling.scan_design`) and return Undetermined with its report.
   The scan cannot fail there: lambda_min h(delta, y) >= 3/2 - delta_max/4
   >= -2e-12 at every unit y, far inside the scan tolerance
   (docs/proofs.md#pair-term-identity).

Rungs 1 to 4 read Python floats and load no numpy, and a witness point
is a tuple of floats; rung 5 imports ``forms`` and ``sampling`` where it
calls them (``sampling`` imports ``plan``).  The result types are
named tuples, so that this module loads no ``dataclasses``.

The probe (:func:`_probe`) is in closed form: lambda_min h at y = (e_i +
e_j)/sqrt(2) on the first largest ratio sum is 3/2 - delta_max/4
(docs/proofs.md#pair-term-identity), :func:`forms.least_coefs`' c bit for
bit; its point is x = U'y.  Rung 2 always attaches it (there delta_max > 6,
so the value is negative).  :func:`falsify` maps the first worst row y of
one probe + design scan's report (:func:`sampling.scan_design`) back to
x = U'y.

Threshold comparisons are inclusive within relative 1e-12, so a matrix built
to sit exactly on a boundary classifies with the boundary, not against it.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

from .linalg import SpdMatrix, pair_indices, scan_tolerance

if TYPE_CHECKING:
    from .forms import DeltaVector
    from .plan import SamplePlan
    from .sampling import SampleReport

__all__ = [
    "KAPPA_NECESSARY", "KAPPA_SUFFICIENT_ANY", "KAPPA_SUFFICIENT_3D",
    "Status", "Certificate", "ProbeResult", "Witness", "classify",
    "ConvexityVerdict", "beyond_necessary", "necessary_probe", "falsify",
]

# Convex in dim 2 iff kappa below this; necessary bound in every dim.
KAPPA_NECESSARY = 3.0 + 2.0 * math.sqrt(2.0)
# Sufficient in every dim.
KAPPA_SUFFICIENT_ANY = math.sqrt(5.0 + 2.0 * math.sqrt(6.0))
# Sufficient in dim 3.
KAPPA_SUFFICIENT_3D = 2.0 + math.sqrt(3.0)

# kappa equal to a threshold within this relative slack counts as meeting it.
BOUNDARY_REL_TOL = 1e-12

class Status(str, Enum):
    CONVEX = "Convex"
    NOT_CONVEX = "NotConvex"
    UNDETERMINED = "Undetermined"


class Certificate(str, Enum):
    EXACT_2D = "exact-2d"
    SUFFICIENT_ANY_DIM = "sufficient-any-dim"
    SUFFICIENT_3D = "sufficient-3d"
    NECESSARY_VIOLATED = "necessary-violated"
    SAMPLING_EXHAUSTED = "sampling-exhausted"


class ProbeResult(NamedTuple):
    """Outcome of the extreme-pair coordinate probe."""

    worst_pair: tuple[int, int]
    delta_max: float
    quad_value: float
    violated: bool


class Witness(NamedTuple):
    """A direction x with hess f(x) not PSD; lambda_min certifies by how much."""

    point: tuple[float, ...]
    lambda_min: float


class ConvexityVerdict(NamedTuple):
    status: Status
    certificate: Certificate
    kappa: float
    witness: Witness | None = None
    report: SampleReport | None = None


def _pair_probe(values: list[float]) -> tuple[int, float, float]:
    """The extreme-pair probe on ratio sums ``values`` (pair order): index
    k of the first largest, delta_max and the value 3/2 - delta_max/4."""
    k = max(range(len(values)), key=values.__getitem__)
    dmax = values[k]
    return k, dmax, 1.5 - 0.25 * dmax


def beyond_necessary(kappa: float) -> bool:
    """Rung 2's test, also each ``boundary`` step's: K is not convex."""
    return kappa > KAPPA_NECESSARY * (1.0 + BOUNDARY_REL_TOL)


def necessary_probe(delta: DeltaVector) -> ProbeResult:
    """The probe on ``delta`` (:func:`_pair_probe`) with q(d) = 9 + 3 d -
    (3/4) d^2 at delta_max: q = 3 (2 + d) (3/2 - d/4) has roots -2 and 6,
    so q < 0 exactly when kappa > 3 + 2*sqrt(2).  ``violated``: the value
    is below -``scan_tolerance(delta_max)``, the scans' witness test."""
    k, dmax, lam = _pair_probe(delta.values.tolist())
    q = 9.0 + 3.0 * dmax - 0.75 * dmax * dmax
    return ProbeResult(worst_pair=pair_indices(delta.dim)[k], delta_max=dmax,
                       quad_value=q, violated=not lam >= -scan_tolerance(dmax))


def _design_report(spd: SpdMatrix, plan: SamplePlan | None) -> SampleReport:
    """The report of :func:`sampling.scan_design` on ``spd``'s ratio sums
    under ``plan``, ``DEFAULT_PLAN`` where it is None."""
    from .forms import delta_from_spd
    from .sampling import or_default, scan_design
    return scan_design(delta_from_spd(spd), or_default(plan))


def falsify(spd: SpdMatrix, plan: SamplePlan | None = None) -> Witness | None:
    """One scan of the probe + design rows (:func:`sampling.scan_design`)
    for a direction where hess f is not PSD: the report's first worst row y
    as x = U' y, with its worst value; ``plan`` None is ``DEFAULT_PLAN``,
    and ``plan.refine_rounds`` is unread."""
    rep = _design_report(spd, plan)
    if rep.passed:
        return None
    x = spd.spectral.rotation.T @ rep.worst_point
    return Witness(point=tuple(x.tolist()), lambda_min=rep.worst_value)


def _probe(spd: SpdMatrix) -> Witness:
    """The extreme-pair probe of ``spd`` (:func:`_pair_probe`) as a witness:
    x_c = r U[i][c] + r U[j][c], r = 1/sqrt(2), for the pair (i, j)."""
    k, _, lam = _pair_probe(spd.ratio_sums())
    i, j = pair_indices(spd.dim)[k]
    u, r = spd.spectral._u, 1.0 / math.sqrt(2.0)
    return Witness(point=tuple(r * a + r * b for a, b in zip(u[i], u[j])),
                   lambda_min=lam)


def classify(spd: SpdMatrix,
             plan: SamplePlan | None = None) -> ConvexityVerdict:
    """Decide convexity of K for ``spd`` (see module docstring for the
    ladder); only the gap rung reads ``plan``, None being ``DEFAULT_PLAN``."""
    inc = 1.0 + BOUNDARY_REL_TOL
    kappa = spd.kappa
    n = spd.dim

    def verdict(status, certificate, witness=None, report=None):
        return ConvexityVerdict(status=status, certificate=certificate,
                                kappa=kappa, witness=witness, report=report)

    if n == 1:
        return verdict(Status.CONVEX, Certificate.SUFFICIENT_ANY_DIM)

    if beyond_necessary(kappa):
        # delta_max >= 6 + 5.5e-12, so the probe value is negative: a
        # witness, even within the scan tolerance of 0
        return verdict(Status.NOT_CONVEX, Certificate.NECESSARY_VIOLATED,
                       witness=_probe(spd))
    if n == 2:
        return verdict(Status.CONVEX, Certificate.EXACT_2D)
    if n == 3 and kappa <= KAPPA_SUFFICIENT_3D * inc:
        return verdict(Status.CONVEX, Certificate.SUFFICIENT_3D)
    if kappa <= KAPPA_SUFFICIENT_ANY * inc:
        return verdict(Status.CONVEX, Certificate.SUFFICIENT_ANY_DIM)

    return verdict(Status.UNDETERMINED, Certificate.SAMPLING_EXHAUSTED,
                   report=_design_report(spd, plan))

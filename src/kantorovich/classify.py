"""Convexity classification by condition number, with a reported gap scan.

Decision ladder, in order:

1. dim 2: convex iff kappa <= 3 + 2*sqrt(2) (sharp both ways).
2. any dim: kappa > 3 + 2*sqrt(2) rules convexity out; the (e_i + e_j)
   coordinate probe on the extreme eigenvalue pair usually certifies it.
3. dim 3: kappa <= 2 + sqrt(3) is sufficient.
4. any dim: kappa <= sqrt(5 + 2*sqrt(6)) is sufficient.
5. otherwise kappa sits in the open gap: scan the sampled design once
   (:func:`sampling.scan_design`) and return Undetermined with its report.
   The scan cannot fail there: lambda_min h(delta, y) >= 3/2 - delta_max/4
   >= -2e-12 at every unit y, far inside the scan tolerance
   (docs/proofs.md#pair-term-identity).

Rungs 1, 3 and 4 read kappa alone and load no numpy; rungs 2 and 5 import
the scan's functions from ``forms`` and ``sampling`` where they call them,
which loads numpy.

Rung 2's witness is the probe row scanned alone (:func:`sampling.scan_h`),
attached wherever its value is negative; :func:`probe_witness`, the judge
of ``boundary``, keeps it only where the scan reports a violation.
:func:`falsify` maps the first worst row y of one probe + design scan's
report (:func:`sampling.scan_design`) back to x = U'y.  The identity's
bound 3/2 - delta_max/4 holds for every delta and is attained at the
probe, which every scan evaluates first.

Threshold comparisons are inclusive within relative 1e-12, so a matrix built
to sit exactly on a boundary classifies with the boundary, not against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from .linalg import SpdMatrix
from .plan import DEFAULT_PLAN, SamplePlan

if TYPE_CHECKING:
    import numpy as np

    from .forms import DeltaVector
    from .sampling import SampleReport

__all__ = [
    "KAPPA_NECESSARY", "KAPPA_SUFFICIENT_ANY", "KAPPA_SUFFICIENT_3D",
    "Status", "Certificate", "ProbeResult", "Witness", "classify",
    "ConvexityVerdict", "necessary_probe", "falsify", "probe_witness",
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


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of the extreme-pair coordinate probe."""

    worst_pair: tuple[int, int]
    delta_max: float
    quad_value: float
    violated: bool


@dataclass(frozen=True)
class Witness:
    """A direction x with hess f(x) not PSD; lambda_min certifies by how much."""

    point: np.ndarray
    lambda_min: float

    def __post_init__(self):
        import numpy as np
        p = np.asarray(self.point, dtype=float)
        p.setflags(write=False)
        object.__setattr__(self, "point", p)


@dataclass(frozen=True)
class ConvexityVerdict:
    status: Status
    certificate: Certificate
    kappa: float
    witness: Witness | None = None
    report: SampleReport | None = None


def necessary_probe(delta: DeltaVector) -> ProbeResult:
    """Evaluate the probe quadratic q(d) = 9 + 3 d - (3/4) d^2 at delta_max.

    q is, up to a positive factor, det h(delta, e_i + e_j) restricted to the
    worst pair; its roots are -2 and 6, so q < 0 exactly when delta_max > 6,
    i.e. kappa > 3 + 2*sqrt(2).
    """
    pair, dmax = delta.max_pair()
    q = 9.0 + 3.0 * dmax - 0.75 * dmax * dmax
    return ProbeResult(worst_pair=pair, delta_max=dmax, quad_value=q,
                       violated=q < 0.0)


def falsify(spd: SpdMatrix, plan: SamplePlan = DEFAULT_PLAN) -> Witness | None:
    """One scan of the probe + design rows (:func:`sampling.scan_design`)
    for a direction where hess f is not PSD: the report's first worst row y
    as x = U' y, with its worst value; ``plan.refine_rounds`` unread."""
    from .forms import delta_from_spd
    from .sampling import scan_design
    rep = scan_design(delta_from_spd(spd), plan)
    if rep.passed:
        return None
    return Witness(point=spd.spectral.rotation.T @ rep.worst_point,
                   lambda_min=rep.worst_value)


def _probe(spd: SpdMatrix, delta: DeltaVector) -> tuple[Witness, bool]:
    """The extreme-pair probe (e_i + e_j)/sqrt(2), scanned as one row: row
    2k of :func:`sampling.probe_directions`, k the first argmax of delta
    (the pair that :meth:`DeltaVector.max_pair` names), as a witness with
    the scan's violation flag (value below -tolerance)."""
    from .sampling import probe_directions, scan_h
    k = int(delta.values.argmax())
    y = probe_directions(spd.dim)[2 * k:2 * k + 1]
    res = scan_h(delta, y)
    return (Witness(point=spd.spectral.rotation.T @ y[0],
                    lambda_min=res.worst_value), res.violation)


def probe_witness(spd: SpdMatrix, delta: DeltaVector) -> Witness | None:
    """The probe row's witness where its scan reports a violation, else
    None: the judge of each ``boundary`` step."""
    witness, violation = _probe(spd, delta)
    return witness if violation else None


def classify(spd: SpdMatrix,
             plan: SamplePlan = DEFAULT_PLAN) -> ConvexityVerdict:
    """Decide convexity of K for ``spd`` (see module docstring for the ladder)."""
    inc = 1.0 + BOUNDARY_REL_TOL
    kappa = spd.kappa
    n = spd.dim

    def verdict(status, certificate, witness=None, report=None):
        return ConvexityVerdict(status=status, certificate=certificate,
                                kappa=kappa, witness=witness, report=report)

    if n == 1:
        return verdict(Status.CONVEX, Certificate.SUFFICIENT_ANY_DIM)

    if kappa > KAPPA_NECESSARY * inc:
        # kappa decided the verdict: a negative probe value is a witness,
        # even within the scan tolerance of 0
        from .forms import delta_from_spd
        witness, violation = _probe(spd, delta_from_spd(spd))
        keep = violation or witness.lambda_min < 0.0
        return verdict(Status.NOT_CONVEX, Certificate.NECESSARY_VIOLATED,
                       witness=witness if keep else None)
    if n == 2:
        return verdict(Status.CONVEX, Certificate.EXACT_2D)
    if n == 3 and kappa <= KAPPA_SUFFICIENT_3D * inc:
        return verdict(Status.CONVEX, Certificate.SUFFICIENT_3D)
    if kappa <= KAPPA_SUFFICIENT_ANY * inc:
        return verdict(Status.CONVEX, Certificate.SUFFICIENT_ANY_DIM)

    from .forms import delta_from_spd
    from .sampling import scan_design
    return verdict(Status.UNDETERMINED, Certificate.SAMPLING_EXHAUSTED,
                   report=scan_design(delta_from_spd(spd), plan))

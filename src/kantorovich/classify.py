"""Convexity classification by condition number, with a reported gap scan.

Decision ladder, in order:

1. dim 2: convex iff rung 2 does not fire (sharp both ways).
2. any dim: delta_max > ``DELTA_NECESSARY``, kappa > 3 + 2*sqrt(2) in
   delta form, rules convexity out; the (e_i + e_j) coordinate probe on
   the first largest ratio sum is the witness.  This rule, and no kappa
   form of it, also decides each ``boundary`` step, :func:`necessary_probe`
   and a scan's pass flag (docs/proofs.md#necessary-rule-in-delta-form).
3. dim 3: kappa <= 2 + sqrt(3) is sufficient.
4. any dim: kappa <= sqrt(5 + 2*sqrt(6)) is sufficient.
5. otherwise kappa sits in the open gap: scan the sampled design once
   (:func:`sampling.scan_design`) and return Undetermined with its report,
   which passes, as rung 2 did not fire.

Rungs 1 to 4 read Python floats and load no numpy, and a witness point
is a tuple of floats; rung 5 imports ``forms`` and ``sampling`` where it
calls them (``sampling`` imports ``plan``).  The result types are
named tuples, so that this module loads no ``dataclasses``.

The probe (:func:`_pair_probe`) is in closed form: lambda_min h at y =
(e_i + e_j)/sqrt(2) on the first largest ratio sum is 3/2 - delta_max/4
(docs/proofs.md#pair-term-identity), :func:`forms.least_coefs`' c bit for
bit, and no unit y goes lower.  Rung 2's witness puts it at x = U'y,
negative there (:func:`_necessary_witness`); :func:`falsify` returns that
same witness, bit for bit, and scans nothing.

The kappa thresholds of rungs 3 and 4 are inclusive within relative 1e-12,
so a matrix built to sit exactly on a boundary classifies with the
boundary, not against it.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

from .linalg import (BOUNDARY_REL_TOL, DELTA_NECESSARY, KAPPA_NECESSARY,
                     SpdMatrix, pair_indices)

if TYPE_CHECKING:
    from .forms import DeltaVector
    from .plan import SamplePlan
    from .sampling import SampleReport

__all__ = [
    "KAPPA_NECESSARY", "KAPPA_SUFFICIENT_ANY", "KAPPA_SUFFICIENT_3D",
    "Status", "Certificate", "ProbeResult", "Witness", "classify",
    "ConvexityVerdict", "necessary_probe", "falsify",
]

# Sufficient in every dim.
KAPPA_SUFFICIENT_ANY = math.sqrt(5.0 + 2.0 * math.sqrt(6.0))
# Sufficient in dim 3.
KAPPA_SUFFICIENT_3D = 2.0 + math.sqrt(3.0)

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


def necessary_probe(delta: DeltaVector) -> ProbeResult:
    """The probe on ``delta`` (:func:`_pair_probe`) with q(d) = 9 + 3 d -
    (3/4) d^2 at delta_max: q = 3 (2 + d) (3/2 - d/4) has roots -2 and 6,
    so q < 0 exactly when kappa > 3 + 2*sqrt(2).  ``violated``: delta_max
    > ``DELTA_NECESSARY``, rung 2 in delta form, as a scan's pass flag."""
    k, dmax, _ = _pair_probe(delta.values.tolist())
    q = 9.0 + 3.0 * dmax - 0.75 * dmax * dmax
    return ProbeResult(worst_pair=pair_indices(delta.dim)[k], delta_max=dmax,
                       quad_value=q, violated=dmax > DELTA_NECESSARY)


def _necessary_witness(spd: SpdMatrix) -> Witness | None:
    """Rung 2: where delta_max > ``DELTA_NECESSARY``, the probe y = (e_i +
    e_j)/sqrt(2) on the first largest ratio sum (:func:`_pair_probe`) at x
    = U'y, x_c = r U[i][c] + r U[j][c] with r = 1/sqrt(2), and lambda_min
    3/2 - delta_max/4, negative there; None otherwise and in dim 1."""
    if spd.dim < 2:
        return None
    k, dmax, lam = _pair_probe(spd.ratio_sums())
    if not dmax > DELTA_NECESSARY:
        return None
    i, j = pair_indices(spd.dim)[k]
    u, r = spd.spectral._u, 1.0 / math.sqrt(2.0)
    return Witness(point=tuple(r * a + r * b for a, b in zip(u[i], u[j])),
                   lambda_min=lam)


def falsify(spd: SpdMatrix, plan: SamplePlan | None = None) -> Witness | None:
    """A direction x where hess f is not PSD: rung 2's witness
    (:func:`_necessary_witness`), where h takes its least value over unit
    directions (docs/proofs.md#pair-term-identity), or None where delta_max
    <= ``DELTA_NECESSARY``.  No scan runs and no numpy loads; ``plan`` is
    accepted, as callers pass one, and not read."""
    return _necessary_witness(spd)


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

    witness = _necessary_witness(spd)
    if witness is not None:
        return verdict(Status.NOT_CONVEX, Certificate.NECESSARY_VIOLATED,
                       witness=witness)
    if n == 2:
        return verdict(Status.CONVEX, Certificate.EXACT_2D)
    if n == 3 and kappa <= KAPPA_SUFFICIENT_3D * inc:
        return verdict(Status.CONVEX, Certificate.SUFFICIENT_3D)
    if kappa <= KAPPA_SUFFICIENT_ANY * inc:
        return verdict(Status.CONVEX, Certificate.SUFFICIENT_ANY_DIM)

    from .forms import delta_from_spd
    from .sampling import or_default, scan_design
    return verdict(Status.UNDETERMINED, Certificate.SAMPLING_EXHAUSTED,
                   report=scan_design(delta_from_spd(spd), or_default(plan)))

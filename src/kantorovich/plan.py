"""The falsification budget of a scan: how many sphere directions it tests.

Kept apart from :mod:`kantorovich.sampling`, which runs the scans and
imports numpy, so that a command can build, check and count a plan, as
``boundary`` does, without loading numpy.  A plan is a dataclass, and
``dataclasses`` imports ``inspect``; so ``classify`` and the CLI import
this module only where a plan is read (a scan, a plan flag given, the
JSON ``seed``): a human-format ``analyze`` that kappa decides loads
neither.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SamplePlan", "DEFAULT_PLAN", "MAX_SAMPLES", "or_default",
           "sample_count"]

# Most rows of one sphere design.
MAX_SAMPLES = 1 << 27


@dataclass(frozen=True)
class SamplePlan:
    """Falsification budget: how many directions to test per dimension."""

    seed: int = 42
    angles_2d: int = 4096
    fibonacci_3d: int = 100_000
    random_nd: int = 200_000  # Kronecker-sequence rows in dim >= 4
    refine_rounds: int = 50  # validated, read by nothing: no descent runs

    def __post_init__(self):
        counts = (self.angles_2d, self.fibonacci_3d, self.random_nd)
        if not 1 <= min(counts) <= max(counts) <= MAX_SAMPLES:
            raise ValueError(f"sample counts must be in 1..{MAX_SAMPLES}")
        if self.refine_rounds < 0:
            raise ValueError("refine_rounds must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


DEFAULT_PLAN = SamplePlan()


def or_default(plan: SamplePlan | None) -> SamplePlan:
    """``plan``, or ``DEFAULT_PLAN`` where it is None."""
    return DEFAULT_PLAN if plan is None else plan


def sample_count(dim: int, plan: SamplePlan) -> int:
    """The rows of ``sampling.all_samples(dim, plan)``, counted, not built."""
    count = {2: plan.angles_2d, 3: plan.fibonacci_3d}.get(dim, plan.random_nd)
    return dim * (dim - 1) + (count if dim > 1 else 1)

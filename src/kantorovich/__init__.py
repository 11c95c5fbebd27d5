"""Convexity of the Kantorovich-type map (x'Ax)(x'A^-1 x) on SPD matrices.

The library decides convexity from the condition number alone whenever a
closed-form threshold applies, reduces the general question to a
positive-semidefiniteness check over the unit sphere in eigencoordinates,
and in the gap between the thresholds scans that check and reports it.
``falsify`` returns the explicit non-convexity witness of the necessary
rung in closed form, without a scan.  Grid routines certify the
supporting inequalities on their compact parameter boxes.

Everything else lives in the submodules (``kantorovich.classify``,
``kantorovich.lmi``, ...).  ``import kantorovich`` loads ``classify``
and ``linalg``, and no numpy, ``dataclasses`` or ``json``.  The other
submodules, and the names they define (``SamplePlan`` and ``DEFAULT_PLAN``
of ``plan`` among them), load on first use, with numpy where they use it.
Every point the library reports is a tuple of Python floats, so a verdict
that does not scan never loads numpy.
"""

import importlib

# ``classify`` stays eager: a lazy submodule of that name would shadow it.
from .classify import (Certificate, Status, classify, falsify,
                       necessary_probe)
from .linalg import MatrixValidationError, min_eigenvalue, validate_spd

__version__ = "0.1.0"

# Imported on first access, so an ``analyze`` that does not scan never
# loads them: name -> module.
_LAZY = {
    "SamplePlan": "plan", "DEFAULT_PLAN": "plan",
    "forms": "forms", "DeltaVector": "forms", "delta_from_spd": "forms",
    "h_form": "forms", "m_form": "forms", "sampling": "sampling",
    "boundary": "boundary", "EigenFamily": "boundary",
    "probe_boundary": "boundary",
    "function": "function", "f_hessian": "function", "fd_hessian": "function",
    "lmi": "lmi", "box_inequality_grid_check": "lmi",
    "detm_alpha_convexity_check": "lmi", "detm_alpha_poly": "lmi",
    "robust_psd_grid": "lmi",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_LAZY[name]}", __name__)
    return module if name == _LAZY[name] else getattr(module, name)


def __dir__():
    return sorted({*globals(), *_LAZY})


__all__ = [
    "Certificate",
    "DEFAULT_PLAN",
    "DeltaVector",
    "EigenFamily",
    "MatrixValidationError",
    "SamplePlan",
    "Status",
    "box_inequality_grid_check",
    "classify",
    "delta_from_spd",
    "detm_alpha_convexity_check",
    "detm_alpha_poly",
    "f_hessian",
    "falsify",
    "fd_hessian",
    "h_form",
    "m_form",
    "min_eigenvalue",
    "necessary_probe",
    "probe_boundary",
    "robust_psd_grid",
    "validate_spd",
    "__version__",
]

"""Convexity of the Kantorovich-type map (x'Ax)(x'A^-1 x) on SPD matrices.

The library decides convexity from the condition number alone whenever a
closed-form threshold applies, reduces the general question to a
positive-semidefiniteness check over the unit sphere in eigencoordinates,
and searches for explicit non-convexity witnesses otherwise.  Grid routines
certify the supporting inequalities on their compact parameter boxes.
"""

from .boundary import (BadInitialBracketError, BoundaryEstimate,
                       EigenFamily, SweepRow, probe_boundary, sweep,
                       sweep_csv)
from .classify import (BOUNDARY_REL_TOL, KAPPA_NECESSARY,
                       KAPPA_SUFFICIENT_3D, KAPPA_SUFFICIENT_ANY,
                       Certificate, ConvexityVerdict, Status, Thresholds,
                       Witness, classify, falsify, necessary_probe)
from .forms import (DeltaVector, delta_from_spd, det_m_alpha0, h_form,
                    h_form_batch, m_form, p_form, pair_indices, q_form)
from .function import (f_gradient, f_hessian, f_value, fd_hessian,
                       k_value, kantorovich_bound_check)
from .linalg import (MatrixValidationError, NotPositiveDefiniteError,
                     NotSymmetricError, SpdMatrix, SpectralData, eig_sym,
                     is_psd, min_eigenvalue, symmetrize, validate_spd)
from .lmi import (Axis, GridCheckSummary, GridScanReport, GridSpec,
                  box_inequalities, box_inequality_grid_check,
                  detm_alpha_convexity_check, detm_alpha_poly,
                  robust_psd_grid, verify_h_lmi)
from .sampling import (DEFAULT_PLAN, SamplePlan, SampleReport,
                       probe_directions, scan_h)

__version__ = "0.1.0"

__all__ = [
    "BOUNDARY_REL_TOL",
    "BadInitialBracketError",
    "BoundaryEstimate",
    "Axis",
    "Certificate",
    "ConvexityVerdict",
    "DeltaVector",
    "EigenFamily",
    "GridCheckSummary",
    "GridScanReport",
    "GridSpec",
    "KAPPA_NECESSARY",
    "KAPPA_SUFFICIENT_3D",
    "KAPPA_SUFFICIENT_ANY",
    "MatrixValidationError",
    "NotPositiveDefiniteError",
    "NotSymmetricError",
    "DEFAULT_PLAN",
    "SamplePlan",
    "SampleReport",
    "SpdMatrix",
    "SpectralData",
    "Status",
    "SweepRow",
    "Thresholds",
    "Witness",
    "box_inequalities",
    "box_inequality_grid_check",
    "classify",
    "delta_from_spd",
    "det_m_alpha0",
    "detm_alpha_convexity_check",
    "detm_alpha_poly",
    "eig_sym",
    "f_gradient",
    "f_hessian",
    "f_value",
    "falsify",
    "fd_hessian",
    "h_form",
    "h_form_batch",
    "is_psd",
    "k_value",
    "kantorovich_bound_check",
    "m_form",
    "min_eigenvalue",
    "necessary_probe",
    "p_form",
    "pair_indices",
    "probe_boundary",
    "probe_directions",
    "q_form",
    "robust_psd_grid",
    "scan_h",
    "sweep",
    "sweep_csv",
    "symmetrize",
    "validate_spd",
    "verify_h_lmi",
    "__version__",
]

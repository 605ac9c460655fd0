"""Dominance certificates, cone invariance, and two-time-scale decoupling
for singularly perturbed systems."""

__version__ = "0.1.0"

from .linalg import inertia, sym_eigvals, symmetric
from .cone import CONE_BOUNDARY_BAND, cone_ratio, make_cone
from .certify import (CertResult, SPDominanceCertificate, certify_polytope, lmi_residual,
                      vertex_stack)
from .decouple import (ChangDecoupling, build_decoupling, certify_sp, epsilon_star,
                       full_system_matrix, reduced_model, solve_chang_lti)
from .expressions import diff_expr, interval, parse_expr
from .systems import (SPRING_INITIAL_CONDITIONS, LinearSPSystem, NonlinearSPSystem,
                      jacobian_hull, jacobians, nonlinear_spring_certificate,
                      nonlinear_spring_system)
from .integrate import (Trajectory, VariationalTrajectory, detect_convergence,
                        find_equilibria, integrate, integrate_variational,
                        write_trajectory_csv)
from .analyze import certificate_cone, monotone_probe

__all__ = [
    "inertia", "sym_eigvals", "symmetric",
    "CONE_BOUNDARY_BAND", "cone_ratio", "make_cone",
    "CertResult", "SPDominanceCertificate", "certify_polytope", "lmi_residual", "vertex_stack",
    "ChangDecoupling", "build_decoupling", "certify_sp", "epsilon_star",
    "full_system_matrix", "reduced_model", "solve_chang_lti",
    "diff_expr", "interval", "parse_expr",
    "SPRING_INITIAL_CONDITIONS", "LinearSPSystem", "NonlinearSPSystem",
    "jacobian_hull", "jacobians",
    "nonlinear_spring_certificate", "nonlinear_spring_system",
    "Trajectory", "VariationalTrajectory", "detect_convergence",
    "find_equilibria", "integrate", "integrate_variational",
    "write_trajectory_csv",
    "certificate_cone", "monotone_probe",
]

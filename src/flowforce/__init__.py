"""Spectral toolkit for steady periodic capillary-gravity water waves.

The free-surface problem is posed in conformal variables on a periodic
strip and rewritten through the flow-force density, which turns the
kinematic and dynamic boundary conditions into a single quasilinear
equation for the surface elevation.  This package evaluates that
equation spectrally, locates the laminar onset values where nontrivial
waves bifurcate, traces small-amplitude branches by Newton
continuation, and rebuilds the flow-force field in the fluid domain
with self-auditing defect measurements.
"""

from .continuation import (
    Branch,
    BranchPoint,
    branch_diagnostics,
    initial_guess,
    newton_correct,
    trace_branch,
)
from .dispersion import (
    DispersionRow,
    KernelReport,
    dispersion_table,
    kernel_is_simple,
    monotone_dispersion,
    onset_speed_sq,
    physical_constants,
    solver_parameters,
    transversality_value,
)
from .errors import (
    ConfigError,
    FlowForceError,
    InadmissibleIterate,
    InvalidSamples,
    KernelNotSimple,
    MeanNotZero,
    NoConvergence,
    SingularExpression,
    SingularJacobian,
    SurfaceInversionFailed,
)
from .fields import (
    FlowForceField,
    SurfaceCurve,
    ValidationReport,
    conformal_map,
    laminar_flow_force,
    reconstruct,
    validate_solution,
)
from .params import PhysicalParams
from .spectral import (
    PeriodicFunction,
    analyze,
    conjugate_extension,
    derivative,
    dirichlet_neumann,
    grid_nodes,
    harmonic_extension,
    hilbert_strip,
    strip_nodes,
)
from .surface_equation import (
    AdmissibilityReport,
    TrialState,
    check_admissibility,
    galerkin_residual,
    jacobian_fd,
    linearization_symbol,
    residual,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityReport",
    "Branch",
    "BranchPoint",
    "ConfigError",
    "DispersionRow",
    "FlowForceError",
    "FlowForceField",
    "InadmissibleIterate",
    "InvalidSamples",
    "KernelNotSimple",
    "KernelReport",
    "MeanNotZero",
    "NoConvergence",
    "PeriodicFunction",
    "PhysicalParams",
    "SingularExpression",
    "SingularJacobian",
    "SurfaceCurve",
    "SurfaceInversionFailed",
    "TrialState",
    "ValidationReport",
    "analyze",
    "branch_diagnostics",
    "check_admissibility",
    "conformal_map",
    "conjugate_extension",
    "derivative",
    "dirichlet_neumann",
    "dispersion_table",
    "galerkin_residual",
    "grid_nodes",
    "harmonic_extension",
    "hilbert_strip",
    "initial_guess",
    "jacobian_fd",
    "kernel_is_simple",
    "laminar_flow_force",
    "linearization_symbol",
    "monotone_dispersion",
    "newton_correct",
    "onset_speed_sq",
    "physical_constants",
    "reconstruct",
    "residual",
    "solver_parameters",
    "strip_nodes",
    "trace_branch",
    "transversality_value",
    "validate_solution",
]

"""Saturated boundary-feedback design for 1-D linear hyperbolic transport
systems: matrix-inequality synthesis of stabilizing gains, input-to-state
stability certificates, and finite-volume validation of the certified bound.
"""

from .control import (
    BoundaryLaw,
    FeasibilityMap,
    GridCell,
    InfeasibleError,
    IssCoefficients,
    Plant,
    SolverFailureError,
    SynthesisCertificate,
    SynthesisError,
    WellPosednessConstants,
    build_analysis_lmis,
    build_synthesis_lmis,
    closed_loop_boundary,
    grid_search,
    iss_coefficients,
    saturate,
    synthesis_margins,
    synthesize,
    verify_analysis,
    wellposedness_certificate,
)
from .linalg import DiagMatrix, Matrix, SymMatrix, invert_diag
from .pde import (
    BlowUpError,
    Grid,
    IssBoundParams,
    SignalSpec,
    SimConfig,
    Trajectory,
    disturbance_energy,
    iss_bound_params,
    iss_rhs,
    simulate,
)

__all__ = [
    "BlowUpError",
    "BoundaryLaw",
    "DiagMatrix",
    "FeasibilityMap",
    "Grid",
    "GridCell",
    "InfeasibleError",
    "IssBoundParams",
    "IssCoefficients",
    "Matrix",
    "Plant",
    "SignalSpec",
    "SimConfig",
    "SolverFailureError",
    "SymMatrix",
    "SynthesisCertificate",
    "SynthesisError",
    "Trajectory",
    "WellPosednessConstants",
    "build_analysis_lmis",
    "build_synthesis_lmis",
    "closed_loop_boundary",
    "disturbance_energy",
    "grid_search",
    "invert_diag",
    "iss_bound_params",
    "iss_coefficients",
    "iss_rhs",
    "saturate",
    "simulate",
    "synthesis_margins",
    "synthesize",
    "verify_analysis",
    "wellposedness_certificate",
]

__version__ = "0.1.0"

"""Fast-slow adaptive phase-oscillator networks.

Simulation of the full two-time-scale system, closed-form reduction of the
phase dynamics to first order in the time-scale ratio, and certification
that the reduced dynamics contain genuinely nonpairwise three-node
interactions.
"""

__version__ = "0.1.0"

from .model import (
    CapabilityError,
    ContractError,
    Coupling,
    ExperimentError,
    FullState,
    IntegrationError,
    KuramotoCoupling,
    ModelParams,
    make_kuramoto,
    phase_distance,
    wrap_phase,
)
from .fields import (
    ReducedField,
    critical_weights,
    pair_correction,
    phase_rhs,
    slow_manifold,
    triplet_interaction,
    weight_correction,
    weight_rhs,
)
from .integrate import (
    IntegrationConfig,
    Trajectory,
    default_config,
    integrate_full,
    integrate_reduced,
    rk4_step,
    trajectory_to_csv,
)
from .certificate import (
    DECISION_CERTIFIED,
    DECISION_NO_EVIDENCE,
    CertificateReport,
    PushforwardField,
    anchor_point,
    certify_nonpairwise,
    default_scan_points,
    mixed_second_derivative_fd,
    node_respecting_transform,
    pushforward_certificate_invariance,
    scan_mixed_derivatives,
    triplet_mixed_derivative,
)
from .studies import (
    AttractionReport,
    ConvergenceReport,
    SlopeFit,
    attraction_study,
    convergence_study,
    distance_to_slow_manifold,
    fit_loglog,
)

__all__ = [
    "AttractionReport",
    "CapabilityError",
    "CertificateReport",
    "ContractError",
    "ConvergenceReport",
    "Coupling",
    "DECISION_CERTIFIED",
    "DECISION_NO_EVIDENCE",
    "ExperimentError",
    "FullState",
    "IntegrationConfig",
    "IntegrationError",
    "KuramotoCoupling",
    "ModelParams",
    "PushforwardField",
    "ReducedField",
    "SlopeFit",
    "Trajectory",
    "anchor_point",
    "attraction_study",
    "certify_nonpairwise",
    "convergence_study",
    "critical_weights",
    "default_config",
    "default_scan_points",
    "distance_to_slow_manifold",
    "fit_loglog",
    "integrate_full",
    "integrate_reduced",
    "make_kuramoto",
    "mixed_second_derivative_fd",
    "node_respecting_transform",
    "pair_correction",
    "phase_distance",
    "phase_rhs",
    "pushforward_certificate_invariance",
    "rk4_step",
    "scan_mixed_derivatives",
    "slow_manifold",
    "trajectory_to_csv",
    "triplet_interaction",
    "triplet_mixed_derivative",
    "weight_correction",
    "weight_rhs",
    "wrap_phase",
]

"""Geodesic X-ray tomography on asymptotically hyperbolic collars.

Metrics are handled in the normal form g = (d rho^2 + h_rho) / rho^2 near
the conformal boundary at rho = 0.  The package traces boundary-to-boundary
geodesics of the rescaled flow, evaluates scattering maps, renormalized
lengths, weighted X-ray transforms, boundary jet recovery from lengths of
short geodesics, and asymptotic Jacobi-field diagnostics, with exact
hyperbolic models available as cross-checks.
"""

from .metric import (
    BoundaryMetricFamily, Chart, MetricError, TrigPoly,
    christoffel_symbols, disc_family, eval_metric, gauss_curvature,
    halfplane_family, make_family, perturbed_family, product_family,
    radial_power_family, taylor1d_family,
)
from .flow import (
    BoundaryCovector, BPhasePoint, CollarExitError,
    FlowError, GeodesicTrajectory, TrappedOrSlowError,
    barX_eval, flip_state,
    scattering_jacobian, scattering_map, trace_from_state,
    trace_geodesic,
)
from .renorm import (
    BoundaryDistanceResult, MellinLength, RenormLength, ShootingError,
    boundary_distance, conformal_shift, deformation_derivative, mellin_length,
    renormalized_length, scattering_from_distance_check,
)
from .xray import (
    AdjointnessResult, GaugeResult, SantaloResult, SymmetricTensorField,
    adjointness_check, backward_boundary_point, gauge_normalize, grazing_eta,
    resolvent_zero, santalo_check, sym_derivative, xray_transform,
)
from .jacobi import (
    BundleFrame, DecayFit, JacobiSystem, RateBracket,
    SimplicityReport, boundary_rate_bracket, conjugate_points,
    curvature_decay_fit, decay_fit, diagnose_covector, jacobi_solve,
    jacobi_system, simplicity_report, stable_unstable, wronskian,
)
from .recover import (
    H0Recovery, JetEstimate, LengthSampleSet, RecoveryError, delta_max,
    recover_first_jet, recover_h0, recover_jet_fit, synthesize_samples,
)

__version__ = "0.1.0"

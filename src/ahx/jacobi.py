"""Linearized flow diagnostics along traced geodesics.

Scalar Jacobi fields in hyperbolic time, conjugate-point detection,
stable/unstable solutions seeded by their boundary asymptotics, decay-rate
fits, and the boundary-approach rate bracket.  The hyperbolic time t is
arclength along the geodesic, anchored at t = 0 where rho peaks, and is
related to the flow parameter by dtau/dt = rho.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import null_space
from scipy.optimize import brentq

from .metric import BoundaryMetricFamily, gauss_curvature
from .flow import (BPhasePoint, FlowError, GeodesicTrajectory, _make_rhs,
                   trace_geodesic)

__all__ = [
    "JacobiSystem", "jacobi_system", "JacobiSolution", "jacobi_solve",
    "conjugate_points", "BundleFrame", "stable_unstable", "wronskian",
    "DecayFit", "decay_fit", "curvature_decay_fit",
    "RateBracket", "boundary_rate_bracket",
    "SimplicityReport", "simplicity_check", "linearized_flow",
]

MAP_TOL = 1e-13
SOLVE_TOL = 1e-12
ASYM_CURV_TOL = 1e-10


@dataclass
class JacobiSystem:
    """Base trajectory plus the data needed to integrate normal Jacobi fields.

    Holds the hyperbolic-time parametrization t -> tau (t = 0 at the rho
    peak) and the sectional curvature along the geodesic.  Scalar curvature
    bookkeeping restricts construction to one-dimensional boundaries; for
    higher rank use linearized_flow on the trajectory directly.
    """

    fam: BoundaryMetricFamily
    traj: GeodesicTrajectory
    tau_peak: float
    t_range: float
    _fwd: object
    _bwd: object

    def tau_of_t(self, t: float) -> float:
        if abs(t) > self.t_range * (1.0 + 1e-12):
            raise ValueError("time %g exceeds the mapped range %g"
                             % (t, self.t_range))
        sol = self._fwd if t >= 0.0 else self._bwd
        return float(sol(t)[0])

    def state_at_time(self, t: float) -> BPhasePoint:
        return self.traj.state_at(self.tau_of_t(t))

    def curvature(self, t: float) -> float:
        row = self.traj.eval_raw(self.tau_of_t(t))
        rho = row[0]
        if rho <= 0.0:
            return -1.0
        return gauss_curvature(self.fam, rho, row[1:1 + self.traj.n])


def jacobi_system(fam: BoundaryMetricFamily, traj: GeodesicTrajectory,
                  t_range: float = 32.0) -> JacobiSystem:
    """Attach the hyperbolic-time map and curvature trace to a trajectory."""
    if traj.n != 1:
        raise NotImplementedError(
            "scalar Jacobi bookkeeping needs a 1-dimensional boundary; "
            "use linearized_flow for general rank")
    tau_peak, _ = traj.rho_peak()

    def rhs(t, s):
        return (max(traj.eval_raw(s[0])[0], 0.0),)

    fwd = solve_ivp(rhs, (0.0, t_range), [tau_peak], method="DOP853",
                    rtol=MAP_TOL, atol=MAP_TOL, dense_output=True)
    bwd = solve_ivp(rhs, (0.0, -t_range), [tau_peak], method="DOP853",
                    rtol=MAP_TOL, atol=MAP_TOL, dense_output=True)
    if not (fwd.success and bwd.success):
        raise FlowError("hyperbolic-time map integration failed")
    return JacobiSystem(fam=fam, traj=traj, tau_peak=tau_peak,
                        t_range=t_range, _fwd=fwd.sol, _bwd=bwd.sol)


@dataclass
class JacobiSolution:
    """Samples of a scalar Jacobi field over a time span."""

    ts: np.ndarray
    y: np.ndarray
    ydot: np.ndarray
    _sol: object

    def at(self, t: float) -> Tuple[float, float]:
        v = self._sol(t)
        return float(v[0]), float(v[1])


def jacobi_solve(system: JacobiSystem, y0: float, ydot0: float,
                 t_span: Tuple[float, float], rtol: float = SOLVE_TOL,
                 atol: float = SOLVE_TOL) -> JacobiSolution:
    """Integrate ydd + K(t) y = 0 along the base geodesic over t_span.

    t_span may run in either direction; both endpoints must lie inside the
    system's mapped time range.  Growth over the admissible spans stays many
    orders below overflow, so no mid-run renormalization is needed.
    """
    for t in t_span:
        if abs(t) > system.t_range * (1.0 + 1e-12):
            raise ValueError("t_span exceeds the mapped time range")

    def rhs(t, s):
        return (s[1], -system.curvature(t) * s[0])

    sol = solve_ivp(rhs, t_span, [y0, ydot0], method="DOP853",
                    rtol=rtol, atol=atol, dense_output=True)
    if not sol.success:
        raise FlowError("Jacobi integration failed: %s" % sol.message)
    return JacobiSolution(ts=sol.t, y=sol.y[0], ydot=sol.y[1], _sol=sol.sol)


def wronskian(a: JacobiSolution, b: JacobiSolution, ts) -> np.ndarray:
    """y_a ydot_b - y_b ydot_a sampled at ts (t-constant for exact fields)."""
    out = np.empty(len(ts))
    for i, t in enumerate(ts):
        ya, va = a.at(t)
        yb, vb = b.at(t)
        out[i] = ya * vb - yb * va
    return out


def conjugate_points(system: JacobiSystem, t_max: float,
                     t0: float = 0.0) -> List[float]:
    """Times conjugate to the base time t0 along the geodesic.

    Zeros in (t0, t0 + t_max] of the field with y(t0) = 0, ydot(t0) = 1.
    The default base point is the anchor; moving t0 toward the incoming
    end tests base points whose field crosses the interior both inbound
    and outbound.
    """
    sol = jacobi_solve(system, 0.0, 1.0, (t0, t0 + t_max))
    zeros: List[float] = []
    ts, ys = sol.ts, sol.y
    for i in range(1, len(ts) - 1):
        if ys[i] == 0.0:
            zeros.append(float(ts[i]))
        elif ys[i] * ys[i + 1] < 0.0:
            zeros.append(float(brentq(lambda t: sol.at(t)[0],
                                      ts[i], ts[i + 1], xtol=1e-12)))
    if len(ts) > 1 and ys[-1] == 0.0:
        zeros.append(float(ts[-1]))
    return zeros


@dataclass
class BundleFrame:
    """Stable/unstable data of the linearized flow at the t = 0 anchor."""

    point: BPhasePoint
    stable: np.ndarray
    unstable: np.ndarray
    angle_deg: float
    det0: float
    T_asym: float
    stable_sol: JacobiSolution = field(repr=False, default=None)
    unstable_sol: JacobiSolution = field(repr=False, default=None)


def _unit_with_sign(v: np.ndarray) -> np.ndarray:
    u = v / math.hypot(v[0], v[1])
    if u[0] < 0.0 or (u[0] == 0.0 and u[1] < 0.0):
        u = -u
    return u


def stable_unstable(system: JacobiSystem,
                    T_asym: float = 25.0) -> BundleFrame:
    """Solutions decaying at t -> +inf (stable) and t -> -inf (unstable).

    Seeds the asymptotic solution e^{-t} of the frozen boundary equation at
    t = +-T_asym and integrates to the anchor, where both directions are
    normalized.  Requires the curvature to have settled to its boundary
    value at the seeding times.
    """
    for t_seed in (T_asym, -T_asym):
        resid = abs(system.curvature(t_seed) + 1.0)
        if resid > ASYM_CURV_TOL:
            raise ValueError(
                "curvature has not reached its asymptote at t=%g "
                "(residual %.2e); increase T_asym or the mapped range"
                % (t_seed, resid))
    scale = math.exp(-T_asym)
    # absolute tolerance scaled to the seed, else the solver injects an
    # unstable-mode error of a few tolerance units near the seeding time
    seed_atol = SOLVE_TOL * scale
    s_sol = jacobi_solve(system, scale, -scale, (T_asym, 0.0), atol=seed_atol)
    u_sol = jacobi_solve(system, scale, scale, (-T_asym, 0.0), atol=seed_atol)
    s = _unit_with_sign(np.array(s_sol.at(0.0)))
    u = _unit_with_sign(np.array(u_sol.at(0.0)))
    dot = min(1.0, abs(float(s @ u)))
    det0 = float(s[0] * u[1] - s[1] * u[0])
    return BundleFrame(point=system.traj.state_at(system.tau_peak),
                       stable=s, unstable=u,
                       angle_deg=math.degrees(math.acos(dot)),
                       det0=det0, T_asym=T_asym,
                       stable_sol=s_sol, unstable_sol=u_sol)


@dataclass
class DecayFit:
    nu: float
    growth_const: float


def decay_fit(frame: BundleFrame, t_lo: float = 2.0,
              t_hi: Optional[float] = None, nu_ref: float = 0.95,
              ns: int = 160) -> DecayFit:
    """Measured decay of the stable solution in the |y| + |ydot| norm.

    nu is the least-squares slope of the log-norm over [t_lo, t_hi];
    growth_const is the smallest C with norm(t) <= C e^{-nu_ref (t-s)}
    norm(s) over all sampled pairs s < t.
    """
    if t_hi is None:
        t_hi = frame.T_asym
    ts = np.linspace(t_lo, t_hi, ns)
    logm = np.empty(ns)
    for i, t in enumerate(ts):
        y, v = frame.stable_sol.at(t)
        logm[i] = math.log(abs(y) + abs(v))
    nu = -float(np.polyfit(ts, logm, 1)[0])
    r = logm + nu_ref * ts
    run_min = np.minimum.accumulate(r)
    c = float(np.max(r[1:] - run_min[:-1]))
    return DecayFit(nu=nu, growth_const=math.exp(max(c, 0.0)))


def curvature_decay_fit(system: JacobiSystem, t_lo: float = 1.0,
                        t_hi: Optional[float] = None,
                        ns: int = 121) -> float:
    """Smallest C with |K(t)+1| <= C e^{-|t|} over the sampled range."""
    if t_hi is None:
        t_hi = system.t_range - 1.0
    ts = np.linspace(t_lo, t_hi, ns)
    c = 0.0
    for t in ts:
        for s in (t, -t):
            c = max(c, abs(system.curvature(s) + 1.0) * math.exp(abs(s)))
    return c


@dataclass
class RateBracket:
    """Two-sided bracket of the exponential boundary approach.

    Along each escaping tail, rho(t2) / (rho(t1) e^{-(t2-t1)}) lies in
    [lower_margin, c_upper] over all ordered sample pairs; the exact lower
    bound is 1.
    """

    c_upper: float
    lower_margin: float


def boundary_rate_bracket(traj: GeodesicTrajectory,
                          rho_floor: float = 0.012,
                          rho_enter: Optional[float] = None,
                          ns: int = 600) -> RateBracket:
    """Measure rho(t) against e^{-t} decay on both escaping tails.

    The window starts once rho has dropped to rho_enter (default half the
    peak, capped at 0.25) and stops at rho_floor, above the arclength gate
    so differences of :meth:`GeodesicTrajectory.arclength_at` are exact
    arclength.
    """
    tau_peak, rho_pk = traj.rho_peak()
    if rho_enter is None:
        rho_enter = min(0.25, 0.5 * rho_pk)
    taus = np.linspace(0.0, traj.tau_plus, ns)
    rho = traj.eval_many(taus)[:, 0]
    t_acc = traj.arclength_at(taus)
    hi, lo = -np.inf, np.inf
    for outgoing in (True, False):
        if outgoing:
            mask = (taus > tau_peak) & (rho <= rho_enter) & (rho >= rho_floor)
            r = np.log(rho[mask]) + t_acc[mask]
        else:
            mask = (taus < tau_peak) & (rho <= rho_enter) & (rho >= rho_floor)
            # reversed order so the tail is traversed away from the peak
            r = np.log(rho[mask][::-1]) - t_acc[mask][::-1]
        if r.size < 2:
            continue
        run_min = np.minimum.accumulate(r)
        run_max = np.maximum.accumulate(r)
        hi = max(hi, float(np.max(r[1:] - run_min[:-1])))
        lo = min(lo, float(np.min(r[1:] - run_max[:-1])))
    if not np.isfinite(hi):
        raise ValueError("trajectory has no samples in the tail window")
    return RateBracket(c_upper=math.exp(hi), lower_margin=math.exp(lo))


# ---------------------------------------------------------------------------
# general-rank linearized flow


def linearized_flow(fam: BoundaryMetricFamily, traj: GeodesicTrajectory,
                    dz0: np.ndarray, taus: np.ndarray,
                    eps: float = 1e-7) -> np.ndarray:
    """Evolve tangent vectors of the rescaled flow along a trajectory.

    dz0 has shape (k, 2n+2) in (rho, y, xi_b, eta) order; returns the
    evolved vectors at the requested flow parameters, shape
    (len(taus), k, 2n+2).  The Jacobian action is a centered directional
    difference of the flow's right-hand side about the dense base orbit.
    """
    n = traj.n
    dim = 2 * n + 2
    rhs = _make_rhs(fam)
    dz0 = np.atleast_2d(np.asarray(dz0, dtype=float))
    k = dz0.shape[0]

    def var_rhs(tau, flat):
        base = traj.eval_raw(tau)
        out = np.empty_like(flat)
        for j in range(k):
            d = flat[j * dim:(j + 1) * dim]
            nrm = np.linalg.norm(d)
            if nrm == 0.0:
                out[j * dim:(j + 1) * dim] = 0.0
                continue
            step = eps * max(1.0, np.linalg.norm(base)) / nrm
            out[j * dim:(j + 1) * dim] = \
                (rhs(tau, base + step * d) - rhs(tau, base - step * d)) \
                / (2.0 * step)
        return out

    taus = np.asarray(taus, dtype=float)
    sol = solve_ivp(var_rhs, (taus[0], taus[-1]), dz0.ravel(),
                    method="DOP853", rtol=1e-10, atol=1e-12,
                    t_eval=taus, dense_output=False)
    if not sol.success:
        raise FlowError("linearized flow integration failed: %s" % sol.message)
    return sol.y.T.reshape(len(taus), k, dim)


def vertical_seed_basis(fam: BoundaryMetricFamily,
                        state: BPhasePoint) -> np.ndarray:
    """Basis of fiber (vertical) tangent directions at a phase point.

    Rows are (drho, dy, dxi_b, deta) vectors with zero position part that
    satisfy the linearized unit-covector constraint.
    """
    n = state.y.size
    dim = 2 * n + 2
    hin_eta = state.eta / fam.diag(state.rho, state.y)[0]
    # linearized constraint restricted to the fiber block (dxi_b, deta)
    row = np.empty((1, n + 1))
    row[0, 0] = state.xi_b
    row[0, 1:] = state.rho ** 2 * hin_eta
    fiber = null_space(row).T
    if fiber.shape[0] != n:
        raise ValueError("could not build a full vertical basis")
    seeds = np.zeros((n, dim))
    seeds[:, n + 1:] = fiber
    return seeds


# ---------------------------------------------------------------------------
# grid sweep


@dataclass
class SimplicityReport:
    """Aggregate linearized-flow diagnostics over a covector grid."""

    min_angle_deg: float
    conjugate_count: int
    nu_fit: float
    C_fit: float
    trace_failures: int
    n_geodesics: int

    def to_json(self) -> str:
        return json.dumps({
            "min_angle_deg": self.min_angle_deg,
            "conjugate_count": self.conjugate_count,
            "nu_fit": self.nu_fit,
            "C_fit": self.C_fit,
            "trace_failures": self.trace_failures,
            "n_geodesics": self.n_geodesics,
        })


def simplicity_check(fam: BoundaryMetricFamily,
                     covectors: Sequence[Tuple[float, float]],
                     T_asym: float = 25.0, t_scan: float = 12.0,
                     trace_tol: float = 1e-10) -> SimplicityReport:
    """Sweep stable/unstable frames and conjugate points over a grid.

    Reports the minimal transversality angle, the total number of detected
    conjugate points, the slowest fitted decay exponent, the largest
    curvature-decay constant, and how many traces failed.
    """
    min_angle = math.inf
    count = 0
    failures = 0
    traced = 0
    nu_min = math.inf
    c_max = 0.0
    for z in covectors:
        try:
            traj = trace_geodesic(fam, z, tol=trace_tol)
        except FlowError:
            failures += 1
            continue
        traced += 1
        system = jacobi_system(fam, traj, t_range=T_asym + 2.0)
        frame = stable_unstable(system, T_asym)
        min_angle = min(min_angle, frame.angle_deg)
        count += len(conjugate_points(system, t_scan))
        fit = decay_fit(frame)
        nu_min = min(nu_min, fit.nu)
        c_max = max(c_max, curvature_decay_fit(system))
    return SimplicityReport(min_angle_deg=min_angle, conjugate_count=count,
                            nu_fit=nu_min, C_fit=c_max,
                            trace_failures=failures, n_geodesics=traced)

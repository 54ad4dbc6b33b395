"""Jacobi diagnostics along traced geodesics.

Scalar Jacobi fields in hyperbolic time, conjugate-point detection,
stable/unstable solutions seeded by their boundary asymptotics, decay-rate
fits, and the boundary-approach rate bracket.  The hyperbolic time t is
arclength along the geodesic, dt = dtau / rho, anchored at t = 0 at the
apex, the root of xi_b where rho peaks.  A :class:`JacobiSystem` integrates
the geodesic's state in t, from its apex outward, so the Jacobi equation
reads the curvature from one dense solution.  Every integration here runs
on the traces' DOP853 stepper and dense-output type, ``flow._Solution``: a
Jacobi field is the solution of [y, ydot], read at one t by ``at``, at many
by ``batch``, and at its steps by ``ts`` and ``ys``.  Its atol is
``SOLVE_TOL`` times the size of its seed, since the equation is linear and
the stable and unstable fields start at e^{-T_asym}.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ._brent import brentq
from .metric import BoundaryMetricFamily, gauss_curvature
from .flow import (DEFAULT_TOL, FlowError, GeodesicTrajectory, _integrate,
                   _make_rhs, _Solution, trace_geodesic)

__all__ = [
    "JacobiSystem", "jacobi_system", "jacobi_solve",
    "conjugate_points", "BundleFrame", "stable_unstable", "wronskian",
    "DecayFit", "decay_fit", "curvature_decay_fit",
    "RateBracket", "boundary_rate_bracket", "AsymptoteError",
    "SimplicityReport", "CovectorDiagnostics", "diagnose_covector",
    "simplicity_report",
]

MAP_TOL = 1e-13
SOLVE_TOL = 1e-12
ASYM_CURV_TOL = 1e-10
# default seeding time of the stable/unstable frame and conjugate-scan span
T_ASYM = 25.0
T_SCAN = 12.0


class AsymptoteError(ValueError):
    """A Jacobi time span the fields cannot resolve: the curvature is not
    yet -1 where :func:`stable_unstable` seeds, the seed underflows, or the
    conjugate scan overflows."""


@dataclass
class JacobiSystem:
    """A geodesic in hyperbolic time, and its curvature.

    ``_fwd`` and ``_bwd`` hold the orbit, the state [rho, y, xi_b, eta] at
    each hyperbolic time t, on [0, t_range] and [-t_range, 0], with t = 0
    at the apex of the trace it started from.  Every method reads them and
    nothing from the trace.  Scalar curvature bookkeeping restricts
    construction to one-dimensional boundaries.
    """

    fam: BoundaryMetricFamily
    t_range: float
    _fwd: _Solution     # the orbit on [0, t_range]
    _bwd: _Solution     # and on [-t_range, 0]

    def _orbit(self, t: float) -> list:
        if abs(t) > self.t_range * (1.0 + 1e-12):
            raise ValueError("time %g exceeds the mapped range %g"
                             % (t, self.t_range))
        return (self._fwd if t >= 0.0 else self._bwd).at(t)

    def curvature(self, t: float) -> float:
        rho, y = self._orbit(t)[:2]
        if rho <= 0.0:
            return -1.0
        return gauss_curvature(self.fam, rho, y)


def jacobi_system(fam: BoundaryMetricFamily, traj: GeodesicTrajectory,
                  t_range: float = 32.0) -> JacobiSystem:
    """Integrate the orbit of ``traj`` in hyperbolic time t.

    The orbit is the state z = [rho, y, xi_b, eta] alone, dz/dt =
    rho barX(z), from the trace's state at its apex (``traj.rho_peak()``)
    forward to t_range and backward to -t_range, at rtol and atol
    ``MAP_TOL``; it keeps no flow parameter.  ``fam`` must be the family
    ``traj`` was traced in (equal ``spec()``), since the curvature and the
    flow are read from ``fam``; another raises ValueError.
    """
    if fam.spec() != traj.family.spec():
        raise ValueError("family %s is not the trajectory's family %s"
                         % (fam.spec(), traj.family.spec()))
    if traj.n != 1:
        raise NotImplementedError(
            "scalar Jacobi bookkeeping needs a 1-dimensional boundary")
    flow_rhs = _make_rhs(fam)

    def rhs(t, z):
        return z[0] * flow_rhs(t, z)

    z0 = traj.state_at(traj.rho_peak()[0]).as_vector()
    fwd, bwd = (_integrate(rhs, 0.0, z0, t, MAP_TOL, MAP_TOL,
                           "orbit integration")
                for t in (t_range, -t_range))
    return JacobiSystem(fam=fam, t_range=t_range, _fwd=fwd, _bwd=bwd)


def jacobi_solve(system: JacobiSystem, y0: float, ydot0: float,
                 t_span: Tuple[float, float]) -> _Solution:
    """Integrate ydd + K(t) y = 0 along the base geodesic over t_span, on
    the traces' stepper at rtol ``SOLVE_TOL`` and atol ``SOLVE_TOL`` times
    max(|y0|, |ydot0|); the field is the dense solution of [y, ydot].

    The equation is linear, so the field scales with its seed, and so does
    this atol: a seed of size e^{-T} is solved as the unit seed would be,
    where a fixed atol would inject an unstable-mode error of a few atol
    units near a small seed.  A seed whose atol comes out 0 raises
    ValueError.  t_span may run in either direction; a time outside the
    system's mapped range raises ValueError from the curvature read.  No
    mid-run renormalization is done: where K is near -1 a field grows like
    e^{|t|}, so a span of more than about 700 overflows.
    """
    atol = SOLVE_TOL * max(abs(y0), abs(ydot0))
    if not atol > 0.0:
        raise ValueError("seed (%g, %g) gives a Jacobi atol of %g"
                         % (y0, ydot0, atol))

    def rhs(t, s):
        return np.array([s[1], -system.curvature(t) * s[0]])

    return _integrate(rhs, t_span[0], [y0, ydot0], t_span[1], SOLVE_TOL,
                      atol, "Jacobi integration")


def wronskian(a: _Solution, b: _Solution, ts) -> np.ndarray:
    """y_a ydot_b - y_b ydot_a sampled at ts (t-constant for exact fields)."""
    (ya, va), (yb, vb) = a.batch(ts).T, b.batch(ts).T
    return ya * vb - yb * va


def conjugate_points(system: JacobiSystem, t_max: float,
                     t0: float = 0.0) -> List[float]:
    """Times conjugate to the base time t0 along the geodesic.

    Zeros in (t0, t0 + t_max] of the field with y(t0) = 0, ydot(t0) = 1.
    The default base point is the anchor; moving t0 toward the incoming
    end tests base points whose field crosses the interior both inbound
    and outbound.  The field grows like e^{|t|}, and a scan whose field
    overflows (t_max above about 700) raises :class:`AsymptoteError`.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            sol = jacobi_solve(system, 0.0, 1.0, (t0, t0 + t_max))
    except FloatingPointError:
        raise AsymptoteError(
            "t_max=%g is too large: the conjugate scan's field overflows"
            % t_max) from None
    zeros: List[float] = []
    ts, ys = sol.ts, sol.ys[:, 0]
    sign = np.sign(ys)
    for i in range(1, len(ts) - 1):
        if ys[i] == 0.0:
            zeros.append(float(ts[i]))
        elif sign[i] * sign[i + 1] < 0.0:
            zeros.append(brentq(lambda t: sol.at(t)[0],
                                ts[i], ts[i + 1], xtol=1e-12))
    if len(ts) > 1 and ys[-1] == 0.0:
        zeros.append(float(ts[-1]))
    return zeros


@dataclass
class BundleFrame:
    """Stable/unstable data of the linearized flow at the t = 0 anchor."""

    stable: np.ndarray
    unstable: np.ndarray
    angle_deg: float
    det0: float
    T_asym: float
    stable_sol: _Solution = field(repr=False, default=None)
    unstable_sol: _Solution = field(repr=False, default=None)


def _unit_with_sign(v: np.ndarray) -> np.ndarray:
    u = v / math.hypot(v[0], v[1])
    if u[0] < 0.0 or (u[0] == 0.0 and u[1] < 0.0):
        u = -u
    return u


def stable_unstable(system: JacobiSystem,
                    T_asym: float = T_ASYM) -> BundleFrame:
    """Solutions decaying at t -> +inf (stable) and t -> -inf (unstable).

    Seeds the asymptotic solution e^{-t} of the frozen boundary equation at
    t = +-T_asym and integrates to the anchor, where both directions are
    normalized.  Raises :class:`AsymptoteError` before any integration when
    the seed's atol ``SOLVE_TOL`` e^{-T_asym} underflows to 0 (T_asym above
    about 717) or the curvature has not settled to its boundary value at
    the seeding times.
    """
    scale = math.exp(-T_asym)
    if SOLVE_TOL * scale == 0.0:
        raise AsymptoteError(
            "T_asym=%g is too large: the atol of its seed e^-T_asym "
            "underflows to 0" % T_asym)
    for t_seed in (T_asym, -T_asym):
        resid = abs(system.curvature(t_seed) + 1.0)
        if resid > ASYM_CURV_TOL:
            raise AsymptoteError(
                "curvature has not reached its asymptote at t=%g "
                "(residual %.2e); increase T_asym or the mapped range"
                % (t_seed, resid))
    s_sol = jacobi_solve(system, scale, -scale, (T_asym, 0.0))
    u_sol = jacobi_solve(system, scale, scale, (-T_asym, 0.0))
    s = _unit_with_sign(np.array(s_sol.at(0.0)))
    u = _unit_with_sign(np.array(u_sol.at(0.0)))
    dot = min(1.0, abs(float(s @ u)))
    det0 = float(s[0] * u[1] - s[1] * u[0])
    return BundleFrame(stable=s, unstable=u,
                       angle_deg=math.degrees(math.acos(dot)),
                       det0=det0, T_asym=T_asym,
                       stable_sol=s_sol, unstable_sol=u_sol)


@dataclass
class DecayFit:
    nu: float
    growth_const: float


def decay_fit(frame: BundleFrame) -> DecayFit:
    """Measured decay of the stable solution in the |y| + |ydot| norm.

    It is sampled at 160 times in [2, T_asym], which leaves out the anchor
    t = 0, where the curvature is furthest from its boundary value -1, and
    ends at the seeding time.  nu is the least-squares slope of the
    log-norm; growth_const is the smallest C with norm(t) <= C
    e^{-0.95 (t-s)} norm(s) over all sampled pairs s < t (0.95: just below
    the boundary rate 1).
    """
    ts = np.linspace(2.0, frame.T_asym, 160)
    logm = np.array([math.log(abs(y) + abs(v))
                     for y, v in frame.stable_sol.batch(ts).tolist()])
    nu = -float(np.polyfit(ts, logm, 1)[0])
    r = logm + 0.95 * ts
    run_min = np.minimum.accumulate(r)
    c = float(np.max(r[1:] - run_min[:-1]))
    return DecayFit(nu=nu, growth_const=math.exp(max(c, 0.0)))


def curvature_decay_fit(system: JacobiSystem) -> float:
    """Smallest C with |K(t)+1| <= C e^{-|t|} over the sampled range: 121
    times |t| in [1, t_range - 1], one unit inside the mapped range, less
    those where the orbit's rho is below 1e4 ``MAP_TOL``: there its error of
    about ``MAP_TOL`` would set K + 1.  rho falls like e^{-|t|}, so at the
    default 1e-13 the range ends near |t| = 20 for an apex rho near 0.3."""
    rho_min = 1e4 * MAP_TOL
    c = 0.0
    for t in np.linspace(1.0, system.t_range - 1.0, 121):
        for s in (t, -t):
            if system._orbit(s)[0] >= rho_min:
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


def boundary_rate_bracket(traj: GeodesicTrajectory) -> RateBracket:
    """Measure rho(t) against e^{-t} decay on both escaping tails.

    rho is sampled at 600 equally spaced flow parameters.  The window
    starts once rho has dropped to half the peak, capped at 0.25, and stops
    at rho = 0.012, above the arclength gate ``flow.RHO_GATE_HI`` so
    differences of :meth:`GeodesicTrajectory.arclength_at` are exact
    arclength.
    """
    tau_peak, rho_pk = traj.rho_peak()
    rho_enter = min(0.25, 0.5 * rho_pk)
    rho_floor = 0.012
    taus = np.linspace(0.0, traj.tau_plus, 600)
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
        return json.dumps(asdict(self))


class CovectorDiagnostics(NamedTuple):
    """Linearized-flow diagnostics along the geodesic of one covector."""

    angle_deg: float       # stable/unstable transversality angle
    conjugate_count: int
    nu_fit: float          # fitted decay exponent
    C_fit: float           # curvature-decay constant


def diagnose_covector(fam: BoundaryMetricFamily, z: Tuple[float, float],
                      T_asym: float = T_ASYM, t_scan: float = T_SCAN,
                      trace_tol: float = DEFAULT_TOL
                      ) -> Optional[CovectorDiagnostics]:
    """Stable/unstable frame, conjugate points and decay fits along the
    geodesic entering at z; None when its trace fails.  The orbit is mapped
    on |t| <= max(T_asym, t_scan) + 2, so the seeding times and the
    conjugate scan both lie inside it."""
    try:
        traj = trace_geodesic(fam, z, tol=trace_tol)
    except FlowError:
        return None
    system = jacobi_system(fam, traj, t_range=max(T_asym, t_scan) + 2.0)
    frame = stable_unstable(system, T_asym)
    return CovectorDiagnostics(
        angle_deg=frame.angle_deg,
        conjugate_count=len(conjugate_points(system, t_scan)),
        nu_fit=decay_fit(frame).nu, C_fit=curvature_decay_fit(system))


def simplicity_report(rows: Sequence[Optional[CovectorDiagnostics]]
                      ) -> SimplicityReport:
    """Reduce per-covector diagnostics, in row order, to the minimal
    transversality angle, the total number of conjugate points, the slowest
    decay exponent, the largest curvature-decay constant, and the number of
    failed traces (the None rows)."""
    min_angle = math.inf
    count = 0
    failures = 0
    nu_min = math.inf
    c_max = 0.0
    for row in rows:
        if row is None:
            failures += 1
            continue
        min_angle = min(min_angle, row.angle_deg)
        count += row.conjugate_count
        nu_min = min(nu_min, row.nu_fit)
        c_max = max(c_max, row.C_fit)
    return SimplicityReport(min_angle_deg=min_angle, conjugate_count=count,
                            nu_fit=nu_min, C_fit=c_max,
                            trace_failures=failures,
                            n_geodesics=len(rows) - failures)


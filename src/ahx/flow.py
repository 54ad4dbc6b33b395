"""Rescaled geodesic flow on the compactified unit cotangent bundle.

Phase coordinates are (rho, y, xi_b, eta) with the constraint
``xi_b**2 + rho**2 |eta|_h**2 = 1`` where |.|_h is the inverse-metric norm
of the boundary covector.  The rescaled generator

    rho' = xi_b
    y'^j = rho h^{ij} eta_i
    xi_b' = -(rho |eta|_h^2 + (rho^2/2) d|eta|_h^2/drho)
    eta_k' = -(rho/2) d|eta|_h^2/dy^k

is smooth up to rho = 0, so boundary arrival and departure are ordinary
finite-time events of the integration.  Trajectories carry dense output;
the full redundant state is integrated and re-projected onto the constraint
after every accepted step.

Hyperbolic arclength is not part of the integrated state, so it does not
take part in step-size control.  After every accepted step the gated
integrand gate(rho)/rho, with a C2 gate that switches on between
``RHO_GATE_LO`` and ``RHO_GATE_HI`` (from the boundary the exact arclength
diverges), is integrated over the step's dense output by panel Gauss
quadrature; exceeding ``t_max`` raises :class:`TrappedOrSlowError`.
Quadrature along a trajectory states its resolution explicitly: a number of
Gauss nodes per sub-panel and ``QUAD_PANELS`` sub-panels per step, plus
optional rho levels where the integrand is not smooth
(:meth:`GeodesicTrajectory.quad_nodes`).

The tolerance is the DOP853 ``rtol = atol`` on [rho, y, xi_b, eta]; it does
not cover the arclength.  The dense output between steps is an interpolant
outside error control, so the arrival step is retaken exactly to the
located arrival time and the outgoing covector carries the accuracy of an
integration step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import DOP853
from scipy.optimize import brentq

from .metric import BoundaryMetricFamily, eval_metric
from .quadrature import composite_gauss, panel_gauss

__all__ = [
    "FlowError", "TrappedOrSlowError", "ChartExitError", "CollarExitError",
    "BPhasePoint", "BoundaryCovector", "GeodesicTrajectory",
    "barX_eval", "trace_geodesic", "trace_from_state",
    "scattering_map", "scattering_jacobian", "ScatteringJacobian",
    "delta_max", "flip_state", "constraint_residual",
]

DEFAULT_TOL = 1e-12
DEFAULT_T_MAX = 60.0
RHO_GATE_LO = 0.005
RHO_GATE_HI = 0.01
ARC_NODES = 12       # Gauss nodes per arclength panel
QUAD_PANELS = 4      # sub-panels per step in quad_nodes
_ARC_GRID = np.linspace(0.0, 1.0, 9)   # per-step rho samples for crossings
RHO_CEILING = 1.0e7
MAX_STEPS = 250_000


class FlowError(RuntimeError):
    """Integration of the rescaled flow failed."""


class TrappedOrSlowError(FlowError):
    """Accumulated interior arclength exceeded t_max before boundary arrival."""

    def __init__(self, msg, tau=None, t_acc=None):
        super().__init__(msg)
        self.tau = tau
        self.t_acc = t_acc


class ChartExitError(FlowError):
    """Trajectory left the stated bounds of an affine boundary chart."""


class CollarExitError(FlowError):
    """Trajectory left the rho-domain on which the family is defined."""


@dataclass(frozen=True)
class BPhasePoint:
    """Point of the compactified unit cotangent bundle in b-coordinates."""

    rho: float
    y: np.ndarray
    xi_b: float
    eta: np.ndarray

    @classmethod
    def make(cls, rho, y, xi_b, eta) -> "BPhasePoint":
        return cls(float(rho), np.atleast_1d(np.asarray(y, dtype=float)),
                   float(xi_b), np.atleast_1d(np.asarray(eta, dtype=float)))

    def as_vector(self) -> np.ndarray:
        return np.concatenate(([self.rho], self.y, [self.xi_b], self.eta))


@dataclass(frozen=True)
class BoundaryCovector:
    """Boundary data (y, eta) of an incoming or outgoing geodesic."""

    y: np.ndarray
    eta: np.ndarray
    side: str  # "incoming" | "outgoing"

    @classmethod
    def make(cls, y, eta, side="incoming") -> "BoundaryCovector":
        return cls(np.atleast_1d(np.asarray(y, dtype=float)),
                   np.atleast_1d(np.asarray(eta, dtype=float)), side)

    def as_phase_point(self) -> BPhasePoint:
        xi = 1.0 if self.side == "incoming" else -1.0
        return BPhasePoint.make(0.0, self.y, xi, self.eta)


def flip_state(p: BPhasePoint) -> BPhasePoint:
    """Time-reversal involution (rho, y, xi_b, eta) -> (rho, y, -xi_b, -eta)."""
    return BPhasePoint.make(p.rho, p.y, -p.xi_b, -p.eta)


def constraint_residual(fam: BoundaryMetricFamily, p: BPhasePoint) -> float:
    e2 = fam.eta_normsq(p.rho, p.y, p.eta)
    return abs(p.xi_b ** 2 + p.rho ** 2 * e2 - 1.0)


# ---------------------------------------------------------------------------
# vector field


def _gate_over_rho(rho: np.ndarray) -> np.ndarray:
    """Arclength integrand gate(rho)/rho: zero below RHO_GATE_LO, exact 1/rho
    above RHO_GATE_HI, joined by the quintic C2 smoothstep."""
    rho = np.asarray(rho, dtype=float)
    t = np.clip((rho - RHO_GATE_LO) / (RHO_GATE_HI - RHO_GATE_LO), 0.0, 1.0)
    g = t * t * t * (10.0 + t * (-15.0 + 6.0 * t))
    return np.where(t > 0.0, g / np.maximum(rho, RHO_GATE_LO), 0.0)


def _make_rhs(fam: BoundaryMetricFamily) -> Callable:
    """Flow RHS on the state [rho, y, xi_b, eta].

    With u_k = eta_k / h_kk: |eta|_h^2 = sum u_k eta_k, its rho-derivative
    is -sum u_k^2 dh_kk/drho and its y_k-derivative -u_k^2 dh_kk/dy_k.
    """
    n = fam.n
    profiles = fam.profiles

    def rhs(tau, s):
        rho = s[0]
        out = np.empty(2 * n + 2)
        dxi = 0.0
        for k, prof in enumerate(profiles):
            h, dh_r, dh_y = prof(rho, s[1 + k])
            eta = s[2 + n + k]
            u = eta / h
            out[1 + k] = rho * u
            out[2 + n + k] = 0.5 * rho * u * u * dh_y
            dxi -= rho * u * eta - 0.5 * rho * rho * u * u * dh_r
        out[0] = s[1 + n]
        out[1 + n] = dxi
        return out

    return rhs


def barX_eval(fam: BoundaryMetricFamily, state: BPhasePoint):
    """Value of the rescaled generator at a phase point.

    Returns (drho, dy, dxi_b, deta) as floats/arrays.
    """
    n = fam.n
    v = _make_rhs(fam)(0.0, state.as_vector())
    return (float(v[0]), np.atleast_1d(v[1:1 + n]).copy(), float(v[1 + n]),
            np.atleast_1d(v[2 + n:2 + 2 * n]).copy())


def _project_vec(fam: BoundaryMetricFamily, s: np.ndarray, n: int) -> np.ndarray:
    """Rescale (xi_b, eta) jointly onto the unit cosphere."""
    rho = s[0]
    xi = s[1 + n]
    eta = s[2 + n:2 + 2 * n]
    e2 = fam.eta_normsq(rho, s[1:1 + n], eta)
    norm2 = xi * xi + rho * rho * e2
    if norm2 <= 0.0:
        return s
    c = 1.0 / math.sqrt(norm2)
    out = s.copy()
    out[1 + n] = xi * c
    out[2 + n:2 + 2 * n] = eta * c
    return out


# ---------------------------------------------------------------------------
# arclength quadrature


def _level_crossings(taus: np.ndarray, rho: np.ndarray, levels) -> np.ndarray:
    """Sorted taus where sampled rho crosses one of the levels.

    ``taus`` and ``rho`` have shape (rows, m), each row the samples of one
    step; crossings between consecutive samples of a row are located by
    linear interpolation.
    """
    d = rho - np.asarray(levels, dtype=float)[:, None, None]
    k, r, i = np.nonzero(d[..., :-1] * d[..., 1:] < 0.0)
    d0, d1 = d[k, r, i], d[k, r, i + 1]
    t0, t1 = taus[r, i], taus[r, i + 1]
    return np.sort(t0 + (t1 - t0) * d0 / (d0 - d1))


def _arc_panels(seg, t_lo: float, t_hi: float):
    """Gated arclength of one step, integrated panel by panel.

    rho is sampled at the ``_ARC_GRID`` points of the step.  Panel edges sit
    where it crosses a gate edge or a level of the doubling ladder
    ``RHO_GATE_HI * 2**k``: the C2 corners of the gate thus lie on panel
    edges, and 1/rho changes by at most about a factor two across a panel,
    which keeps the pole of 1/rho far outside each Gauss rule.  Returns
    (sample taus, rho samples, right panel edges, arclength of each panel).
    """
    grid = t_lo + (t_hi - t_lo) * _ARC_GRID
    rho = np.asarray(seg(grid))[0]
    top = float(np.max(rho))
    if top <= RHO_GATE_LO:
        return grid, rho, np.array([t_hi]), np.zeros(1)
    n_up = max(0, math.ceil(math.log2(top / RHO_GATE_HI)))
    levels = np.append(RHO_GATE_LO, RHO_GATE_HI * 2.0 ** np.arange(n_up))
    cuts = _level_crossings(grid[None], rho[None], levels)
    edges = np.concatenate(([t_lo], cuts, [t_hi]))
    nodes, w = panel_gauss(edges[:-1], edges[1:], ARC_NODES)
    vals = _gate_over_rho(np.asarray(seg(nodes.ravel()))[0]).reshape(nodes.shape)
    return grid, rho, edges[1:], np.sum(w * vals, axis=1)


# ---------------------------------------------------------------------------
# trajectory container


class GeodesicTrajectory:
    """Dense trajectory of the rescaled flow on [0, tau_plus].

    ``samples`` holds the accepted integration steps as (tau, BPhasePoint)
    with the constraint re-projected.  Dense evaluation is available through
    :meth:`state_at` (single point, projected) and :meth:`eval_many` (batch,
    raw dense output).  The gated hyperbolic arclength accumulated from
    tau = 0 is :meth:`arclength_at`; ``t_acc`` is its value at tau_plus.
    """

    def __init__(self, fam, segments, breaks, tau_plus, samples,
                 z_in, z_out, rho_taus, rho_grid, arc_edges, arc_cum):
        self.family = fam
        self.n = fam.n
        self._segments = segments
        self._breaks = np.asarray(breaks)
        self.tau_plus = float(tau_plus)
        self.samples = samples
        self.z_in = z_in
        self.z_out = z_out
        # rho sampled at the _ARC_GRID points of each step, and those taus
        self._rho_taus = rho_taus
        self._rho_grid = rho_grid
        self._arc_edges = np.asarray(arc_edges)
        self._arc_cum = np.asarray(arc_cum)
        self.t_acc = float(self._arc_cum[-1])

    # layout helpers
    def _split(self, vec):
        n = self.n
        return BPhasePoint.make(vec[0], vec[1:1 + n], vec[1 + n],
                                vec[2 + n:2 + 2 * n])

    def _segment_index(self, tau: float) -> int:
        i = int(np.searchsorted(self._breaks, tau, side="right")) - 1
        return min(max(i, 0), len(self._segments) - 1)

    def eval_raw(self, tau: float) -> np.ndarray:
        if tau < -1e-12 or tau > self.tau_plus + 1e-12:
            raise ValueError(f"tau={tau} outside [0, {self.tau_plus}]")
        tau = min(max(tau, 0.0), self.tau_plus)
        return np.asarray(self._segments[self._segment_index(tau)](tau))

    def state_at(self, tau: float) -> BPhasePoint:
        vec = _project_vec(self.family, self.eval_raw(tau), self.n)
        return self._split(vec)

    def eval_many(self, taus: np.ndarray) -> np.ndarray:
        """Dense states at the given taus, shape (len(taus), dim).

        Raw dense output; constraint drift stays below the projection
        tolerance because every accepted step was re-projected.
        """
        taus = np.asarray(taus, dtype=float)
        out = np.empty((taus.size, 2 * self.n + 2))
        idx = np.clip(np.searchsorted(self._breaks, taus, side="right") - 1,
                      0, len(self._segments) - 1)
        for i in np.unique(idx):
            sel = idx == i
            out[sel] = np.asarray(self._segments[i](taus[sel])).T
        return out

    def quad_nodes(self, a: float, b: float, npts: int = 12, rho_breaks=()):
        """Composite Gauss nodes/weights on [a, b].

        Every integration step is cut into ``QUAD_PANELS`` equal sub-panels
        and each piece of [a, b] between those cuts gets an ``npts``-point
        rule, so the resolution is npts * QUAD_PANELS nodes per step of the
        trace.  ``rho_breaks`` are levels of rho where the integrand is not
        smooth (e.g. the edges of a field's support); the rule is also cut
        where the trajectory crosses them.
        """
        b_ = self._breaks
        cuts = np.append(b_[:-1, None] + np.diff(b_)[:, None]
                         * (np.arange(QUAD_PANELS) / QUAD_PANELS), b_[-1])
        if len(rho_breaks):
            cross = _level_crossings(self._rho_taus, self._rho_grid,
                                     rho_breaks)
            cuts = np.sort(np.concatenate((cuts, cross)))
        return composite_gauss(cuts, a, b, npts)

    def arclength_at(self, taus):
        """Gated hyperbolic arclength accumulated on [0, tau].

        Exact arclength increments wherever rho stays above RHO_GATE_HI;
        the gate suppresses the divergent part next to the boundary.  Takes
        a float or an array of taus and returns the same shape.
        """
        taus = np.asarray(taus, dtype=float)
        if np.any(taus < -1e-12) or np.any(taus > self.tau_plus + 1e-12):
            raise ValueError(f"tau outside [0, {self.tau_plus}]")
        flat = np.clip(taus.ravel(), 0.0, self.tau_plus)
        edges = np.concatenate(([0.0], self._arc_edges))
        j = np.clip(np.searchsorted(edges, flat, side="right") - 1,
                    0, edges.size - 2)
        cum = np.concatenate(([0.0], self._arc_cum))[j]
        # the piece [edge_j, tau] lies inside one arclength panel
        nodes, w = panel_gauss(edges[j], flat, ARC_NODES)
        rho = self.eval_many(nodes.ravel())[:, 0].reshape(nodes.shape)
        out = cum + np.sum(w * _gate_over_rho(rho), axis=1)
        return out.reshape(taus.shape) if taus.ndim else float(out[0])

    def rho_peak(self):
        """(tau, rho) at the deepest sampled point, parabolically refined."""
        taus = np.array([t for t, _ in self.samples])
        rhos = np.array([p.rho for _, p in self.samples])
        i = int(np.argmax(rhos))
        lo = max(self._breaks[0], taus[max(i - 1, 0)])
        hi = min(self.tau_plus, taus[min(i + 1, len(taus) - 1)])
        grid = np.linspace(lo, hi, 41)
        vals = self.eval_many(grid)[:, 0]
        j = int(np.argmax(vals))
        if 0 < j < grid.size - 1:
            denom = vals[j - 1] - 2.0 * vals[j] + vals[j + 1]
            if denom < 0.0:
                tau = grid[j] + 0.5 * (grid[1] - grid[0]) \
                    * (vals[j - 1] - vals[j + 1]) / denom
                return float(tau), float(self.eval_raw(tau)[0])
        return float(grid[j]), float(vals[j])

    def to_rows(self):
        rows = []
        for tau, p in self.samples:
            rows.append([tau, p.rho, *p.y.tolist(), p.xi_b, *p.eta.tolist()])
        return rows


# ---------------------------------------------------------------------------
# tracing driver


def _drive(fam: BoundaryMetricFamily, s0: np.ndarray, *, tol: float,
           t_max: float, max_steps: int = MAX_STEPS) -> tuple:
    """Integrate until the boundary-arrival event; project every step.

    Gated arclength is accumulated per accepted step (:func:`_arc_panels`)
    outside the integrated state.  Returns (segments, breaks, tau_plus,
    samples, endpoint_vec, rho_taus, rho_grid, arc_edges, arc_cum): rho
    sampled on each step with its taus, the arclength panel edges and the
    arclength accumulated up to each edge.
    """
    n = fam.n
    rhs = _make_rhs(fam)
    rho_limit = min(fam.rho_max, RHO_CEILING)
    chart = fam.chart
    solver = DOP853(rhs, 0.0, s0, t_bound=math.inf, rtol=tol, atol=tol)
    segments, breaks = [], [0.0]
    p0 = _project_vec(fam, s0, n)
    samples = [(0.0, p0)]
    rho_prev = s0[0]
    arc = []        # (taus, rho samples, panel edges, arclength) per step
    t_acc = 0.0
    steps = 0
    while True:
        steps += 1
        if steps > max_steps:
            raise FlowError(f"step limit {max_steps} exceeded at tau={solver.t}")
        msg = solver.step()
        if solver.status == "failed":
            raise FlowError(f"integrator failure: {msg}")
        seg = solver.dense_output()
        t_lo, t_hi = seg.t_old, seg.t
        segments.append(seg)
        rho_new = solver.y[0]

        if rho_new <= 0.0:
            lo = t_lo
            if rho_prev <= 0.0:
                # overshoot of a whole arc within one step: bracket the
                # decreasing part from the interior maximum of rho
                grid = np.linspace(t_lo, t_hi, 65)
                rg = np.asarray(seg(grid))[0]
                imax = int(np.argmax(rg))
                if rg[imax] <= 0.0:
                    raise FlowError("trajectory left the rho > 0 half-space")
                lo = float(grid[imax])
            tau_star = brentq(lambda s: float(seg(s)[0]), lo, t_hi,
                              xtol=1e-14, rtol=8.9e-16)
            # retake the arrival step exactly to tau_star: the dense output
            # it would otherwise end on is less accurate than a step
            segments.pop()
            last = DOP853(rhs, t_lo, solver.y_old, t_bound=tau_star,
                          rtol=tol, atol=tol, first_step=tau_star - t_lo)
            while True:
                msg = last.step()
                if last.status == "failed":
                    raise FlowError(f"integrator failure: {msg}")
                seg = last.dense_output()
                segments.append(seg)
                breaks.append(seg.t)
                arc.append(_arc_panels(seg, seg.t_old, seg.t))
                # t_lo + h may fall short of tau_star by rounding
                if tau_star - last.t <= 4.0 * math.ulp(tau_star):
                    break
            tau_star = last.t
            end = np.asarray(last.y)
            if abs(end[1 + n]) > 1e-8:
                # one Newton polish using drho/dtau = xi_b
                tau_star -= float(end[0] / end[1 + n])
                end = np.asarray(seg(tau_star))
                breaks[-1] = tau_star
            rho_taus, rho_grid, edges, incr = zip(*arc)
            return (segments, breaks, tau_star, samples, end,
                    np.array(rho_taus), np.array(rho_grid),
                    np.concatenate(edges), np.cumsum(np.concatenate(incr)))

        if math.isfinite(rho_limit) and rho_new >= rho_limit:
            raise CollarExitError(
                f"rho reached the domain edge {rho_limit:.6g} at tau={solver.t:.6g}")
        if chart.kind == "affine" and chart.y_bounds is not None:
            if not chart.contains(solver.y[1:1 + n]):
                raise ChartExitError(
                    f"y={solver.y[1:1 + n]} left the affine chart at tau={solver.t:.6g}")
        arc.append(_arc_panels(seg, t_lo, t_hi))
        t_acc += float(np.sum(arc[-1][3]))
        if t_acc > t_max:
            raise TrappedOrSlowError(
                f"interior arclength exceeded t_max={t_max:.6g} at tau={solver.t:.6g}"
                " (trapped or nearly trapped trajectory)",
                tau=float(solver.t), t_acc=t_acc)

        proj = _project_vec(fam, solver.y, n)
        if not np.array_equal(proj, solver.y):
            solver.y = proj
            solver.f = rhs(solver.t, proj)
        breaks.append(solver.t)
        samples.append((float(solver.t), proj))
        rho_prev = proj[0]


def _split_vec(n: int, vec: np.ndarray) -> BPhasePoint:
    return BPhasePoint.make(vec[0], vec[1:1 + n], vec[1 + n],
                            vec[2 + n:2 + 2 * n])


def _finish_trajectory(fam, driven, z_in) -> GeodesicTrajectory:
    segments, breaks, tau_plus, samples, end_vec = driven[:5]
    n = fam.n
    end_proj = _project_vec(fam, end_vec, n)
    y_end = end_proj[1:1 + n].copy()
    eta_end = end_proj[2 + n:2 + 2 * n].copy()
    endpoint = BPhasePoint.make(0.0, y_end, -1.0, eta_end)
    traj_samples = [(t, _split_vec(n, v)) for t, v in samples]
    traj_samples.append((tau_plus, endpoint))
    z_out = BoundaryCovector.make(fam.chart.wrap(y_end), eta_end, "outgoing")
    return GeodesicTrajectory(fam, segments, breaks, tau_plus, traj_samples,
                              z_in, z_out, *driven[5:])


def trace_geodesic(fam: BoundaryMetricFamily, z, tol: float = DEFAULT_TOL,
                   t_max: float = DEFAULT_T_MAX) -> GeodesicTrajectory:
    """Trace from an incoming boundary covector to the outgoing boundary.

    ``z`` is a BoundaryCovector or a (y, eta) pair.  The start state is
    (rho, y, xi_b, eta) = (0, y, +1, eta); integration ends at the first
    transversal return to rho = 0.  ``tol`` is the DOP853 rtol = atol of the
    state and does not cover the arclength; on the half-plane the outgoing
    covector is off by about 6e-11 at tol 1e-10 and 3e-13 at 1e-12.
    """
    if not isinstance(z, BoundaryCovector):
        y, eta = z
        z = BoundaryCovector.make(y, eta, "incoming")
    if z.y.size != fam.n or z.eta.size != fam.n:
        raise ValueError("boundary covector dimension mismatch")
    s0 = np.concatenate(([0.0], z.y, [1.0], z.eta))
    return _finish_trajectory(fam, _drive(fam, s0, tol=tol, t_max=t_max), z)


def trace_from_state(fam: BoundaryMetricFamily, state: BPhasePoint,
                     tol: float = DEFAULT_TOL,
                     t_max: float = DEFAULT_T_MAX) -> GeodesicTrajectory:
    """Trace the forward orbit of an interior phase point to the boundary."""
    s0 = _project_vec(fam, state.as_vector(), fam.n)
    return _finish_trajectory(fam, _drive(fam, s0, tol=tol, t_max=t_max),
                              None)


def scattering_map(fam: BoundaryMetricFamily, z, tol: float = DEFAULT_TOL,
                   t_max: float = DEFAULT_T_MAX) -> BoundaryCovector:
    """Outgoing boundary covector of the geodesic entering at z."""
    return trace_geodesic(fam, z, tol=tol, t_max=t_max).z_out


@dataclass(frozen=True)
class ScatteringJacobian:
    """Finite-difference derivative of the scattering map at one covector."""

    matrix: np.ndarray           # d(y_out, eta_out)/d(y_in, eta_in)
    det: float
    symplectic_residual: float


def scattering_jacobian(fam: BoundaryMetricFamily, z, step: float = 1e-5,
                        tol: float = 1e-12,
                        t_max: float = DEFAULT_T_MAX) -> ScatteringJacobian:
    """Central finite differences of the scattering map.

    Uses unwrapped outgoing coordinates so periodic charts do not introduce
    jumps between neighbouring traces.
    """
    if not isinstance(z, BoundaryCovector):
        z = BoundaryCovector.make(*z, side="incoming")
    n = fam.n

    def out_vec(y, eta):
        traj = trace_geodesic(fam, BoundaryCovector.make(y, eta), tol=tol,
                              t_max=t_max)
        p = traj.samples[-1][1]
        return np.concatenate((p.y, p.eta))

    cols = []
    for k in range(n):
        hstep = step * max(1.0, abs(z.y[k]))
        yp, ym = z.y.copy(), z.y.copy()
        yp[k] += hstep
        ym[k] -= hstep
        cols.append((out_vec(yp, z.eta) - out_vec(ym, z.eta)) / (2 * hstep))
    for k in range(n):
        hstep = step * max(1.0, abs(z.eta[k]))
        ep, em = z.eta.copy(), z.eta.copy()
        ep[k] += hstep
        em[k] -= hstep
        cols.append((out_vec(z.y, ep) - out_vec(z.y, em)) / (2 * hstep))
    M = np.column_stack(cols)

    J = np.zeros((2 * n, 2 * n))
    for i in range(n):
        J[i, n + i] = -1.0
        J[n + i, i] = 1.0
    resid = float(np.max(np.abs(M.T @ J @ M - J)))
    return ScatteringJacobian(matrix=M, det=float(np.linalg.det(M)),
                              symplectic_residual=resid)


def delta_max(fam: BoundaryMetricFamily, y0, omega0, cap: float = 0.2) -> float:
    """Largest safe size delta of a short geodesic from y0 along omega0.

    In the blown-up chart rho |omega|_h = delta sin(theta), the angle theta
    advances at the rate 1 + delta Q, where at rho = 0 the size of Q is at
    most |d|omega|_h^2/drho| / (2 |omega|_h^3).  The returned delta stays a
    factor 1.5 below the size at which that rate could vanish, and at most
    ``cap``.
    """
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    omega0 = np.atleast_1d(np.asarray(omega0, dtype=float))
    ev = eval_metric(fam, 0.0, y0)
    hio = ev.h_inv @ omega0
    n2 = float(omega0 @ hio)
    dP = -float(hio @ ev.dh_drho_mat @ hio)
    qt_max = abs(dP) / (2.0 * n2 ** 1.5)  # max over s of |Q| on theta = s
    if qt_max == 0.0:
        return cap
    return min(cap, 1.0 / qt_max / 1.5)

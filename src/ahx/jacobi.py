"""Jacobi diagnostics along traced geodesics.

Scalar Jacobi fields in hyperbolic time, conjugate-point detection,
stable/unstable solutions seeded by their boundary asymptotics, decay-rate
fits, and the boundary-approach rate bracket.  The hyperbolic time t is
arclength along the geodesic, dt = dtau / rho, anchored at t = 0 at the
apex, the root of xi_b where rho peaks.  A :class:`JacobiSystem` integrates
the geodesic's state outward from its apex on the traces' DOP853 stepper,
once on each side, in the flow parameter tau: the rescaled flow is smooth
up to rho = 0, so each side reaches the boundary at a finite tau, where in
t its state approaches its limit like e^{-|t|}; a run restarts where rho
crosses a level of the family's ``breaks``, where the flow is not smooth.
The run carries w = |t| + log rho, and a read at a given t finds its tau
by Newton's method on rho = e^{w - |t|} and takes rho from w, so rho keeps
its relative precision as it falls.  Every root of the layer is found by
the flow's batched Newton's method (:func:`ahx.flow._newton`), with one
read per iteration for all its brackets.

The Jacobi equation ydd + K y = 0 is tabulated once along the orbit.  Its
grid has an edge at each step start of the run, and so at each break
crossing; each interval is split into at least ``PIECES`` pieces in t, no
longer than a bound that grows with |t|.  Each piece carries its transfer
matrix, the 6th-order Magnus step on A = [[0, 1], [-K, 0]] from K at 3
Gauss nodes (Blanes, Casas and Ros, BIT 40 (2000); Blanes, Casas, Oteo and
Ros, Phys. Rep. 470 (2009)), in closed form.  A Jacobi field is a run of
these 2 x 2 products, with no ODE solve of its own: it holds [y, ydot] at
the grid nodes of its span (``ts``, ``ys``) and reads between them
(``at`` one t, ``batch`` many) by one more Magnus step from the node
before.  The field is linear in its seed, so its accuracy does not depend
on the seed's size.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .metric import BoundaryMetricFamily, gauss_curvature
from .flow import (DEFAULT_TOL, FlowError, GeodesicTrajectory, _crossings,
                   _integrate, _make_rhs, _newton, _Solution, trace_geodesic)

__all__ = [
    "JacobiSystem", "jacobi_system", "jacobi_solve",
    "conjugate_points", "BundleFrame", "stable_unstable", "wronskian",
    "DecayFit", "decay_fit", "curvature_decay_fit",
    "RateBracket", "boundary_rate_bracket", "AsymptoteError",
    "SimplicityReport", "CovectorDiagnostics",
    "diagnose_covector", "simplicity_report",
]

MAP_TOL = 1e-13
ASYM_CURV_TOL = 1e-10
# default seeding time of the stable/unstable frame and conjugate-scan span
T_ASYM = 25.0
T_SCAN = 12.0
# Magnus pieces per grid interval: across the bump's band, where K swings
# from -76 to +37, 4 pieces leave about 1e-11 in a field at the anchor and
# 8 pieces 1.4e-13
PIECES = 8
# no piece is longer than 0.05 e^{|t|/7} in t, as K + 1 falls like rho =
# e^-|t|: on a field of perturbed (0.7, 2.4) over (-4, 4), bounds of 0.08,
# 0.06 and 0.05 e^{|t|/7} left 4.5e-12, 9.4e-13 and 3.7e-13
_PIECE = 0.05
_PIECE_GROWTH = 7.0
# the 3 Gauss-Legendre nodes on [0, 1], 1/2 -+ sqrt(15)/10, and sqrt(15)/3
_GAUSS = (0.1127016653792583, 0.5, 0.8872983346207417)
_SQRT15_3 = 1.2909944487358056
_TINY = 2.2250738585072014e-308    # the smallest normal float


class AsymptoteError(ValueError):
    """A Jacobi time span the fields cannot resolve: the curvature is not
    yet -1 where :func:`stable_unstable` seeds, the seed underflows, or a
    field overflows."""


def _comm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[a, b] of traceless 2 x 2 matrices held as rows (p, q, r) of
    [[p, q], [r, -p]]; the last axis runs over pieces."""
    return np.stack((a[1] * b[2] - b[1] * a[2],
                     2.0 * (a[0] * b[1] - a[1] * b[0]),
                     2.0 * (a[2] * b[0] - a[0] * b[2])))


def _transfer(h: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Transfer matrices of the Jacobi equation ydd + K y = 0, y' = A y with
    A = [[0, 1], [-K, 0]], over pieces of length h in t, from K at each
    piece's 3 Gauss nodes (shape (pieces, 3)): rows (m11, m12, m21, m22).

    Omega is the 6th-order Magnus expansion of A from its Gauss values, in
    the commutator form of Blanes, Casas and Ros (BIT 40 (2000)), whose
    first term is the integral of A, [[0, h], [h - int (K + 1), 0]]: Gauss's
    rule applies to K + 1 alone, so where K = -1 the first term is exact.
    Omega is traceless, so Omega^2 = q I with q = -det Omega, and
    exp(Omega) = ch I + sh Omega with ch = cosh sqrt(q) and sh = sinh
    sqrt(q) / sqrt(q) (cos and sin of sqrt(-q) for q < 0).  The method is
    symmetric, so the transfer back over a piece is exp(-Omega), the
    adjugate.
    """
    zero = np.zeros_like(h)
    k1, k2, k3 = k.T
    e1, e2, e3 = (k + 1.0).T
    a1 = np.stack((zero, h, -h * k2))
    a2 = np.stack((zero, zero, -_SQRT15_3 * h * (k3 - k1)))
    a3 = np.stack((zero, zero,
                   -3.3333333333333335 * h * (k3 - 2.0 * k2 + k1)))
    first = np.stack((zero, h, h - h * (5.0 * (e1 + e3) + 8.0 * e2) / 18.0))
    com1 = _comm(a1, a2)
    com2 = -_comm(a1, 2.0 * a3 + com1) / 60.0
    p, q, r = first + _comm(-20.0 * a1 - a3 + com1, a2 + com2) / 240.0
    det = p * p + q * r
    w = np.sqrt(np.abs(det))
    grow = det > 0.0
    ch = np.where(grow, np.cosh(w), np.cos(w))
    sh = np.divide(np.where(grow, np.sinh(w), np.sin(w)), w,
                   out=np.ones_like(w), where=w > 0.0)
    return np.stack((ch + sh * p, sh * q, sh * r, ch - sh * p), axis=1)


class _Side:
    """One side of the orbit: t >= 0 (``sign`` 1) or t <= 0 (``sign`` -1).

    ``sol`` is the state [rho, y, xi_b, eta, w] in the flow parameter tau,
    from the apex at tau = 0 out to the first step end where rho <= 0 or
    |t| >= t_range, with w = |t| + log rho; ``t`` holds |t| at its step
    starts, ascending.
    """

    def __init__(self, sign: float, sol: _Solution):
        self.sign, self.sol = sign, sol
        self.t = sol.ys[:-1, 4] - np.log(sol.ys[:-1, 0])

    def taus(self, tt: np.ndarray) -> np.ndarray:
        """The flow parameters tau at the times |t| = tt: roots of F(tau) =
        rho - e^{w - tt} by :func:`_newton`, started at the start of the
        step that holds each tt and clipped to that step.  F' = xi_b -
        (e^{w - tt} / rho) (xi_b + sign) is -sign at the root, and Newton
        takes it so throughout: it divides by no rho, it still converges
        quadratically, and since tau + sign F(tau) has the slope (1 + sign
        xi_b) (1 - e^{w - tt} / rho), in [0, 1) on the side's arc before the
        root, no iterate passes the root."""
        j = np.clip(np.searchsorted(self.t, tt, side="right") - 1,
                    0, self.t.size - 1)
        ends = self.sol.ts[j], self.sol.ts[j + 1]

        def step(tau, i):
            x = self.sol.batch(tau)
            return self.sign * (x[:, 0] - np.exp(x[:, 4] - tt[i]))

        return _newton(step, ends[0], np.minimum(*ends), np.maximum(*ends))


@dataclass
class JacobiSystem:
    """A geodesic in hyperbolic time, its curvature, and its Magnus grid.

    ``_sides`` hold the orbit on [-t_range, 0] and on [0, t_range], each a
    :class:`_Side` run in the flow parameter, with t = 0 at the apex of the
    trace it started from.  ``_nodes`` are the piece ends over [-t_range,
    t_range], ascending, and ``_mats`` the forward transfer matrix (m11,
    m12, m21, m22) of each piece.  Every method reads these and nothing from
    the trace.  Scalar curvature bookkeeping restricts construction to
    one-dimensional boundaries.
    """

    fam: BoundaryMetricFamily
    t_range: float
    _sides: Tuple[_Side, _Side]     # t <= 0, then t >= 0
    _nodes: np.ndarray = field(repr=False, default=None)
    _mats: list = field(repr=False, default=None)

    def _check(self, ts: np.ndarray) -> None:
        """ValueError unless every t is finite and in the mapped range."""
        out = ~(np.abs(ts) <= self.t_range * (1.0 + 1e-12))
        if out.any():
            raise ValueError("time %g is outside the mapped range [-%g, %g]"
                             % (ts[out][0], self.t_range, self.t_range))

    def _states(self, ts: np.ndarray) -> np.ndarray:
        """Orbit states [rho, y, xi_b, eta] at many t, with one Newton read
        of each side; rho is e^{w - |t|}."""
        self._check(ts)
        z = np.empty((ts.size, 4))
        for side in self._sides:
            on = (ts >= 0.0) == (side.sign > 0.0)
            if on.any():
                tt = side.sign * ts[on]
                x = side.sol.batch(side.taus(tt))
                z[on, 0] = np.exp(x[:, 4] - tt)
                z[on, 1:] = x[:, 1:4]
        return z

    def _curvature(self, rho: np.ndarray, y: np.ndarray) -> np.ndarray:
        """K at orbit points, with one array call; -1 where rho, about
        e^{-|t|}, underflows to 0 (|t| above about 745)."""
        k = np.full(len(rho), -1.0)
        inside = rho > 0.0
        if inside.any():
            k[inside] = gauss_curvature(self.fam, rho[inside], y[inside])
        return k

    def _magnus(self, t0: np.ndarray, t1: np.ndarray) -> np.ndarray:
        """Magnus transfer matrices from each t0 to its t1 (either way in
        t): rows (m11, m12, m21, m22), from one orbit read at the Gauss nodes
        and one curvature call."""
        self._check(np.concatenate((t0, t1)))
        h = t1 - t0
        z = self._states((t0[:, None] + h[:, None] * _GAUSS).ravel())
        return _transfer(h, self._curvature(z[:, 0], z[:, 1]).reshape(-1, 3))

    def _side_nodes(self, side: _Side) -> np.ndarray:
        """Piece ends of one side in |t|, ascending from 0 to t_range.

        The edges are the run's step starts, among them the crossings of
        the levels of ``fam.breaks``.  Each interval is split into n equal
        pieces, at least ``PIECES`` and none longer than
        ``_PIECE`` e^{|t| / ``_PIECE_GROWTH``} at its start.
        """
        edges = np.append(0.0, side.t[1:])
        edges = np.append(edges[edges < self.t_range], self.t_range)
        a, h = edges[:-1], np.diff(edges)
        n = np.maximum(PIECES, np.ceil(
            h / (_PIECE * np.exp(a / _PIECE_GROWTH)))).astype(int)
        i = np.repeat(np.arange(h.size), n)
        k = np.arange(i.size) - np.repeat(np.cumsum(n) - n, n)
        return np.append(a[i] + h[i] / n[i] * k, self.t_range)


def jacobi_system(fam: BoundaryMetricFamily, traj: GeodesicTrajectory,
                  t_range: float = 32.0) -> JacobiSystem:
    """Integrate the orbit of ``traj`` out to hyperbolic time +-t_range and
    tabulate the Jacobi equation's transfer matrices along it.

    From the trace's state at its apex (``traj.rho_peak()``) each side runs
    once in the flow parameter tau, at rtol and atol ``MAP_TOL``, on the
    flow's right-hand side (``flow._make_rhs``) and w = |t| + log rho, with
    dw/dtau = (sign + xi_b) / rho written through the cosphere identity 1 -
    xi_b^2 = rho^2 |eta|_h^2 as sign eta (dy/dtau) / (1 - sign xi_b), in
    which nothing cancels on the side's own arc.  A run stops at the first
    step end where rho <= 0 or |t| >= t_range.  A step that crosses a level
    of ``fam.breaks`` is retaken to the crossing (:func:`_crossings`), where
    a new run starts, so no step spans a corner of the flow.  t_range must
    be finite and positive, and ``fam`` must be the family ``traj`` was
    traced in (equal ``spec()``), since the curvature and the flow are read
    from ``fam``; else ValueError.
    """
    if not (math.isfinite(t_range) and t_range > 0.0):
        raise ValueError("t_range must be finite and positive, got %r"
                         % (t_range,))
    if fam.spec() != traj.family.spec():
        raise ValueError("family %s is not the trajectory's family %s"
                         % (fam.spec(), traj.family.spec()))
    if traj.n != 1:
        raise NotImplementedError(
            "scalar Jacobi bookkeeping needs a 1-dimensional boundary")
    flow_rhs = _make_rhs(fam)
    z0 = traj.state_at(traj.rho_peak()[0]).as_vector()
    x0 = np.append(z0, math.log(z0[0]))

    def past(x, level=0.0):
        return x[0] <= level or x[4] - math.log(x[0]) >= t_range

    sides = []
    for sign in (-1.0, 1.0):
        def rhs(tau, x, sign=sign):
            f = flow_rhs(tau, x[:4]).tolist()    # f[0] = drho/dtau = xi_b
            return np.array(
                f + [sign * float(x[3]) * f[1] / (1.0 - sign * f[0])])

        steps, tau, x = [], 0.0, x0
        for level in [lv for lv in sorted(fam.breaks, reverse=True)
                      if lv < x0[0]] + [0.0]:
            run = _integrate(rhs, tau, x, sign * math.inf, MAP_TOL, MAP_TOL,
                             "orbit integration", partial(past, level=level))
            if level == 0.0 or run.y_end[0] > level:
                break
            tau = float(_crossings(run, [level])[1][-1])
            last = run.steps.pop()
            cut = _integrate(rhs, last.t_old, last.y_old, tau, MAP_TOL,
                             MAP_TOL, "orbit integration")
            steps, x = steps + run.steps + cut.steps, cut.y_end
        sides.append(_Side(sign, _Solution(steps + run.steps,
                                           float(run.ts[-1]), run.y_end)))
    system = JacobiSystem(fam=fam, t_range=t_range, _sides=tuple(sides))
    bwd, fwd = map(system._side_nodes, sides)
    system._nodes = np.concatenate((-bwd[:0:-1], fwd))
    system._mats = system._magnus(system._nodes[:-1],
                                  system._nodes[1:]).tolist()
    return system


class _Field:
    """A Jacobi field [y, ydot] along its span.

    ``ts`` are the span's ends and the grid nodes between them, in the
    span's direction, and ``ys`` the field there, shape (len(ts), 2).
    Between nodes the field is read by one Magnus step from the node before
    t, as the grid's own pieces are built; :meth:`at` is :meth:`batch` at
    one t, so the two agree bit for bit.  A t outside the span is read from
    the span's end node.
    """

    def __init__(self, system: JacobiSystem, ts: np.ndarray,
                 ys: np.ndarray):
        self.ts, self.ys = ts, ys
        self._system = system
        self._sign = -1.0 if ts[-1] < ts[0] else 1.0
        self._starts = self._sign * ts[:-1]

    def at(self, t: float) -> list:
        """Field [y, ydot] at one t."""
        return self.batch([t])[0].tolist()

    def batch(self, ts) -> np.ndarray:
        """Field at many t, shape (len(ts), 2)."""
        ts = np.asarray(ts, dtype=float).ravel()
        i = np.clip(np.searchsorted(self._starts, self._sign * ts,
                                    side="right") - 1,
                    0, self._starts.size - 1)
        m11, m12, m21, m22 = self._system._magnus(self.ts[i], ts).T
        y, v = self.ys[i].T
        return np.stack((m11 * y + m12 * v, m21 * y + m22 * v), axis=1)


def jacobi_solve(system: JacobiSystem, y0: float, ydot0: float,
                 t_span: Tuple[float, float]) -> _Field:
    """The Jacobi field, ydd + K(t) y = 0 along the base geodesic, with
    [y, ydot] = [y0, ydot0] at t_span[0], over t_span.

    It is the product of the system's transfer matrices over the grid
    pieces inside t_span; where t_span starts or ends inside a piece, that
    part gets its own Magnus step.  t_span may run in either direction; a
    time outside the system's mapped range, or NaN, raises ValueError.  No
    renormalization is done: where K is near -1 a field grows like
    e^{|t|}, and a field that overflows (a span of more than about 700)
    raises :class:`AsymptoteError`.
    """
    a, b = float(t_span[0]), float(t_span[1])
    system._check(np.array([a, b]))
    lo, hi = min(a, b), max(a, b)
    nodes, mats = system._nodes, system._mats
    # the ascending points lo, the nodes strictly inside, hi; the intervals
    # between inner nodes are the grid's pieces, and each end interval,
    # which may be part of a piece, gets its own Magnus step
    i_lo = int(np.searchsorted(nodes, lo, side="right"))
    i_hi = int(np.searchsorted(nodes, hi, side="left"))
    pts = np.concatenate(([lo], nodes[i_lo:i_hi], [hi]))
    first, last = system._magnus(pts[[0, -2]], pts[[1, -1]]).tolist()
    seq = [first] + mats[i_lo:i_hi - 1] + [last] if pts.size > 2 \
        else [first]
    y, v = float(y0), float(ydot0)
    states = [(y, v)]
    if a <= b:
        for m11, m12, m21, m22 in seq:
            y, v = m11 * y + m12 * v, m21 * y + m22 * v
            states.append((y, v))
    else:
        # back over a piece by the adjugate, exp(-Omega)
        for m11, m12, m21, m22 in reversed(seq):
            y, v = m22 * y - m12 * v, m11 * v - m21 * y
            states.append((y, v))
        pts = pts[::-1]
    ys = np.array(states)
    if not np.isfinite(ys).all():
        raise AsymptoteError("the Jacobi field from t=%g overflows before "
                             "t=%g" % (a, b))
    return _Field(system, pts, ys)


def wronskian(a: _Field, b: _Field, ts) -> np.ndarray:
    """y_a ydot_b - y_b ydot_a sampled at ts (t-constant for exact fields)."""
    (ya, va), (yb, vb) = a.batch(ts).T, b.batch(ts).T
    return ya * vb - yb * va


def conjugate_points(system: JacobiSystem, t_max: float,
                     t0: float = 0.0) -> List[float]:
    """Times conjugate to the base time t0 along the geodesic.

    Zeros in (t0, t0 + t_max] of the field with y(t0) = 0, ydot(t0) = 1:
    grid nodes where y is 0, and a root of y wherever it changes sign
    between nodes, all by :func:`_newton` with the slope ydot, from the
    chord; the base point itself is never reported.  The default base point
    is the anchor; moving t0 toward the incoming end tests base points whose
    field crosses the interior both inbound and outbound.  A t_max that is
    negative or NaN raises ValueError.  The field grows like e^{|t|}, and a
    scan whose field overflows (t_max above about 700) raises
    :class:`AsymptoteError`.
    """
    if not t_max >= 0.0:
        raise ValueError("t_max=%g must not be negative" % t_max)
    if t_max == 0.0:
        return []
    try:
        sol = jacobi_solve(system, 0.0, 1.0, (t0, t0 + t_max))
    except AsymptoteError:
        raise AsymptoteError(
            "t_max=%g is too large: the conjugate scan's field overflows"
            % t_max) from None
    ts, ys = sol.ts, sol.ys[:, 0]
    sign = np.sign(ys)
    i = np.flatnonzero(sign[1:-1] * sign[2:] < 0.0) + 1
    a, b = ts[i], ts[i + 1]

    def step(t, j):
        y, v = sol.batch(t).T
        return -y / v

    roots = _newton(step, a + (b - a) * ys[i] / (ys[i] - ys[i + 1]), a, b)
    return sorted(np.concatenate((ts[1:][ys[1:] == 0.0], roots)).tolist())


@dataclass
class BundleFrame:
    """Stable/unstable data of the linearized flow at the t = 0 anchor."""

    stable: np.ndarray
    unstable: np.ndarray
    angle_deg: float
    det0: float
    T_asym: float
    stable_sol: _Field = field(repr=False, default=None)
    unstable_sol: _Field = field(repr=False, default=None)


def _unit_with_sign(v: np.ndarray) -> np.ndarray:
    u = v / math.hypot(v[0], v[1])
    if u[0] < 0.0 or (u[0] == 0.0 and u[1] < 0.0):
        u = -u
    return u


def stable_unstable(system: JacobiSystem,
                    T_asym: float = T_ASYM) -> BundleFrame:
    """Solutions decaying at t -> +inf (stable) and t -> -inf (unstable).

    Seeds the asymptotic solution e^{-t} of the frozen boundary equation at
    t = +-T_asym and carries it to the anchor, where both directions are
    normalized.  Raises :class:`AsymptoteError` before any field is built
    when T_asym is not finite and positive, when the seed e^{-T_asym} is
    not a normal float (T_asym above about 708), or when the curvature has
    not settled to its boundary value at the seeding times.
    """
    if not (math.isfinite(T_asym) and T_asym > 0.0):
        raise AsymptoteError("T_asym=%g must be finite and positive"
                             % T_asym)
    scale = math.exp(-T_asym)
    if scale < _TINY:
        raise AsymptoteError(
            "T_asym=%g is too large: its seed e^-T_asym underflows below "
            "the normal floats" % T_asym)
    z = system._states(np.array([T_asym, -T_asym]))
    resids = np.abs(system._curvature(z[:, 0], z[:, 1]) + 1.0).tolist()
    for t_seed, resid in zip((T_asym, -T_asym), resids):
        if resid > ASYM_CURV_TOL:
            raise AsymptoteError(
                "curvature has not reached its asymptote at t=%g "
                "(residual %.2e); increase T_asym or the mapped range"
                % (t_seed, resid))
    s_sol = jacobi_solve(system, scale, -scale, (T_asym, 0.0))
    u_sol = jacobi_solve(system, scale, scale, (-T_asym, 0.0))
    s, u = _unit_with_sign(s_sol.ys[-1]), _unit_with_sign(u_sol.ys[-1])
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
    c = _spread(logm + 0.95 * ts)[0]
    return DecayFit(nu=nu, growth_const=math.exp(max(c, 0.0)))


def _spread(r: np.ndarray) -> Tuple[float, float]:
    """The largest and the smallest r[j] - r[i] over ordered pairs i < j."""
    return (float(np.max(r[1:] - np.minimum.accumulate(r)[:-1])),
            float(np.min(r[1:] - np.maximum.accumulate(r)[:-1])))


def curvature_decay_fit(system: JacobiSystem) -> float:
    """Smallest C with |K(t)+1| <= C e^{-|t|} over the sampled range: 121
    times |t| in [1, t_range - 1], one unit inside the mapped range, less
    those where the orbit's rho is below 1e4 ``MAP_TOL``.  The orbit holds
    rho to its relative precision, but K is -1 plus a term of size rho, so
    its rounding, about 1e-16, is multiplied by e^{|t|}, about 1/rho: at
    rho near 1e-14 it moves C by 1%, and at the floor by about 1e-6.  rho
    falls like e^{-|t|}, so at the default 1e-13 the range ends near |t| =
    20 for an apex rho near 0.3."""
    t = np.linspace(1.0, system.t_range - 1.0, 121)
    ts = np.concatenate((t, -t))
    z = system._states(ts)
    keep = z[:, 0] >= 1e4 * MAP_TOL
    k = gauss_curvature(system.fam, z[keep, 0], z[keep, 1])
    return float(np.max(np.abs(k + 1.0) * np.exp(np.abs(ts[keep])),
                        initial=0.0))


@dataclass
class RateBracket:
    """Two-sided bracket of the exponential boundary approach.

    Along each escaping tail, rho(t2) / (rho(t1) e^{-(|t2| - |t1|)}) lies
    in [lower_margin, c_upper] over all ordered pairs of times in its
    window; the exact lower bound is 1.
    """

    c_upper: float
    lower_margin: float


def boundary_rate_bracket(system: JacobiSystem) -> RateBracket:
    """Measure rho(t) against e^{-|t|} decay on both sides of the orbit.

    On one side, rho(t2) / (rho(t1) e^{-(|t2| - |t1|)}) is e^{w(t2) -
    w(t1)}, so the bracket is the spread of w.  Each side's window starts
    where rho crosses rho_enter = min(0.25, rho_peak / 2) (a root by
    :func:`_crossings`) and runs over the grid nodes beyond it, out to
    t_range.  ValueError when rho does not reach rho_enter inside t_range.
    """
    rho_enter = min(0.25, 0.5 * float(system._sides[0].sol.ys[0, 0]))
    hi, lo = -math.inf, math.inf
    for side in system._sides:
        w1 = side.sol.batch(_crossings(side.sol, [rho_enter])[1][:1])[:, 4]
        t1 = w1 - math.log(rho_enter)
        if not (t1.size and t1[0] < system.t_range):
            raise ValueError("rho does not fall to %g inside |t| <= %g"
                             % (rho_enter, system.t_range))
        tt = np.sort(side.sign * system._nodes)
        tt = tt[tt > t1[0]]
        w = side.sol.batch(side.taus(tt))[:, 4]
        top, bottom = _spread(np.concatenate((w1, w)))
        hi, lo = max(hi, top), min(lo, bottom)
    return RateBracket(c_upper=math.exp(hi), lower_margin=math.exp(lo))


# ---------------------------------------------------------------------------
# grid sweep


@dataclass
class SimplicityReport:
    """Aggregate linearized-flow diagnostics over a covector grid."""

    min_angle_deg: Optional[float]
    conjugate_count: int
    nu_fit: Optional[float]
    C_fit: Optional[float]
    trace_failures: int
    n_geodesics: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), allow_nan=False)


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
    failed traces (the None rows).  With no diagnosed row the angle and the
    fits are None."""
    ok = [row for row in rows if row is not None]
    return SimplicityReport(
        min_angle_deg=min((row.angle_deg for row in ok), default=None),
        conjugate_count=sum(row.conjugate_count for row in ok),
        nu_fit=min((row.nu_fit for row in ok), default=None),
        C_fit=max((row.C_fit for row in ok), default=None),
        trace_failures=len(rows) - len(ok), n_geodesics=len(ok))

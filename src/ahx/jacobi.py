"""Jacobi diagnostics along traced geodesics.

Scalar Jacobi fields in hyperbolic time, conjugate-point detection,
stable/unstable solutions seeded by their boundary asymptotics, decay-rate
fits, and the boundary-approach rate bracket.  The hyperbolic time t is
arclength along the geodesic, dt = dtau / rho, anchored at t = 0 at the
apex, the root of xi_b where rho peaks.  A :class:`JacobiSystem` integrates
the geodesic's state outward from its apex on the traces' DOP853 stepper,
in two parts on each side.  The interior runs in t and stops at the first
step end where rho has fallen to half its peak.  The tail runs from there
to the boundary with rho itself as the independent variable: the rescaled
flow is smooth up to rho = 0, so the state is a smooth function of rho
there, where in t it approaches its limit like e^{-|t|}.  The tail carries
w = |t| + log rho in place of t, and a read at a given t finds its rho by
Newton's method on |t| = w(rho) - log rho.

The Jacobi equation ydd + K y = 0 is tabulated once along the orbit.  Its
grid is the interior's steps, cut where rho crosses a level of the family's
``breaks`` (where K is not smooth) and split into ``PIECES`` pieces, and
the tails' steps, which end at every break level, split into at least
``PIECES`` pieces in s = -log rho, where dt/ds = +-1/|xi_b|, under a bound
on their length that grows with s; the last tail step, which reaches
rho = 0, is cut by that bound alone.  Each piece carries its transfer
matrix, the 6th-order Magnus step on A = c [[0, 1], [-K, 0]] (c = dt/ds,
and 1 in the interior) from c and K at 3 Gauss nodes (Blanes, Casas and
Ros, BIT 40 (2000); Blanes, Casas, Oteo and Ros, Phys. Rep. 470 (2009)),
in closed form.  A Jacobi field is a run of these 2 x 2 products, with no
ODE solve of its own: it holds [y, ydot] at the grid nodes of its span
(``ts``, ``ys``) and reads between them (``at`` one t, ``batch`` many) by
one more Magnus step from the node before.  The field is linear in its
seed, so its accuracy does not depend on the seed's size.
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
    "TurningPointError", "SimplicityReport", "CovectorDiagnostics",
    "diagnose_covector", "simplicity_report",
]

MAP_TOL = 1e-13
ASYM_CURV_TOL = 1e-10
# default seeding time of the stable/unstable frame and conjugate-scan span
T_ASYM = 25.0
T_SCAN = 12.0
# Magnus pieces per interior step: across the bump's band, where K swings
# from -76 to +37, 4 pieces leave about 1e-11 in a field at the anchor and
# 8 pieces 1.4e-13
PIECES = 8
# the interior hands over to the tail at the first step end where rho is at
# most this share of its peak; there |xi_b|, which the tail divides by, is
# sqrt(3)/2 on the half-plane
TAIL_SWITCH = 0.5
# |xi_b| below this at a tail step end is a second turning point
XI_FLOOR = 0.25
# tail pieces in s = -log rho are at most 0.1 long at the switch, and the
# bound grows by e every 7 in s, up to 1: K + 1 and dt/ds -+ 1 fall like
# rho = e^-s
_TAIL_PIECE = 0.1
_TAIL_GROWTH = 7.0
# Newton on log rho stops after a step below this: the next would be below
# 1e-16 (the iteration converges quadratically)
_NEWTON_DONE = 1e-8
_NEWTON_MAX = 10
# the 3 Gauss-Legendre nodes on [0, 1], 1/2 -+ sqrt(15)/10, and sqrt(15)/3
_GAUSS = (0.1127016653792583, 0.5, 0.8872983346207417)
_SQRT15_3 = 1.2909944487358056
_TINY = 2.2250738585072014e-308    # the smallest normal float


class AsymptoteError(ValueError):
    """A Jacobi time span the fields cannot resolve: the curvature is not
    yet -1 where :func:`stable_unstable` seeds, the seed underflows, or a
    field overflows."""


class TurningPointError(FlowError):
    """A tail of the orbit turns back from the boundary: |xi_b| fell below
    ``XI_FLOOR`` on its way to rho = 0, where rho stops being a coordinate
    along the geodesic."""


def _comm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[a, b] of traceless 2 x 2 matrices held as rows (p, q, r) of
    [[p, q], [r, -p]]; the last axis runs over pieces."""
    return np.stack((a[1] * b[2] - b[1] * a[2],
                     2.0 * (a[0] * b[1] - a[1] * b[0]),
                     2.0 * (a[2] * b[0] - a[0] * b[2])))


def _transfer(h: np.ndarray, dt: np.ndarray, k: np.ndarray,
              c: np.ndarray) -> np.ndarray:
    """Transfer matrices of y' = A y, A = c [[0, 1], [-K, 0]], over pieces
    of length h in s and dt in t, from c = dt/ds and K at each piece's 3
    Gauss nodes (shape (pieces, 3)): rows (m11, m12, m21, m22).  This is
    the Jacobi equation ydd + K y = 0 in the variable s; s = t has c = 1.

    Omega is the 6th-order Magnus expansion of A from its Gauss values, in
    the commutator form of Blanes, Casas and Ros (BIT 40 (2000)), whose
    first term is the integral of A, [[0, dt], [dt - int c (K + 1), 0]]:
    it takes dt as given and Gauss's rule only for the integral of c (K +
    1), so where K = -1 a run of pieces spans exactly the t between its
    ends.  Omega is traceless, so Omega^2 = q I with q = -det Omega, and
    exp(Omega) = ch I + sh Omega with ch = cosh sqrt(q) and sh = sinh
    sqrt(q) / sqrt(q) (cos and sin of sqrt(-q) for q < 0).  The method is
    symmetric, so the transfer back over a piece is exp(-Omega), the
    adjugate.
    """
    zero = np.zeros_like(h)
    c1, c2, c3 = c.T
    k1, k2, k3 = (c * k).T
    e1, e2, e3 = (c * (k + 1.0)).T
    a1 = np.stack((zero, h * c2, -h * k2))
    a2 = np.stack((zero, _SQRT15_3 * h * (c3 - c1),
                   -_SQRT15_3 * h * (k3 - k1)))
    a3 = np.stack((zero, 3.3333333333333335 * h * (c3 - 2.0 * c2 + c1),
                   -3.3333333333333335 * h * (k3 - 2.0 * k2 + k1)))
    first = np.stack((zero, dt,
                      dt - h * (5.0 * (e1 + e3) + 8.0 * e2) / 18.0))
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

    ``inner`` is the state [rho, y, xi_b, eta] in t, from the apex to
    ``sign * t_switch``.  ``tail``, None when the interior reaches the
    mapped range, is [y, xi_b, eta, w] in rho, from rho at t_switch down to
    0, with w = |t| + log rho.
    """

    def __init__(self, sign: float, inner: _Solution,
                 tail: Optional[_Solution]):
        self.sign, self.inner, self.tail = sign, inner, tail
        self.t_switch = abs(float(inner.ts[-1]))
        if tail is not None:
            # w and |t| at the tail's step starts, |t| ascending
            self._w = tail.ys[:-1, 3]
            self._t = self._w - np.log(tail.ts[:-1])

    def log_rho(self, tt: np.ndarray) -> np.ndarray:
        """log rho on the tail at the times |t| = tt, by Newton's method on
        tt = w(rho) - log rho, whose log-rho derivative is -1/|xi_b|,
        started with w of the step start before each tt.  Each tt iterates
        until its own step is below ``_NEWTON_DONE``, so its result does not
        depend on the other times read with it."""
        j = np.clip(np.searchsorted(self._t, tt, side="right") - 1,
                    0, self._t.size - 1)
        u = self._w[j] - tt
        todo = np.arange(tt.size)
        for _ in range(_NEWTON_MAX):
            x = self.tail.batch(np.exp(u[todo]))
            du = (x[:, 3] - u[todo] - tt[todo]) * np.abs(x[:, 1])
            u[todo] += du
            todo = todo[np.abs(du) > _NEWTON_DONE]
            if not todo.size:
                break
        return u


@dataclass
class JacobiSystem:
    """A geodesic in hyperbolic time, its curvature, and its Magnus grid.

    ``_sides`` hold the orbit on [-t_range, 0] and on [0, t_range] (each a
    :class:`_Side`: an interior in t and a tail in rho), with t = 0 at the
    apex of the trace it started from.  ``_nodes`` are the piece ends over
    [-t_range, t_range], ascending, and ``_mats`` the forward transfer
    matrix (m11, m12, m21, m22) of each piece.  Every method reads these and
    nothing from the trace.  Scalar curvature bookkeeping restricts
    construction to one-dimensional boundaries.
    """

    fam: BoundaryMetricFamily
    t_range: float
    _sides: Tuple[_Side, _Side]     # t <= 0, then t >= 0
    _nodes: np.ndarray = field(repr=False, default=None)
    _mats: list = field(repr=False, default=None)

    def curvature(self, t: float) -> float:
        z = self._states(np.array([float(t)]))
        return float(self._curvature(z[:, 0], z[:, 1])[0])

    def _check(self, ts: np.ndarray) -> None:
        t_far = np.max(np.abs(ts), initial=0.0)
        if t_far > self.t_range * (1.0 + 1e-12):
            raise ValueError("time %g exceeds the mapped range %g"
                             % (t_far, self.t_range))

    def _states(self, ts: np.ndarray) -> np.ndarray:
        """Orbit states [rho, y, xi_b, eta] at many t, with one read of each
        part of each side (the tail's by Newton on log rho)."""
        self._check(ts)
        z = np.empty((ts.size, 4))
        for side in self._sides:
            tt = side.sign * ts
            on = (ts >= 0.0) == (side.sign > 0.0)
            tail = on & (tt > side.t_switch) & (side.tail is not None)
            inner = on & ~tail
            if inner.any():
                z[inner] = side.inner.batch(ts[inner])
            if tail.any():
                z[tail, 0] = rho = np.exp(side.log_rho(tt[tail]))
                z[tail, 1:] = side.tail.batch(rho)[:, :3]
        return z

    def _curvature(self, rho: np.ndarray, y: np.ndarray) -> np.ndarray:
        """K at orbit points, with one array call; -1 where rho, about
        e^{-|t|} on the tails, underflows to 0 (|t| above about 745)."""
        k = np.full(len(rho), -1.0)
        inside = rho > 0.0
        if inside.any():
            k[inside] = gauss_curvature(self.fam, rho[inside], y[inside])
        return k

    def _magnus(self, t0: np.ndarray, t1: np.ndarray) -> np.ndarray:
        """Magnus transfer matrices from each t0 to its t1 (either way in
        t): rows (m11, m12, m21, m22).  A pair on one side's tail steps in
        s between the log rho of its ends; any other steps in t, reading the
        orbit at its Gauss nodes with one curvature call."""
        self._check(np.concatenate((t0, t1)))
        out = np.empty((t0.size, 4))
        rest = np.ones(t0.size, dtype=bool)
        for side in self._sides:
            if side.tail is None:
                continue
            a, b = side.sign * t0, side.sign * t1
            tail = (a >= side.t_switch) & (b >= side.t_switch)
            if tail.any():
                s = -side.log_rho(np.concatenate((a[tail], b[tail])))
                out[tail] = self._tail_transfer(side, *np.split(s, 2),
                                                t1[tail] - t0[tail])
                rest &= ~tail
        if rest.any():
            h = t1[rest] - t0[rest]
            z = self._states((t0[rest][:, None] + h[:, None] * _GAUSS).ravel())
            k = self._curvature(z[:, 0], z[:, 1]).reshape(-1, 3)
            out[rest] = _transfer(h, h, k, np.ones_like(k))
        return out

    def _tail_transfer(self, side: _Side, s0: np.ndarray, s1: np.ndarray,
                       dt: np.ndarray) -> np.ndarray:
        """Transfer matrices over tail pieces from each s0 to its s1 (s =
        -log rho), which span dt in t, with c = dt/ds = +-1/|xi_b| and K
        read at the Gauss nodes straight from the tail."""
        h = s1 - s0
        rho = np.exp(-(s0[:, None] + h[:, None] * _GAUSS).ravel())
        y, xi, eta, _ = side.tail.batch(rho).T
        a = np.abs(xi)
        # 1/|xi_b| through the cosphere identity, as in the tail's dw/drho
        c = 1.0 + rho * rho * eta * eta / (
            self.fam.profiles[0](rho, y)[0] * (1.0 + a) * a)
        return _transfer(h, dt, self._curvature(rho, y).reshape(-1, 3),
                         side.sign * c.reshape(-1, 3))

    def _tail_grid(self, side: _Side) -> Tuple[np.ndarray, np.ndarray]:
        """Piece ends, ascending in t, and transfer matrices of one side's
        tail from the switch to t_range, in s = -log rho.  No piece is
        longer than a bound that grows with s (``_TAIL_PIECE``); each tail
        step but the last, which reaches rho = 0, is split into equal
        pieces, at least ``PIECES`` of them.  Break levels end tail steps,
        so no piece straddles a corner of K.  A node's t is +-(w + s), read
        at its rho; no t is inverted.  A side with no tail has one node."""
        if side.tail is None:
            return np.array([side.sign * side.t_switch]), np.empty((0, 4))
        s_steps = -np.log(side.tail.ts[:-1])
        s_end = max(s_steps[0],
                    -float(side.log_rho(np.array([self.t_range]))[0]))

        def longest(s):
            return min(1.0, _TAIL_PIECE * math.exp((s - s_steps[0])
                                                   / _TAIL_GROWTH))

        pts = [s_steps[:0]]
        for a, b in zip(s_steps[:-1], s_steps[1:]):
            n = max(PIECES, math.ceil((b - a) / longest(a)))
            pts.append(a + (b - a) / n * np.arange(n))
        s = s_steps[-1]
        while s < s_end:
            pts.append([s])
            s += longest(s)
        s = np.concatenate(pts)
        s = np.append(s[s < s_end], s_end)
        t = side.sign * (side.tail.batch(np.exp(-s))[:, 3] + s)
        t[0], t[-1] = side.sign * side.t_switch, side.sign * self.t_range
        if side.sign < 0.0:
            s, t = s[::-1], t[::-1]
        return t, self._tail_transfer(side, s[:-1], s[1:], np.diff(t))


def _side_nodes(fam: BoundaryMetricFamily, sol: _Solution) -> np.ndarray:
    """Piece ends of one side's interior, ascending.

    The interior's steps are cut where rho crosses a level of
    ``fam.breaks``, located by Brent on the dense rho to 1e-14 in t; rho is
    compared with the levels at the step ends, which finds every crossing
    where rho is monotone across a step, as it is on a geodesic's arc away
    from its apex.  Each cut step is split into ``PIECES`` equal pieces.
    """
    ts, rho = sol.ts, sol.ys[:, 0]
    cuts = []
    for level in fam.breaks:
        d = rho - level
        for i in np.flatnonzero(d[:-1] * d[1:] < 0.0):
            cuts.append(brentq(lambda t: sol.at(t)[0] - level,
                               ts[i], ts[i + 1], xtol=1e-14))
    edges = np.unique(np.concatenate((ts, cuts)))
    width = np.diff(edges) / PIECES
    return np.append((edges[:-1, None]
                      + width[:, None] * np.arange(PIECES)).ravel(),
                     edges[-1])


def _tail(fam: BoundaryMetricFamily, flow_rhs, inner: _Solution) -> _Solution:
    """The orbit's tail [y, xi_b, eta, w] from the end of ``inner`` down to
    rho = 0, with rho as the independent variable.

    dz/drho = barX / xi_b, and w = |t| + log rho has dw/drho = (1 -
    1/|xi_b|) / rho, written through the cosphere identity 1 - xi_b^2 =
    rho^2 |eta|_h^2 as -rho |eta|_h^2 / ((1 + |xi_b|) |xi_b|), in which no
    1 + xi_b cancels.  The run is at rtol and atol ``MAP_TOL`` and ends at
    each break level on its way, so no step straddles a corner of K.  A
    step end with |xi_b| below ``XI_FLOOR`` raises
    :class:`TurningPointError`.
    """
    rho0, y0, xi0, eta0 = inner.y_end.tolist()
    x = np.array([y0, xi0, eta0, abs(float(inner.ts[-1])) + math.log(rho0)])

    def rhs(rho, x):
        y, xi, eta, _ = x.tolist()
        _, dy, dxi, deta = flow_rhs(rho, np.array([rho, y, xi, eta])).tolist()
        a = abs(xi)
        try:
            return np.array([dy / xi, dxi / xi, deta / xi,
                             -(eta * dy) / ((1.0 + a) * a)])
        except ZeroDivisionError:
            return np.full(4, math.nan)

    def turned(x):
        return abs(x[1]) < XI_FLOOR

    steps = []
    levels = sorted((lv for lv in fam.breaks if 0.0 < lv < rho0), reverse=True)
    for end in levels + [0.0]:
        sol = _integrate(rhs, rho0, x, end, MAP_TOL, MAP_TOL,
                         "orbit tail integration", until=turned)
        steps += sol.steps
        if turned(sol.y_end):
            raise TurningPointError(
                "the orbit turns back from the boundary at rho=%g: |xi_b| "
                "%.3g < %g" % (sol.ts[-1], abs(sol.y_end[1]), XI_FLOOR))
        rho0, x = end, sol.y_end
    return _Solution(steps, 0.0, x)


def jacobi_system(fam: BoundaryMetricFamily, traj: GeodesicTrajectory,
                  t_range: float = 32.0) -> JacobiSystem:
    """Integrate the orbit of ``traj`` out to hyperbolic time +-t_range and
    tabulate the Jacobi equation's transfer matrices along it.

    The orbit is the state z = [rho, y, xi_b, eta] alone; it keeps no flow
    parameter.  From the trace's state at its apex (``traj.rho_peak()``)
    each side runs in t, dz/dt = rho barX(z), to the first step end where
    rho is at most ``TAIL_SWITCH`` of its peak, then in rho down to rho = 0
    (the tail), both at rtol and atol ``MAP_TOL``.  t_range must be finite
    and positive, and ``fam`` must be the family ``traj`` was traced in
    (equal ``spec()``), since the curvature and the flow are read from
    ``fam``; else ValueError.  A tail that turns back before rho = 0 raises
    :class:`TurningPointError`.
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

    def rhs(t, z):
        return z[0] * flow_rhs(t, z)

    z0 = traj.state_at(traj.rho_peak()[0]).as_vector()
    rho_switch = TAIL_SWITCH * z0[0]
    sides = []
    for sign in (-1.0, 1.0):
        inner = _integrate(rhs, 0.0, z0, sign * t_range, MAP_TOL, MAP_TOL,
                           "orbit integration",
                           until=lambda z: z[0] <= rho_switch)
        tail = (_tail(fam, flow_rhs, inner)
                if abs(inner.ts[-1]) < t_range else None)
        sides.append(_Side(sign, inner, tail))
    system = JacobiSystem(fam=fam, t_range=t_range, _sides=tuple(sides))
    inner = np.concatenate((_side_nodes(fam, sides[0].inner)[:-1],
                            _side_nodes(fam, sides[1].inner)))
    (t_bwd, m_bwd), (t_fwd, m_fwd) = map(system._tail_grid, sides)
    system._nodes = np.concatenate((t_bwd[:-1], inner, t_fwd[1:]))
    system._mats = np.concatenate(
        (m_bwd, system._magnus(inner[:-1], inner[1:]), m_fwd)).tolist()
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
    time outside the system's mapped range raises ValueError.  No
    renormalization is done: where K is near -1 a field grows like
    e^{|t|}, and a field that overflows (a span of more than about 700)
    raises :class:`AsymptoteError`.
    """
    a, b = float(t_span[0]), float(t_span[1])
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
    a sign change of y between grid nodes is refined by Brent on the
    field's reader; the base point itself is never reported.  The default
    base point is the anchor; moving t0 toward the incoming end tests base
    points whose field crosses the interior both inbound and outbound.
    A t_max that is negative or NaN raises ValueError.  The field grows
    like e^{|t|}, and a scan whose field overflows (t_max above about 700)
    raises :class:`AsymptoteError`.
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
    those where the orbit's rho is below 1e4 ``MAP_TOL``.  The tails hold
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


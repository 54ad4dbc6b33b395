"""Rescaled geodesic flow on the compactified unit cotangent bundle.

Phase coordinates are (rho, y, xi_b, eta) with the constraint
``xi_b**2 + rho**2 |eta|_h**2 = 1`` where |.|_h is the inverse-metric norm
of the boundary covector.  The rescaled generator

    rho' = xi_b
    y'^j = rho h^{ij} eta_i
    xi_b' = -(rho |eta|_h^2 + (rho^2/2) d|eta|_h^2/drho)
    eta_k' = -(rho/2) d|eta|_h^2/dy^k

is smooth up to rho = 0, so boundary arrival and departure are ordinary
finite-time events of the integration.  The full redundant state is
integrated by an in-repo DOP853 stepper (:class:`_Dop853`, the 8(5,3)
Runge-Kutta pair of Dormand and Prince) and re-projected onto the
constraint after every accepted step.  Each accepted step leaves one
coefficient row: its start ``t_old``, size ``h``, start state ``y_old`` and
the 7 x dim interpolant ``F`` of its dense output, which :func:`_horner`
evaluates.  The module runs on numpy alone: the stepper's tableau
(:mod:`ahx._dop853_tableau`) and the Brent root finder that locates
boundary arrival (:mod:`ahx._brent`) are in the package, and the tests pin
both to scipy's bit for bit.

Hyperbolic arclength is not part of the integrated state, so it does not
take part in step-size control, and a trace computes it only when it is
read.  The gated integrand gate(rho)/rho, with a C2 gate that switches on
between ``RHO_GATE_LO`` and ``RHO_GATE_HI`` (from the boundary the exact
arclength diverges), is integrated over each step's dense output by panel
Gauss quadrature the first time :meth:`GeodesicTrajectory.arclength_at` or
``t_acc`` is read, and kept.  The ``t_max`` guard adds a closed-form upper
bound of each step's arclength; only once that bound passes ``t_max`` does
it integrate the steps exactly, and it raises :class:`TrappedOrSlowError`
when the exact arclength does.  The guard keeps only its running sums.
A :class:`GeodesicTrajectory` is the :class:`_Solution` (the one
dense-output type, which the Jacobi layer reads too) of its accepted steps
and its stats; it derives its samples and arclength panels from them.
Quadrature along a trajectory states its resolution explicitly: a number of
Gauss nodes per sub-panel and ``QUAD_PANELS`` sub-panels per step, plus
optional rho levels where the integrand is not smooth
(:meth:`GeodesicTrajectory.quad_nodes`).

The tolerance is the stepper's ``rtol = atol`` on [rho, y, xi_b, eta]; it
does not cover the arclength.  The dense output between steps is an
interpolant outside error control, so the arrival step is retaken exactly
to the located arrival time and the outgoing covector carries the accuracy
of an integration step.  A step or arrival end that the projection moves by
more than ``COSPHERE_SLACK`` of its covector was not resolved, although the
error estimate passed it, and the trace fails rather than go on from it.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from . import _dop853_tableau as _dop
from ._brent import brentq
from .metric import BoundaryMetricFamily, eval_metric
from .quadrature import composite_gauss, panel_gauss, smoothstep

__all__ = [
    "FlowError", "TrappedOrSlowError", "ChartExitError", "CollarExitError",
    "BPhasePoint", "BoundaryCovector", "GeodesicTrajectory", "TraceStats",
    "barX_eval", "trace_geodesic", "trace_from_state",
    "scattering_map", "scattering_jacobian", "ScatteringJacobian",
    "delta_max", "flip_state",
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
DELTA_CAP = 0.2
COSPHERE_SLACK = 0.1  # largest relative move of the projection after a step


class FlowError(RuntimeError):
    """Integration of the rescaled flow failed.

    ``stats`` is the :class:`TraceStats` of the trace up to the failure when
    the tracing driver raised it, else None.
    """

    stats = None


class TrappedOrSlowError(FlowError):
    """Accumulated interior arclength exceeded t_max before boundary arrival
    (the guard skips the arrival step: an arriving geodesic is not trapped)."""

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
        n = self.y.size
        out = np.empty(2 * n + 2)
        out[0] = self.rho
        out[1:1 + n] = self.y
        out[1 + n] = self.xi_b
        out[2 + n:] = self.eta
        return out


@dataclass(frozen=True)
class BoundaryCovector:
    """Boundary data (y, eta) of an incoming or outgoing geodesic."""

    y: np.ndarray
    eta: np.ndarray

    @classmethod
    def make(cls, y, eta) -> "BoundaryCovector":
        return cls(np.atleast_1d(np.asarray(y, dtype=float)),
                   np.atleast_1d(np.asarray(eta, dtype=float)))


def flip_state(p: BPhasePoint) -> BPhasePoint:
    """Time-reversal involution (rho, y, xi_b, eta) -> (rho, y, -xi_b, -eta)."""
    return BPhasePoint.make(p.rho, p.y, -p.xi_b, -p.eta)


# ---------------------------------------------------------------------------
# vector field


def _gate_over_rho(rho: np.ndarray) -> np.ndarray:
    """Arclength integrand gate(rho)/rho: zero below RHO_GATE_LO, exact 1/rho
    above RHO_GATE_HI, joined by the quintic C2 smoothstep."""
    g = smoothstep((rho - RHO_GATE_LO) / (RHO_GATE_HI - RHO_GATE_LO))
    return np.where(rho > RHO_GATE_LO, g / np.maximum(rho, RHO_GATE_LO), 0.0)


# sup of gate(rho)/rho (about 105.25, near rho = 0.0092), with room for the
# sampling error of the grid
_GATE_SUP = 1.001 * float(np.max(_gate_over_rho(
    np.linspace(RHO_GATE_LO, RHO_GATE_HI, 1001))))


def _make_rhs(fam: BoundaryMetricFamily) -> Callable:
    """Flow RHS on the state [rho, y, xi_b, eta], built afresh on each call
    (a closure over the family's profiles is cheaper to build than to look
    up in a cache).

    With u_k = eta_k / h_kk: |eta|_h^2 = sum u_k eta_k, its rho-derivative
    is -sum u_k^2 dh_kk/drho and its y_k-derivative -u_k^2 dh_kk/dy_k.
    ``rhs(tau, s, vals)`` takes the profile values at (rho, y) of s
    (:func:`_profile_values`) when the caller already has them.
    """
    n = fam.n
    profiles = fam.profiles

    def rhs(tau, s, vals=None):
        rho = s[0]
        out = np.empty(2 * n + 2)
        dxi = 0.0
        for k, prof in enumerate(profiles):
            h, dh_r, dh_y, _ = prof(rho, s[1 + k]) if vals is None \
                else vals[k]
            eta = s[2 + n + k]
            u = eta / h
            ru, half_rho = rho * u, 0.5 * rho
            out[1 + k] = ru
            out[2 + n + k] = half_rho * u * u * dh_y
            dxi -= ru * eta - half_rho * rho * u * u * dh_r
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
    return float(v[0]), v[1:1 + n], float(v[1 + n]), v[2 + n:]


def _profile_values(fam: BoundaryMetricFamily, s: np.ndarray) -> list:
    """(h_kk, dh_kk/drho, dh_kk/dy_k, d2h_kk/drho2) of each coordinate at the
    (rho, y) of the state s."""
    return [prof(s[0], s[1 + k]) for k, prof in enumerate(fam.profiles)]


def _project_vec(fam: BoundaryMetricFamily, s: np.ndarray, n: int,
                 vals=None) -> np.ndarray:
    """Rescale (xi_b, eta) jointly onto the unit cosphere.

    ``vals`` are the profile values at s (:func:`_profile_values`) when the
    caller already has them; the projection keeps rho and y, so they also
    hold at the projected state.
    """
    if vals is None:
        vals = _profile_values(fam, s)
    rho = s[0]
    xi = s[1 + n]
    eta = s[2 + n:2 + 2 * n]
    e2 = 0.0
    for k, v in enumerate(vals):
        e2 += eta[k] * eta[k] / v[0]
    norm2 = xi * xi + rho * rho * float(e2)
    if norm2 <= 0.0:
        return s
    c = 1.0 / math.sqrt(norm2)
    out = s.copy()
    out[1 + n] = xi * c
    out[2 + n:2 + 2 * n] = eta * c
    return out


def _split_vec(n: int, vec: np.ndarray) -> BPhasePoint:
    return BPhasePoint.make(vec[0], vec[1:1 + n], vec[1 + n],
                            vec[2 + n:2 + 2 * n])


# ---------------------------------------------------------------------------
# DOP853 stepper and its dense output

_EPS = np.finfo(float).eps
_SAFETY = 0.9
_MIN_FACTOR = 0.2     # smallest step-size factor after a rejection
_MAX_FACTOR = 10      # largest step-size factor after an acceptance
_ERR_EXP = -1 / 8     # -1 / (error estimator order 7 + 1)
_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
_N_STAGES = _dop.N_STAGES            # 12 stages of a step, then f(t + h)
_N_EXTENDED = _dop.N_STAGES_EXTENDED  # and 3 more for the dense output
# (A-row, C-node) of stage s, which combines the stage values K[:s]
_STAGE = [(_dop.A[s, :s], float(_dop.C[s])) for s in range(_N_EXTENDED)]


class _Step(NamedTuple):
    """Dense output of one accepted step on [t_old, t]: the state at
    t_old + x h is ``_horner(F, y_old, x)`` with h = t - t_old."""

    t_old: float
    t: float
    h: float
    y_old: np.ndarray    # (dim,)
    F: np.ndarray        # (7, dim)

    def __call__(self, t: float) -> list:
        """State at t in Python floats, cheaper than numpy on so few values."""
        x = float((t - self.t_old) / self.h)
        return [_horner(f, y0, x) for f, y0
                in zip(self.F.T.tolist(), self.y_old.tolist())]


def _horner(F, y_old, x):
    """Dense state at the step fraction x from the coefficients F[0..6].

    Evaluates y_old + x (F0 + (1-x) (F1 + x (F2 + (1-x) (F3 + x (F4 +
    (1-x) (F5 + x F6)))))) with the operations of scipy's
    ``Dop853DenseOutput`` in its order, elementwise; its sum starts from
    zeros, whence F6 + 0.0.  The F[k], y_old and x may be floats or arrays
    that broadcast together: one state component, one state, or many.
    """
    xc = 1.0 - x
    return y_old + x * (F[0] + xc * (F[1] + x * (F[2] + xc * (
        F[3] + x * (F[4] + xc * (F[5] + x * (F[6] + 0.0)))))))


def _step_rho(st: _Step, taus):
    """rho on the dense output of one step, at a float or an array of taus."""
    x = (np.asarray(taus) - st.t_old) / st.h
    return _horner(st.F[:, 0], st.y_old[0], x)


def _step_root(st: _Step, k: int, lo: float, hi: float) -> float:
    """Brent root in [lo, hi] of state component k on a step's dense output,
    to xtol 1e-14 or, on brackets under 8e-14 (|eta| > 1e13), an eighth."""
    f, y0 = st.F[:, k], st.y_old[k]
    return brentq(lambda t: float(_horner(f, y0, (t - st.t_old) / st.h)),
                  lo, hi, xtol=min(1e-14, (hi - lo) / 8), rtol=8.9e-16)


def _norm2(x: np.ndarray):
    """Euclidean norm of a vector, computed as ``np.linalg.norm`` does."""
    return np.sqrt(x.dot(x))


def _rms(x: np.ndarray):
    return _norm2(x) / x.size ** 0.5


class _Dop853:
    """Explicit Runge-Kutta pair 8(5,3) of Dormand and Prince, toward t_bound.

    Hairer, Norsett & Wanner, *Solving ODEs I*, II.4-II.6, with the tableau
    of :mod:`ahx._dop853_tableau`, scipy's to the bit.  Every numpy
    operation of scipy's ``DOP853`` is repeated in the same order (initial
    step guess, stage sums, error norm from the 5th- and 3rd-order
    estimates, step controller, 7-row dense output), forward or backward in
    t, so the steps, rejections and RHS calls are scipy's to the last bit.
    As in scipy, rtol is raised to 100 eps with a warning, and a negative
    atol raises ValueError.
    ``nfev``, ``n_accepted`` and ``n_rejected`` count RHS calls and step
    attempts.  After :meth:`step` the caller may replace ``y`` and ``f``
    (e.g. by a projection) before the next step.
    """

    def __init__(self, fun: Callable, t0: float, y0, t_bound: float,
                 rtol: float, atol: float, first_step: float | None = None):
        if rtol < 100 * _EPS:
            warnings.warn("At least one element of `rtol` is too small. "
                          f"Setting `rtol = np.maximum(rtol, {100 * _EPS})`.",
                          stacklevel=2)
            rtol = max(rtol, 100 * _EPS)
        if atol < 0:
            raise ValueError("`atol` must be positive.")
        y0 = np.asarray(y0, dtype=float)
        if not np.isfinite(y0).all():
            raise ValueError(
                "All components of the initial state `y0` must be finite.")
        self.fun = fun
        self.t, self.y, self.t_bound = t0, y0, t_bound
        self.direction = -1.0 if t_bound < t0 else 1.0
        self.rtol, self.atol = rtol, atol
        self.f = fun(t0, y0)
        self.nfev = 1
        self.n_accepted = self.n_rejected = 0
        self.t_old = self.y_old = None
        self.h_abs = self._initial_step() if first_step is None else first_step
        self.K = np.empty((_N_EXTENDED, y0.size))
        self._KT = [self.K[:s].T for s in range(_N_EXTENDED + 1)]

    def _initial_step(self):
        """scipy's ``select_initial_step`` (Hairer et al., II.4)."""
        t0, y0, f0 = self.t, self.y, self.f
        interval = abs(self.t_bound - t0)
        scale = self.atol + np.abs(y0) * self.rtol
        d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, interval)
        f1 = self.fun(t0 + h0 * self.direction, y0 + h0 * self.direction * f0)
        self.nfev += 1
        d2 = _rms((f1 - f0) / scale) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / 8)
        return min(100 * h0, h1, interval)

    def step(self) -> _Step | None:
        """Take one accepted step and return its dense output, or None when
        the step size falls below ten ulps of t (``_TOO_SMALL_STEP``) or is
        NaN, as from an initial step guess at a zero atol and a zero state
        component."""
        fun, K, KT = self.fun, self.K, self._KT
        t, y, f, d = self.t, self.y, self.f, self.direction
        min_step = 10 * abs(math.nextafter(t, d * math.inf) - t)
        h_abs = max(self.h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:     # true for a NaN step size too
                return None
            t_new = (min if d > 0 else max)(t + h_abs * d, self.t_bound)
            h = t_new - t
            h_abs = abs(h)
            K[0] = f
            for s in range(1, _N_STAGES):
                a, c = _STAGE[s]
                K[s] = fun(t + c * h, y + KT[s].dot(a) * h)
            y_new = y + h * KT[_N_STAGES].dot(_dop.B)
            f_new = fun(t + h, y_new)
            K[_N_STAGES] = f_new
            self.nfev += _N_STAGES
            scale = self.atol + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol
            err5 = KT[_N_STAGES + 1].dot(_dop.E5) / scale
            err3 = KT[_N_STAGES + 1].dot(_dop.E3) / scale
            err5_2 = _norm2(err5) ** 2
            err3_2 = _norm2(err3) ** 2
            if err5_2 == 0 and err3_2 == 0:
                err = 0.0
            else:
                err = h_abs * err5_2 / np.sqrt(
                    (err5_2 + 0.01 * err3_2) * len(scale))
            if err < 1:
                self.n_accepted += 1
                factor = (_MAX_FACTOR if err == 0 else
                          min(_MAX_FACTOR, _SAFETY * err ** _ERR_EXP))
                h_abs *= min(1, factor) if rejected else factor
                break
            self.n_rejected += 1
            h_abs *= max(_MIN_FACTOR, _SAFETY * err ** _ERR_EXP)
            rejected = True
        self.t_old, self.y_old = t, y
        self.t, self.y, self.f, self.h_abs = t_new, y_new, f_new, h_abs
        # the three extra stages of the dense output
        for s in range(_N_STAGES + 1, _N_EXTENDED):
            a, c = _STAGE[s]
            K[s] = fun(t + c * h, y + KT[s].dot(a) * h)
        self.nfev += _N_EXTENDED - _N_STAGES - 1
        F = np.empty((_dop.INTERPOLATOR_POWER, y.size))
        f_old = K[0]
        delta_y = y_new - y
        F[0] = delta_y
        F[1] = h * f_old - delta_y
        F[2] = 2 * delta_y - h * (f_new + f_old)
        F[3:] = h * _dop.D.dot(K)
        return _Step(float(t), float(t_new), float(h), y, F)


class _Solution:
    """Dense output of accepted steps, either way in t, ending at t_end in
    y_end; ``ts`` holds each step's start and t_end, ``ys`` the states.

    :meth:`at` reads one t in Python floats and :meth:`batch` many t
    through :func:`_horner`, bit for bit alike, with one lookup: a step end
    is read on the step that ends there, as scipy's ``OdeSolution`` does.
    """

    def __init__(self, steps: list, t_end: float, y_end: np.ndarray):
        self.steps = steps
        self.ts = np.array([st.t_old for st in steps] + [t_end])
        self.y_end = y_end
        self._sign = -1.0 if t_end < self.ts[0] else 1.0
        # step starts, signed so that they ascend
        self._starts = [self._sign * st.t_old for st in steps]

    @cached_property
    def ys(self) -> np.ndarray:
        return np.array([st.y_old for st in self.steps] + [self.y_end])

    @cached_property
    def _rows(self):
        """(signed start, t_old, h, y_old, F) of the steps, stacked."""
        st = self.steps
        return (np.array(self._starts), self.ts[:-1],
                np.array([s.h for s in st]), np.array([s.y_old for s in st]),
                np.stack([s.F for s in st], axis=1))

    def at(self, t: float) -> list:
        """State at one t."""
        i = bisect_left(self._starts, self._sign * t) - 1
        return self.steps[min(max(i, 0), len(self.steps) - 1)](t)

    def batch(self, ts) -> np.ndarray:
        """States at many t, shape (len(ts), dim)."""
        ts = np.asarray(ts, dtype=float).ravel()
        starts, t_old, h, y_old, F = self._rows
        i = np.clip(np.searchsorted(starts, self._sign * ts) - 1,
                    0, h.size - 1)
        return _horner(F[:, i], y_old[i], ((ts - t_old[i]) / h[i])[:, None])


def _integrate(fun: Callable, t0: float, y0, t_bound: float, rtol: float,
               atol: float, what: str) -> _Solution:
    """Dense solution of y' = fun(t, y) from t0 to t_bound, either way; a
    step size below ten ulps of t raises ``FlowError`` naming ``what``."""
    solver = _Dop853(fun, t0, y0, t_bound, rtol, atol)
    steps = []
    while solver.direction * (solver.t - t_bound) < 0:
        st = solver.step()
        if st is None:
            raise FlowError(f"{what} failed: {_TOO_SMALL_STEP}")
        steps.append(st)
    return _Solution(steps, solver.t, solver.y)


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


def _rho_samples(st: _Step):
    """rho at the ``_ARC_GRID`` points of one step: (taus, rho)."""
    grid = st.t_old + st.h * _ARC_GRID
    return grid, _step_rho(st, grid)


def _arc_panels(st: _Step, grid, rho):
    """Gated arclength of one step, integrated panel by panel.

    ``grid`` and ``rho`` are the step's :func:`_rho_samples`.  Panel edges
    sit where rho crosses a gate edge or a level of the doubling ladder
    ``RHO_GATE_HI * 2**k``: the C2 corners of the gate thus lie on panel
    edges, and 1/rho changes by at most about a factor two across a panel,
    which keeps the pole of 1/rho far outside each Gauss rule.  Returns
    (right panel edges, arclength of each panel).
    """
    t_lo, t_hi = st.t_old, st.t
    top = float(np.max(rho))
    if top <= RHO_GATE_LO:
        return np.array([t_hi]), np.zeros(1)
    n_up = max(0, math.ceil(math.log2(top / RHO_GATE_HI)))
    levels = np.append(RHO_GATE_LO, RHO_GATE_HI * 2.0 ** np.arange(n_up))
    cuts = _level_crossings(grid[None], rho[None], levels)
    edges = np.concatenate(([t_lo], cuts, [t_hi]))
    nodes, w = panel_gauss(edges[:-1], edges[1:], ARC_NODES)
    vals = _gate_over_rho(_step_rho(st, nodes.ravel())).reshape(nodes.shape)
    return edges[1:], np.sum(w * vals, axis=1)


# bound on |drho/dtau| = |xi_b| <= 1 along a step's dense output, with room
# for its drift off the cosphere
_RHO_SLOPE = 1.01


def _arc_cdf(r: float) -> float:
    """Integral of min(M, 1/x) over x in [0, r], with M = ``_GATE_SUP``.

    It is M r up to r = 1/M and continues as M r below 0, which charges
    the cap M wherever a lower bound of rho reaches 0.
    """
    m = _GATE_SUP
    return m * r if m * r <= 1.0 else 1.0 + math.log(m * r)


def _arc_bound(rho_lo: float, rho_hi: float, h: float) -> float:
    """Closed-form upper bound of the gated arclength of one step.

    The step starts at rho_lo and ends at rho_hi after h.  As rho moves at
    most at the rate L = ``_RHO_SLOPE``, it stays above r(s) = max(rho_lo -
    L s, rho_hi - L (h - s), 0) at the time s since the step's start, and
    gate(rho)/rho <= min(M, 1/rho).  The bound is the integral of
    min(M, 1/r) over the step: r falls from rho_lo to its minimum at s_min,
    then rises to rho_hi, each piece at the rate L.
    """
    slope = _RHO_SLOPE
    s_min = min(max((rho_lo - rho_hi + slope * h) / (2.0 * slope), 0.0), h)
    return (_arc_cdf(rho_lo) - _arc_cdf(rho_lo - slope * s_min)
            + _arc_cdf(rho_hi) - _arc_cdf(rho_hi - slope * (h - s_min))) / slope


# ---------------------------------------------------------------------------
# trajectory container


@dataclass(frozen=True)
class TraceStats:
    """Counters of one trace.

    ``n_accepted`` and ``n_rejected`` count the step attempts the
    :class:`_Dop853` steppers accepted and rejected, the arrival step and
    its exact retake both included; ``n_rhs`` is their number of
    right-hand-side calls (``nfev``).  ``max_constraint_drift`` is the
    largest |proj - y| that the cosphere projection removed from the state
    after an accepted step or from the arrival end state.  ``guard`` names
    the check that stopped a failed trace: "t_max", "collar", "chart",
    "step_limit", "integrator", "cosphere" (an accepted step or the arrival
    end left the unit cosphere by more than ``COSPHERE_SLACK``) or
    "half_space" (the arrival search found no rho > 0 on an overshooting
    step); it is None for a trace that arrived.
    """

    n_accepted: int
    n_rejected: int
    n_rhs: int
    max_constraint_drift: float
    guard: str | None


class GeodesicTrajectory:
    """Dense trajectory of the rescaled flow on [0, tau_plus].

    The trajectory is the :class:`_Solution` of its accepted steps, which
    ends at the arrival time ``tau_plus`` in its ``end`` (the projected
    outgoing state, y not wrapped), and its :class:`TraceStats` ``stats``;
    the rest is derived, ``z_out`` at once and every table on first read.
    :meth:`eval_raw` (one tau), :meth:`state_at` (one tau, projected) and
    :meth:`eval_many` (a batch of taus) read the solution's dense output.
    The gated hyperbolic arclength from tau = 0 is :meth:`arclength_at`;
    ``t_acc`` is its value at tau_plus.  A trace that never reads the
    arclength panels or per-step rho samples, e.g. one whose transforms cut
    at no rho level, never builds them.
    """

    def __init__(self, fam, sol: _Solution, end: BPhasePoint, stats):
        self.family = fam
        self.n = fam.n
        self._sol = sol
        self.tau_plus = float(sol.ts[-1])
        self.end = end
        self.z_out = BoundaryCovector.make(fam.chart.wrap(end.y), end.eta)
        self.stats = stats

    @cached_property
    def samples(self) -> list:
        """(tau, BPhasePoint) at each step's start, then (tau_plus, end)."""
        return [(st.t_old, _split_vec(self.n, st.y_old))
                for st in self._sol.steps] + [(self.tau_plus, self.end)]

    @cached_property
    def _rho_table(self):
        """rho sampled at the _ARC_GRID points of each step, and those taus,
        both of shape (steps, len(_ARC_GRID))."""
        taus, rho = zip(*map(_rho_samples, self._sol.steps))
        return np.array(taus), np.array(rho)

    @cached_property
    def _arc_table(self):
        """Right edges of every arclength panel, and the arclength
        accumulated up to each edge."""
        taus, rho = self._rho_table
        edges, incr = zip(*map(_arc_panels, self._sol.steps, taus, rho))
        return np.concatenate(edges), np.cumsum(np.concatenate(incr))

    @property
    def t_acc(self) -> float:
        """Gated arclength of the whole trajectory."""
        return float(self._arc_table[1][-1])

    def eval_raw(self, tau: float) -> np.ndarray:
        """Dense state at one tau, not projected."""
        if tau < -1e-12 or tau > self.tau_plus + 1e-12:
            raise ValueError(f"tau={tau} outside [0, {self.tau_plus}]")
        return np.array(self._sol.at(min(max(tau, 0.0), self.tau_plus)))

    def state_at(self, tau: float) -> BPhasePoint:
        return _split_vec(self.n, _project_vec(self.family,
                                               self.eval_raw(tau), self.n))

    def eval_many(self, taus: np.ndarray) -> np.ndarray:
        """Dense states at the given taus, shape (len(taus), dim).

        Raw dense output; constraint drift stays below the projection
        tolerance because every accepted step was re-projected.
        """
        return self._sol.batch(taus)

    def quad_nodes(self, a: float, b: float, npts: int = 12, rho_breaks=()):
        """Composite Gauss nodes/weights on [a, b].

        Every integration step is cut into ``QUAD_PANELS`` equal sub-panels
        and each piece of [a, b] between those cuts gets an ``npts``-point
        rule, so the resolution is npts * QUAD_PANELS nodes per step of the
        trace.  ``rho_breaks`` are levels of rho where the integrand is not
        smooth (e.g. the edges of a field's support); the rule is also cut
        where the trajectory crosses them.
        """
        b_ = self._sol.ts
        cuts = np.append(b_[:-1, None] + np.diff(b_)[:, None]
                         * (np.arange(QUAD_PANELS) / QUAD_PANELS), b_[-1])
        if len(rho_breaks):
            cross = _level_crossings(*self._rho_table, rho_breaks)
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
        arc_edges, arc_cum = self._arc_table
        edges = np.concatenate(([0.0], arc_edges))
        j = np.clip(np.searchsorted(edges, flat) - 1, 0, edges.size - 2)
        cum = np.concatenate(([0.0], arc_cum))[j]
        # the piece [edge_j, tau] lies inside one arclength panel
        nodes, w = panel_gauss(edges[j], flat, ARC_NODES)
        rho = self.eval_many(nodes.ravel())[:, 0].reshape(nodes.shape)
        out = cum + np.sum(w * _gate_over_rho(rho), axis=1)
        return out.reshape(taus.shape) if taus.ndim else float(out[0])

    def rho_peak(self):
        """(tau, rho) where rho peaks: the Brent root of xi_b = drho/dtau on
        the one step where xi_b changes sign, or the first step start with
        xi_b <= 0 (the start itself when rho only falls).  The arrival step
        ends with xi_b < 0."""
        k = 1 + self.n
        for st in self._sol.steps:
            if st.y_old[k] <= 0.0:
                return st.t_old, float(st.y_old[0])
            if _horner(st.F[:, k], st.y_old[k], 1.0) < 0.0:
                tau = _step_root(st, k, st.t_old, st.t)
                return tau, float(_step_rho(st, tau))


# ---------------------------------------------------------------------------
# tracing driver


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _drive(fam: BoundaryMetricFamily, s0: np.ndarray, *, tol: float,
           t_max: float) -> GeodesicTrajectory:
    """Integrate until the boundary-arrival event; project every step.

    The ``t_max`` guard adds the closed-form bound :func:`_arc_bound` of
    each accepted step's arclength.  Once that running bound passes
    ``t_max``, the exact arclength (:func:`_arc_panels`) of each step not
    yet integrated is added to a running exact sum, which raises
    :class:`TrappedOrSlowError` above ``t_max``; a trace whose bound stays
    below ``t_max`` computes no panel.  The guard skips the arrival step:
    a geodesic that arrives is not trapped.  A step's end or the arrival
    end that the cosphere projection moves by more than ``COSPHERE_SLACK``
    of its covector raises :class:`FlowError`: the step controller passed a
    step it did not resolve.  Every :class:`FlowError` raised here carries
    the trace's :class:`TraceStats` so far as ``stats``.  The :class:`_Step`
    rows are the one list kept; the trajectory is their :class:`_Solution`.
    Floating-point overflow, invalid and divide warnings are off for the
    whole trace: a step too long for the covector's scale may overflow in
    its stages, and its non-finite error norm rejects it.
    """
    n = fam.n
    rhs = _make_rhs(fam)
    rho_limit = min(fam.rho_max, RHO_CEILING)
    chart = fam.chart
    solver = _Dop853(rhs, 0.0, s0, math.inf, tol, tol)
    solvers = [solver]
    steps = []
    rho_prev = s0[0]
    bound = 0.0     # running upper bound of the arclength
    t_acc = 0.0     # exact arclength of steps[:n_exact]
    n_exact = 0
    drift = 0.0

    def stats(guard=None):
        return TraceStats(
            n_accepted=sum(s.n_accepted for s in solvers),
            n_rejected=sum(s.n_rejected for s in solvers),
            n_rhs=sum(s.nfev for s in solvers),
            max_constraint_drift=drift, guard=guard)

    def fail(exc, guard):
        exc.stats = stats(guard)
        return exc

    def project(y, tau):
        """y projected onto the cosphere, and the profile values there."""
        nonlocal drift
        vals = _profile_values(fam, y)
        proj = _project_vec(fam, y, n, vals)
        jump = float(np.max(np.abs(proj - y)))
        drift = max(drift, jump)
        if jump > COSPHERE_SLACK * max(map(abs, y[1 + n:].tolist())):
            raise fail(FlowError(
                f"an accepted step left the unit cosphere at tau={tau:.6g}"
                " (the step is too long for the covector's scale)"),
                "cosphere")
        return proj, vals

    while True:
        if solver.n_accepted >= MAX_STEPS:
            raise fail(FlowError(
                f"step limit {MAX_STEPS} exceeded at tau={solver.t}"),
                "step_limit")
        st = solver.step()
        if st is None:
            raise fail(FlowError(f"integrator failure: {_TOO_SMALL_STEP}"),
                       "integrator")
        t_lo, t_hi = st.t_old, st.t
        steps.append(st)
        rho_new = solver.y[0]

        if rho_new <= 0.0:
            lo = t_lo
            if rho_prev <= 0.0:
                # overshoot of a whole arc within one step: bracket the
                # decreasing part from the interior maximum of rho
                grid = np.linspace(t_lo, t_hi, 65)
                rg = _step_rho(st, grid)
                imax = int(np.argmax(rg))
                if rg[imax] <= 0.0:
                    raise fail(FlowError(
                        "trajectory left the rho > 0 half-space"), "half_space")
                lo = float(grid[imax])
            tau_star = _step_root(st, 0, lo, t_hi)
            # retake the arrival step exactly to tau_star: the dense output
            # it would otherwise end on is less accurate than a step
            steps.pop()
            last = _Dop853(rhs, t_lo, solver.y_old, tau_star, tol, tol,
                           first_step=tau_star - t_lo)
            solvers.append(last)
            while True:
                st = last.step()
                if st is None:
                    raise fail(FlowError(
                        f"integrator failure: {_TOO_SMALL_STEP}"), "integrator")
                steps.append(st)
                # t_lo + h may fall short of tau_star by rounding
                if tau_star - last.t <= 4.0 * math.ulp(tau_star):
                    break
            tau_star = last.t
            end = last.y
            if abs(end[1 + n]) > 1e-8:
                # one Newton polish using drho/dtau = xi_b; the arclength
                # panels of this step end at st.t, not at the polished time
                tau_star -= float(end[0] / end[1 + n])
                end = _horner(st.F, st.y_old, (tau_star - st.t_old) / st.h)
            vec = project(end, tau_star)[0]
            end = BPhasePoint.make(0.0, vec[1:1 + n].copy(), -1.0,
                                   vec[2 + n:2 + 2 * n].copy())
            return GeodesicTrajectory(
                fam, _Solution(steps, tau_star, end.as_vector()), end, stats())

        if math.isfinite(rho_limit) and rho_new >= rho_limit:
            raise fail(CollarExitError(
                f"rho reached the domain edge {rho_limit:.6g} at tau={solver.t:.6g}"),
                "collar")
        if chart.kind == "affine" and chart.y_bounds is not None:
            if not chart.contains(solver.y[1:1 + n]):
                raise fail(ChartExitError(
                    f"y={solver.y[1:1 + n]} left the affine chart at tau={solver.t:.6g}"),
                    "chart")
        bound += _arc_bound(rho_prev, rho_new, t_hi - t_lo)
        if bound > t_max:
            for done in steps[n_exact:]:
                t_acc += float(np.sum(
                    _arc_panels(done, *_rho_samples(done))[1]))
            n_exact = len(steps)
            if t_acc > t_max:
                raise fail(TrappedOrSlowError(
                    f"interior arclength exceeded t_max={t_max:.6g} at tau={solver.t:.6g}"
                    " (trapped or nearly trapped trajectory)",
                    tau=float(solver.t), t_acc=t_acc), "t_max")

        proj, vals = project(solver.y, solver.t)
        if not np.array_equal(proj, solver.y):
            solver.y = proj
            solver.f = rhs(solver.t, proj, vals)
        rho_prev = proj[0]


def trace_geodesic(fam: BoundaryMetricFamily, z, tol: float = DEFAULT_TOL,
                   t_max: float = DEFAULT_T_MAX) -> GeodesicTrajectory:
    """Trace from an incoming boundary covector to the outgoing boundary.

    ``z`` is a BoundaryCovector or a (y, eta) pair.  The start state is
    (rho, y, xi_b, eta) = (0, y, +1, eta); integration ends at the first
    transversal return to rho = 0.  ``tol`` is the stepper's rtol = atol of
    the state and does not cover the arclength; on the half-plane the outgoing
    covector is off by about 6e-11 at tol 1e-10 and 3e-13 at 1e-12.
    ``t_max`` bounds the gated arclength before the arrival step, which the
    guard skips: a trajectory that arrives may have ``t_acc`` above it.
    """
    if not isinstance(z, BoundaryCovector):
        y, eta = z
        z = BoundaryCovector.make(y, eta)
    if z.y.size != fam.n or z.eta.size != fam.n:
        raise ValueError("boundary covector dimension mismatch")
    s0 = np.concatenate(([0.0], z.y, [1.0], z.eta))
    return _drive(fam, s0, tol=tol, t_max=t_max)


def trace_from_state(fam: BoundaryMetricFamily, state: BPhasePoint,
                     tol: float = DEFAULT_TOL) -> GeodesicTrajectory:
    """Trace the forward orbit of an interior phase point to the boundary."""
    s0 = _project_vec(fam, state.as_vector(), fam.n)
    return _drive(fam, s0, tol=tol, t_max=DEFAULT_T_MAX)


def scattering_map(fam: BoundaryMetricFamily, z,
                   tol: float = DEFAULT_TOL) -> BoundaryCovector:
    """Outgoing boundary covector of the geodesic entering at z."""
    return trace_geodesic(fam, z, tol=tol).z_out


def _central_diff(f: Callable, x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Central differences (f(x + h_k e_k) - f(x - h_k e_k)) / (2 h_k),
    coordinate k along the last axis of the result."""
    cols = []
    for k in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[k] += h[k]
        xm[k] -= h[k]
        cols.append((f(xp) - f(xm)) / (2.0 * h[k]))
    return np.stack(cols, axis=-1)


@dataclass(frozen=True)
class ScatteringJacobian:
    """Finite-difference derivative of the scattering map at one covector."""

    matrix: np.ndarray           # d(y_out, eta_out)/d(y_in, eta_in)
    det: float
    symplectic_residual: float


def scattering_jacobian(fam: BoundaryMetricFamily, z) -> ScatteringJacobian:
    """Central finite differences of the scattering map.

    Each coordinate of (y, eta) moves by +-1e-5 * max(1, |coordinate|);
    traces run at ``DEFAULT_TOL`` (1e-12), far below the step, which keeps
    |det - 1| below 1e-10 on the acceptance grids.  Uses unwrapped outgoing
    coordinates so periodic charts do not introduce jumps between
    neighbouring traces.
    """
    if not isinstance(z, BoundaryCovector):
        z = BoundaryCovector.make(*z)
    n = fam.n

    def out_vec(x):
        end = trace_geodesic(fam, BoundaryCovector.make(x[:n], x[n:])).end
        return np.concatenate((end.y, end.eta))

    x = np.concatenate((z.y, z.eta))
    M = _central_diff(out_vec, x, 1e-5 * np.maximum(1.0, np.abs(x)))

    J = np.zeros((2 * n, 2 * n))
    for i in range(n):
        J[i, n + i] = -1.0
        J[n + i, i] = 1.0
    resid = float(np.max(np.abs(M.T @ J @ M - J)))
    return ScatteringJacobian(matrix=M, det=float(np.linalg.det(M)),
                              symplectic_residual=resid)


def delta_max(fam: BoundaryMetricFamily, y0, omega0) -> float:
    """Largest safe size delta of a short geodesic from y0 along omega0.

    In the blown-up chart rho |omega|_h = delta sin(theta), the angle theta
    advances at the rate 1 + delta Q, where at rho = 0 the size of Q is at
    most |d|omega|_h^2/drho| / (2 |omega|_h^3).  The returned delta stays a
    factor 1.5 below the size at which that rate could vanish, and at most
    ``DELTA_CAP`` (0.2, the largest scale of ``recover.DELTA_GRID``).
    """
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    omega0 = np.atleast_1d(np.asarray(omega0, dtype=float))
    ev = eval_metric(fam, 0.0, y0)
    hio = ev.h_inv @ omega0
    n2 = float(omega0 @ hio)
    dP = -float(hio @ ev.dh_drho_mat @ hio)
    qt_max = abs(dP) / (2.0 * n2 ** 1.5)  # max over s of |Q| on theta = s
    if qt_max == 0.0:
        return DELTA_CAP
    return min(DELTA_CAP, 1.0 / qt_max / 1.5)

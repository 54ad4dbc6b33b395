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
(:mod:`ahx._dop853_tableau`) is in the package, and the tests pin it and
the stepper to scipy's bit for bit.

Every root of the package is found by one batched Newton's method
(:func:`_newton`), which reads all its brackets once per iteration.  The
turning points of rho along a trace are the roots of xi_b on the steps
whose end states differ in its sign (:func:`_turning_points`); cut there,
rho is monotone on every piece, and :func:`_crossings` finds each level
crossing as a root of rho - level with the slope xi_b.  Boundary arrival
is the crossing of rho = 0 on the arrival step, past its turning point.

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
dense-output type, read at any number of times by ``batch``, which the
Jacobi layer reads too) of its accepted steps and its stats.
Quadrature along a trajectory states its resolution explicitly: a number of
Gauss nodes per sub-panel and ``QUAD_PANELS`` sub-panels per step, plus
optional rho levels where the integrand is not smooth
(:meth:`GeodesicTrajectory.quad_nodes`).

Derivatives of the scattering map come from the same tracing loop and the
same vector field: a trace can carry the 2n tangent columns d/d(y_in,
eta_in) of its state, which the flow's one right-hand side
(:func:`_make_rhs`) integrates with it through the variational equation
(Hairer, Norsett & Wanner, *Solving ODEs I*, I.14), whose Jacobian the
profiles give in closed form.  One such trace gives
:func:`scattering_jacobian`, and one that carries the n columns
d/d(eta_in) alone gives each Newton step of the boundary-distance shooting
in :mod:`ahx.renorm`; neither differences traces.

The tolerance is the stepper's ``rtol = atol`` on [rho, y, xi_b, eta]; it
does not cover the arclength.  The dense output between steps is an
interpolant outside error control, so the trace's one stepper is rewound
to the start of the arrival step and retakes it exactly to the located
arrival time, and the outgoing covector carries the accuracy of an
integration step.  A step or arrival end that the projection moves by more
than ``COSPHERE_SLACK`` of its covector was not resolved, although the
error estimate passed it: the trace retakes such a step, the arrival step
included, at a tenth of its size, and fails rather than go on from it after
``COSPHERE_RETAKES`` retakes, or at once from such an arrival end.
The collar guard checks rho at each step end and, on a step whose bound
on rho could reach the edge, at its turning point too, so an apex between
step ends does not pass the edge unseen.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from . import _dop853_tableau as _dop
from .metric import BoundaryMetricFamily
from .quadrature import composite_gauss, panel_gauss, smoothstep

__all__ = [
    "FlowError", "TrappedOrSlowError", "CollarExitError",
    "BPhasePoint", "BoundaryCovector", "GeodesicTrajectory", "TraceStats",
    "barX_eval", "trace_geodesic", "trace_from_state",
    "scattering_map", "scattering_jacobian", "ScatteringJacobian",
    "flip_state",
]

DEFAULT_TOL = 1e-12
DEFAULT_T_MAX = 60.0
RHO_GATE_LO = 0.005
RHO_GATE_HI = 0.01
ARC_NODES = 12       # Gauss nodes per arclength panel
QUAD_PANELS = 4      # sub-panels per step in quad_nodes
RHO_CEILING = 1.0e7
MAX_STEPS = 250_000
COSPHERE_SLACK = 0.1  # largest relative move of the projection after a step
COSPHERE_RETAKES = 3  # retakes of a step that leaves the cosphere
RETAKE_FACTOR = 0.1   # step size of each such retake, relative to the last
# Newton stops where its next step would be below this fraction of its
# bracket; a point still moving after _NEWTON_MAX steps keeps its last
# iterate
_NEWTON_DONE = 3e-14
_NEWTON_MAX = 16


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


# Python floats raise these where numpy scalars give inf or NaN, as on a
# stage far off the trajectory where h underflows to 0; the RHS then returns
# NaN, and the non-finite error norm makes the stepper reject the step
_FLOAT_ERRORS = (ZeroDivisionError, OverflowError)


def _make_rhs(fam: BoundaryMetricFamily) -> Callable:
    """The flow and its variational equation on [s, T]: the state s =
    [rho, y, xi_b, eta], optionally followed by tangent columns of its
    size, each a derivative of s.  Built afresh on each call (a closure over
    the family's profiles is cheaper to build than to look up in a cache).

    Returns [f(s), J(s) T_1, J(s) T_2, ...], just f(s) on a bare state.
    With u_k = eta_k / h_kk: |eta|_h^2 = sum u_k eta_k, its rho-derivative
    is -sum u_k^2 dh_kk/drho and its y_k-derivative -u_k^2 dh_kk/dy_k.  The
    Jacobian J = df/ds (Hairer, Norsett & Wanner, *Solving ODEs I*, I.14)
    is built in closed form from the six profile entries only when columns
    follow the state; f(s) is computed alike either way.  y_k' and eta_k'
    depend on (rho, y_k, xi_b, eta_k) through rho, y_k and eta_k only, and
    xi_b' on everything but xi_b.  ``rhs(tau, s, vals)`` takes the profile
    values at (rho, y) of s (:func:`_profile_values`) when the caller
    already has them.  The state is read once into Python floats, which
    are cheaper than numpy scalars on so few values.
    """
    n = fam.n
    m = 2 * n + 2
    profiles = fam.profiles

    def rhs(tau, s, vals=None):
        x = s.tolist()
        rho = x[0]
        half_rho = 0.5 * rho
        dy, deta = [], []
        dxi = 0.0
        jac = [] if len(x) > m else None
        try:
            for k, prof in enumerate(profiles):
                h, h_r, h_y, h_rr, h_ry, h_yy = (prof(rho, x[1 + k])
                                                 if vals is None else vals[k])
                eta = x[2 + n + k]
                u = eta / h
                ru = rho * u
                dy.append(ru)
                deta.append(half_rho * u * u * h_y)
                dxi -= ru * eta - half_rho * rho * u * u * h_r
                if jac is None:
                    continue
                w, a, b = u * u, h_r / h, h_y / h
                # d/d(rho, y_k, eta_k) of y_k', of eta_k' and of xi_b'
                jac.append((
                    u - ru * a, -ru * b, rho / h,
                    w * (0.5 * h_y - rho * a * h_y + half_rho * h_ry),
                    half_rho * w * (h_yy - 2.0 * b * h_y), ru * b,
                    rho * w * (2.0 * h_r - rho * a * h_r + half_rho * h_rr)
                    - u * eta,
                    rho * w * (h_y - rho * a * h_y + half_rho * h_ry),
                    ru * (rho * a - 2.0)))
        except _FLOAT_ERRORS:
            return np.full(s.size, math.nan)
        out = [x[1 + n], *dy, dxi, *deta]
        if jac is None:
            return np.array(out)
        for c in range(m, len(x), m):
            t_rho = x[c]
            t_y, t_eta = [], []
            t_xi = 0.0
            for k, (yr, yy, ye, er, ey, ee, xr, xy, xe) in enumerate(jac):
                d_y, d_eta = x[c + 1 + k], x[c + 2 + n + k]
                t_y.append(yr * t_rho + yy * d_y + ye * d_eta)
                t_eta.append(er * t_rho + ey * d_y + ee * d_eta)
                t_xi += xr * t_rho + xy * d_y + xe * d_eta
            out += [x[c + 1 + n], *t_y, t_xi, *t_eta]
        return np.array(out)

    return rhs


def barX_eval(fam: BoundaryMetricFamily, state: BPhasePoint):
    """Value of the rescaled generator at a phase point.

    Returns (drho, dy, dxi_b, deta) as floats/arrays.
    """
    n = fam.n
    v = _make_rhs(fam)(0.0, state.as_vector())
    return float(v[0]), v[1:1 + n], float(v[1 + n]), v[2 + n:]


def _profile_values(fam: BoundaryMetricFamily, s: np.ndarray) -> list:
    """The six profile entries of each coordinate at the (rho, y) of the
    state s, read into Python floats, on which a profile runs faster than
    on numpy scalars.  A float division by h = 0 raises where numpy's
    gives inf, so no state may have h = 0 (see :func:`trace_from_state`)."""
    x = s[:1 + fam.n].tolist()
    return [prof(x[0], x[1 + k]) for k, prof in enumerate(fam.profiles)]


def _project_vec(fam: BoundaryMetricFamily, s: np.ndarray, n: int,
                 vals=None) -> np.ndarray:
    """Rescale (xi_b, eta) jointly onto the unit cosphere.

    ``vals`` are the profile values at s (:func:`_profile_values`) when the
    caller already has them; the projection keeps rho and y, so they also
    hold at the projected state.  Entries after the state, such as tangent
    columns, are kept.  The state is read once into Python floats, which
    are cheaper than numpy scalars on so few values, and projected by the
    IEEE operations of the array form in its order, so the bits are the
    same.  The result is a new array when the projection moves an entry,
    and ``s`` itself when it moves none (each rescaled entry equals its
    input, or the norm is not positive); no caller writes into it.
    """
    if vals is None:
        vals = _profile_values(fam, s)
    x = s.tolist()
    rho, xi = x[0], x[1 + n]
    e2 = 0.0
    for k, v in enumerate(vals):
        eta = x[2 + n + k]
        e2 += eta * eta / v[0]
    norm2 = xi * xi + rho * rho * e2
    if norm2 <= 0.0:
        return s
    c = 1.0 / math.sqrt(norm2)
    cov = x[1 + n:2 + 2 * n]
    moved = [v * c for v in cov]
    # list == compares entry by entry; as c > 0, an equal entry has its bits
    if moved == cov:
        return s
    out = s.copy()
    out[1 + n:2 + 2 * n] = moved
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
    t_old + x h is ``_horner(F, y_old, x)`` with h = t - t_old.  The root
    finders read it as a :class:`_Solution` of this step alone: ``ts`` and
    ``ys`` are its two ends (the end on its dense output), and
    :meth:`batch` reads it as ``_Solution.batch`` does, bit for bit."""

    t_old: float
    t: float
    h: float
    y_old: np.ndarray    # (dim,)
    F: np.ndarray        # (7, dim)

    @property
    def ts(self) -> np.ndarray:
        return np.array([self.t_old, self.t])

    @property
    def ys(self) -> np.ndarray:
        return np.array((self.y_old, self.y_old + self.F[0]))

    def batch(self, ts, k=None) -> np.ndarray:
        """States at many t, shape (len(ts), dim), or their component k
        alone, shape (len(ts),), with the same bits."""
        x = (np.asarray(ts, dtype=float).ravel() - self.t_old) / self.h
        if k is None:
            return _horner(self.F, self.y_old, x[:, None])
        return _horner(self.F[:, k], self.y_old[k], x)


def _horner(F, y_old, x):
    """Dense state at the step fraction x from the coefficients F[0..6].

    Evaluates y_old + x (F0 + (1-x) (F1 + x (F2 + (1-x) (F3 + x (F4 +
    (1-x) (F5 + x F6)))))) with the operations of scipy's
    ``Dop853DenseOutput`` in its order, elementwise; its sum starts from
    zeros, whence F6 + 0.0.  The F[k], y_old and x may be floats or arrays
    that broadcast together: one state component, one state, or many.  The
    sum is built from the inside out and reads F[6] first and F[0] last,
    one row at a time, so F may gather its rows on demand (:class:`_Rows`).
    From x (F6 + 0.0) on, which has the result's shape, it is formed in
    place, each product and sum with its operands swapped, which IEEE
    arithmetic rounds alike: a read of many states holds the sum and one
    gathered row.
    """
    xc = 1.0 - x
    acc = x * (F[6] + 0.0)
    for k, w in ((5, xc), (4, x), (3, xc), (2, x), (1, xc), (0, x)):
        acc += F[k]
        acc *= w
    acc += y_old
    return acc


class _Rows:
    """The coefficient rows F[k] of the steps i, each gathered only when
    :func:`_horner` reads it, so a many-time read holds one row at a time
    rather than a (7, len(i), dim) copy."""

    __slots__ = ("F", "i")

    def __init__(self, F: np.ndarray, i: np.ndarray):
        self.F, self.i = F, i     # F: (7, steps, dim)

    def __getitem__(self, k):
        # take gathers thousands of rows in under half the time of F[k, i]
        return self.F[k].take(self.i, axis=0)


def _norm2(x: np.ndarray):
    """Euclidean norm of a vector, computed as ``np.linalg.norm`` does."""
    return np.sqrt(x.dot(x))


def _rms(x: np.ndarray):
    return _norm2(x) / x.size ** 0.5


class _Dop853:
    """Explicit Runge-Kutta pair 8(5,3) of Dormand and Prince, toward t_bound.

    Hairer, Norsett & Wanner, *Solving ODEs I*, II.4-II.6, with the tableau
    of :mod:`ahx._dop853_tableau`, scipy's to the bit.  Every floating-point
    operation of scipy's ``DOP853`` is repeated in the same order (initial
    step guess, stage sums, error norm from the 5th- and 3rd-order
    estimates, step controller, 7-row dense output), forward or backward in
    t, so the steps, rejections and RHS calls are scipy's to the last bit.
    Fewer temporaries carry them: the stage sums are formed in place, and
    t, h and the controller's scalars are Python floats, which round as
    numpy scalars do at a fraction of their cost.
    As in scipy, rtol is raised to 100 eps with a warning, and a negative
    atol raises ValueError.
    ``nfev``, ``n_accepted`` and ``n_rejected`` count RHS calls and step
    attempts.  After :meth:`step` the caller may replace ``y`` and ``f``
    (e.g. by a projection) before the next step, or :meth:`rewind` to
    retake that step toward a nearer ``t_bound``.
    """

    def __init__(self, fun: Callable, t0: float, y0, t_bound: float,
                 rtol: float, atol: float):
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
        self.h_abs = self._initial_step()
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
        return float(min(100 * h0, h1, interval))

    def _stages(self, t: float, h: float, y: np.ndarray, first: int,
                stop: int) -> None:
        """K[s] = f(t + c_s h, y + (K[:s]^T a_s) h) for first <= s < stop.
        Each stage state is formed in place in the array of its dot
        product, as ((K[:s]^T a_s) * h) + y: scipy's dot, multiply and add,
        since IEEE addition commutes exactly, with two arrays fewer."""
        fun, K, KT = self.fun, self.K, self._KT
        for s in range(first, stop):
            a, c = _STAGE[s]
            dy = KT[s].dot(a)
            dy *= h
            dy += y
            K[s] = fun(t + c * h, dy)

    def step(self) -> _Step | None:
        """Take one accepted step and return its dense output, or None when
        the step size falls below ten ulps of t (``_TOO_SMALL_STEP``) or is
        NaN, as from an initial step guess at a zero atol and a zero state
        component.  The stage states (:meth:`_stages`) and the new state
        are formed in place, and the error norm is a Python float once its
        squared norms are formed, so the step makes fewer arrays and numpy
        scalars than scipy's for the same bits."""
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
            self._stages(t, h, y, 1, _N_STAGES)
            y_new = KT[_N_STAGES].dot(_dop.B)
            y_new *= h
            y_new += y
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
                err = float(h_abs * err5_2 / math.sqrt(
                    (err5_2 + 0.01 * err3_2) * len(scale)))
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
        self._stages(t, h, y, _N_STAGES + 1, _N_EXTENDED)
        self.nfev += _N_EXTENDED - _N_STAGES - 1
        F = np.empty((_dop.INTERPOLATOR_POWER, y.size))
        f_old = K[0]
        delta_y = y_new - y
        F[0] = delta_y
        F[1] = h * f_old - delta_y
        F[2] = 2 * delta_y - h * (f_new + f_old)
        F[3:] = h * _dop.D.dot(K)
        return _Step(float(t), float(t_new), float(h), y, F)

    def rewind(self, t_bound: float) -> None:
        """Go back to the start of the last accepted step, whose slope is
        still K[0], and aim at ``t_bound`` with the whole distance as the
        first try.  The steps that follow are those of scipy's ``DOP853``
        started from that state with that first step, which costs one RHS
        call more."""
        self.t, self.y, self.f = self.t_old, self.y_old, self.K[0].copy()
        self.t_bound, self.h_abs = t_bound, abs(t_bound - self.t_old)

    def retake(self, factor: float) -> None:
        """Discard the last accepted step, counted as a rejection, and try
        it again from its start at ``factor`` times its size."""
        h_abs = abs(self.t - self.t_old)
        self.rewind(self.t_bound)
        self.h_abs = factor * h_abs
        self.n_accepted -= 1
        self.n_rejected += 1


class _Solution:
    """Dense output of accepted steps, either way in t, ending at t_end in
    y_end; ``ts`` holds each step's start and t_end, ``ys`` the states.

    :meth:`batch` reads it at any number of t through :func:`_horner`; a
    step end is read on the step that ends there, as scipy's
    ``OdeSolution`` does.
    """

    def __init__(self, steps: list, t_end: float, y_end: np.ndarray):
        self.steps = steps
        self.ts = np.array([st.t_old for st in steps] + [t_end])
        self.y_end = y_end
        self._sign = -1.0 if t_end < self.ts[0] else 1.0

    @cached_property
    def ys(self) -> np.ndarray:
        return np.array([st.y_old for st in self.steps] + [self.y_end])

    @cached_property
    def _rows(self):
        """(signed start, t_old, h, y_old, F) of the steps, stacked."""
        st = self.steps
        return (self._sign * self.ts[:-1], self.ts[:-1],
                np.array([s.h for s in st]), np.array([s.y_old for s in st]),
                np.stack([s.F for s in st], axis=1))

    def batch(self, ts, k=None) -> np.ndarray:
        """States at many t, shape (len(ts), dim), or their component k
        alone, shape (len(ts),), with the same bits; a read of one
        component gathers none of the others."""
        ts = np.asarray(ts, dtype=float).ravel()
        starts, t_old, h, y_old, F = self._rows
        i = np.maximum(np.searchsorted(starts, self._sign * ts), 1) - 1
        x = (ts - t_old[i]) / h[i]
        if k is None:
            return _horner(_Rows(F, i), y_old[i], x[:, None])
        return _horner(_Rows(F[:, :, k], i), y_old[i, k], x)


def _integrate(fun: Callable, t0: float, y0, t_bound: float, rtol: float,
               atol: float, what: str, until: Callable = None) -> _Solution:
    """Dense solution of y' = fun(t, y) from t0 to t_bound, either way, or
    to the end of the first step whose end state y has ``until(y)`` true; a
    step size below ten ulps of t raises ``FlowError`` naming ``what``."""
    solver = _Dop853(fun, t0, y0, t_bound, rtol, atol)
    steps = []
    while solver.direction * (solver.t - t_bound) < 0:
        st = solver.step()
        if st is None:
            raise FlowError(f"{what} failed: {_TOO_SMALL_STEP}")
        steps.append(st)
        if until is not None and until(solver.y):
            break
    return _Solution(steps, solver.t, solver.y)


# ---------------------------------------------------------------------------
# roots and level crossings


def _newton(step: Callable, x: np.ndarray, lo: np.ndarray,
            hi: np.ndarray) -> np.ndarray:
    """Roots by Newton's method from the starts x, each clipped to its [lo,
    hi]; ``step(x, i)`` gives -f/f' at the points x of the indices i, all
    those not yet done in one call.

    A point stops once its step d predicts a next step d**2 / d_prev (d_prev
    the step before, the bracket hi - lo at first) below ``_NEWTON_DONE``
    of its bracket.  That estimate holds at a quadratic rate and at a linear
    one, as where the slope is not the exact derivative (xi_b for rho on a
    dense output), so a point stops as soon as its next step would not
    matter.  It reads only the point's own steps: a root does not depend on
    the other points in its batch."""
    x = np.array(x, dtype=float)
    todo = np.arange(x.size)
    small = _NEWTON_DONE * (hi - lo)
    last = hi - lo
    for _ in range(_NEWTON_MAX):
        if not todo.size:
            break
        at = x[todo]
        new = np.minimum(np.maximum(at + step(at, todo), lo[todo]), hi[todo])
        d = np.abs(new - at)
        done = d * d <= small[todo] * last[todo]
        x[todo], last[todo] = new, d
        todo = todo[~done]
    return x


def _turning_points(sol, rhs: Callable, k: int):
    """Taus of the turning points of rho on the forward steps of ``sol`` (a
    :class:`_Solution` or one :class:`_Step`), ascending, and rho there: on
    each step whose end states differ in the sign of xi_b (state component
    k), its root by :func:`_newton` with the slope dxi_b/dtau of the flow's
    right-hand side ``rhs`` at the dense state, from the chord."""
    xi = sol.ys[:, k]
    i = np.flatnonzero((xi[:-1] > 0.0) != (xi[1:] > 0.0))
    if not i.size:
        return np.empty(0), np.empty(0)
    a, b = sol.ts[i], sol.ts[i + 1]

    def step(tau, j):
        x = sol.batch(tau)
        return -x[:, k] / np.array([rhs(0.0, s)[k] for s in x[:, :2 * k]])

    tau = _newton(step, a + (b - a) * xi[i] / (xi[i] - xi[i + 1]), a, b)
    return tau, sol.batch(tau)[:, 0]


def _crossings(sol, levels, k: int = 2, turns=None):
    """The levels rho crosses on the steps of ``sol`` (a :class:`_Solution`
    or one :class:`_Step`), and the tau of each crossing, level by level
    and in the run's order: a root of rho - level on a piece whose ends
    straddle it, by :func:`_newton` with the slope xi_b (state component k),
    from the chord.  The pieces are the steps, cut at the turning points
    ``turns`` of a forward run (taus and rho, from :func:`_turning_points`)
    when given.  Their ends find every crossing where rho is monotone on
    each piece, as it is between turning points."""
    ts, rho = sol.ts, sol.ys[:, 0]
    if turns is not None and turns[0].size:
        j = np.searchsorted(ts, turns[0])
        ts, rho = np.insert(ts, j, turns[0]), np.insert(rho, j, turns[1])
    levels = np.asarray(levels, dtype=float)
    d = rho - levels[:, None]
    m, i = np.nonzero(d[:, :-1] * d[:, 1:] <= 0.0)
    d0, d1, a, b = d[m, i], d[m, i + 1], ts[i], ts[i + 1]

    def step(tau, j):
        x = sol.batch(tau)
        return (levels[m[j]] - x[:, 0]) / x[:, k]

    return levels[m], _newton(step, a + (b - a) * d0 / (d0 - d1),
                              np.minimum(a, b), np.maximum(a, b))


# ---------------------------------------------------------------------------
# arclength quadrature


def _arc_panels(sol, turns, k: int):
    """Gated arclength of the forward steps of ``sol`` (a :class:`_Solution`
    or one :class:`_Step`), panel by panel.

    ``turns`` are its turning points and k the state component of xi_b
    (:func:`_turning_points`).  Panel edges sit at the step ends and where
    rho crosses a gate edge or a level of the doubling ladder
    ``RHO_GATE_HI * 2**j`` (:func:`_crossings`): the C2 corners of the gate
    thus lie on panel edges, and 1/rho changes by at most a factor two
    across a panel, which keeps the pole of 1/rho far outside each Gauss
    rule.  Returns (right panel edges, arclength of each panel).
    """
    top = float(np.max(np.append(sol.ys[:, 0], turns[1])))
    n_up = math.ceil(math.log2(top / RHO_GATE_HI)) if top > RHO_GATE_HI \
        else 0
    levels = np.append(RHO_GATE_LO, RHO_GATE_HI * 2.0 ** np.arange(n_up))
    edges = np.sort(np.concatenate(
        (sol.ts, _crossings(sol, levels, k, turns)[1])))
    nodes, w = panel_gauss(edges[:-1], edges[1:], ARC_NODES)
    vals = _gate_over_rho(sol.batch(nodes.ravel(), 0)).reshape(nodes.shape)
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

    ``n_accepted``, ``n_rejected`` and ``n_rhs`` are the counters of the
    trace's one :class:`_Dop853` stepper: the step attempts it accepted and
    rejected, the arrival step and its exact retake both included, a step
    retaken because it left the cosphere counted as rejected, and its
    right-hand-side calls (``nfev``), to which :func:`_drive` adds the slope
    it refreshes after each projection that moves the state and the calls
    of its turning-point searches on the arrival step and for the collar
    guard's apex check (those of the ``t_max`` guard's panels are not
    counted).
    ``max_constraint_drift`` is the largest |proj - y| that the cosphere
    projection removed from the state after an accepted step or from the
    arrival end state.  ``guard`` names
    the check that stopped a failed trace: "t_max", "collar" (rho reached
    the family's domain edge at a step end or at a turning point between
    step ends, or :func:`trace_from_state` got a state outside the
    domain), "step_limit", "integrator", "cosphere" (a step still left
    the unit cosphere by more than ``COSPHERE_SLACK`` after
    ``COSPHERE_RETAKES`` retakes, or the end of the arrival retake did) or
    "half_space" (on the step where rho
    falls to 0, rho is <= 0 at the start and at the turning point too); it
    is None for a trace that arrived.
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
    A trace made with its tangent (:func:`_trace_tangent`) holds the
    tangent columns after each state of its solution and the derivative
    d(y_out, eta_out)/d(y_in, eta_in), or d(y_out, eta_out)/d(eta_in)
    alone, as ``tangent``; for any other trace
    ``tangent`` is None.
    :meth:`eval_raw` (one tau), :meth:`state_at` (one tau, projected) and
    :meth:`eval_many` (a batch of taus) read the solution's dense output.
    The gated hyperbolic arclength from tau = 0 is :meth:`arclength_at`;
    ``t_acc`` is its value at tau_plus.  The turning points of rho, which
    :meth:`rho_peak`, the arclength panels and the ``rho_breaks`` cuts of
    :meth:`quad_nodes` read, and the panels themselves are built on first
    read: a trace whose transforms cut at no rho level and whose arclength
    is never read builds neither.
    """

    def __init__(self, fam, sol: _Solution, end: BPhasePoint, stats,
                 tangent=None):
        self.family = fam
        self.n = fam.n
        self._sol = sol
        self.tau_plus = float(sol.ts[-1])
        self.end = end
        self.z_out = BoundaryCovector.make(fam.chart.wrap(end.y), end.eta)
        self.stats = stats
        self.tangent = tangent

    @cached_property
    def samples(self) -> list:
        """(tau, BPhasePoint) at each step's start, then (tau_plus, end)."""
        return [(st.t_old, _split_vec(self.n, st.y_old))
                for st in self._sol.steps] + [(self.tau_plus, self.end)]

    @cached_property
    def _turns(self):
        """Taus and rho of the trajectory's turning points, ascending
        (:func:`_turning_points`)."""
        return _turning_points(self._sol, _make_rhs(self.family), 1 + self.n)

    @cached_property
    def _arc_table(self):
        """Right edges of every arclength panel, and the arclength
        accumulated up to each edge."""
        edges, incr = _arc_panels(self._sol, self._turns, 1 + self.n)
        return edges, np.cumsum(incr)

    @property
    def t_acc(self) -> float:
        """Gated arclength of the whole trajectory."""
        return float(self._arc_table[1][-1])

    def eval_raw(self, tau: float) -> np.ndarray:
        """Dense state at one tau, not projected."""
        if tau < -1e-12 or tau > self.tau_plus + 1e-12:
            raise ValueError(f"tau={tau} outside [0, {self.tau_plus}]")
        return self._sol.batch([min(max(tau, 0.0), self.tau_plus)])[0]

    def state_at(self, tau: float) -> BPhasePoint:
        return _split_vec(self.n, _project_vec(self.family,
                                               self.eval_raw(tau), self.n))

    def eval_many(self, taus: np.ndarray, k=None) -> np.ndarray:
        """Dense states at the given taus, shape (len(taus), dim), or their
        state component k alone, shape (len(taus),), with the same bits.

        Raw dense output; constraint drift stays below the projection
        tolerance because every accepted step was re-projected.
        """
        return self._sol.batch(taus, k)

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
            cross = _crossings(self._sol, rho_breaks, 1 + self.n,
                               self._turns)[1]
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
        rho = self.eval_many(nodes.ravel(), 0).reshape(nodes.shape)
        out = cum + np.sum(w * _gate_over_rho(rho), axis=1)
        return out.reshape(taus.shape) if taus.ndim else float(out[0])

    def rho_peak(self):
        """(tau, rho) where rho peaks: the first turning point, or the start
        when xi_b <= 0 there (rho only falls from it)."""
        start = self._sol.steps[0]
        if start.y_old[1 + self.n] <= 0.0:
            return start.t_old, float(start.y_old[0])
        tau, rho = self._turns
        return float(tau[0]), float(rho[0])


# ---------------------------------------------------------------------------
# tracing driver


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _drive(fam: BoundaryMetricFamily, s0: np.ndarray, *, tol: float,
           t_max: float) -> GeodesicTrajectory:
    """Integrate until the boundary-arrival event; project every step.

    ``s0`` is the start state, optionally followed by tangent columns of
    its size, which the flow's RHS (:func:`_make_rhs`) carries through the
    variational equation; the step control runs over every component, and
    the trajectory gets a ``tangent`` when there are columns.  The cosphere
    projection rescales the state and leaves the columns as they are: the
    exact tangent already lies along the cosphere, and mapping the columns
    by the projection's derivative made the scattering derivative less
    symplectic.  Nor do the columns need a correction for the arrival
    time: at rho = 0 the flow has no y or eta component, so d tau_plus
    moves only the end's rho and xi_b.
    The ``t_max`` guard adds the closed-form bound :func:`_arc_bound` of
    each accepted step's arclength.  Once that running bound passes
    ``t_max``, the exact arclength (:func:`_arc_panels`) of each step not
    yet integrated is added to a running exact sum, which raises
    :class:`TrappedOrSlowError` above ``t_max``; a trace whose bound stays
    below ``t_max`` computes no panel.  The guard skips the arrival step:
    a geodesic that arrives is not trapped.  A step whose end the cosphere
    projection would move by more than ``COSPHERE_SLACK`` of its covector
    was not resolved, although the step controller passed it: it is
    retaken from its start at ``RETAKE_FACTOR`` of its size, counted as a
    rejection, up to ``COSPHERE_RETAKES`` times in a row before the trace
    raises :class:`FlowError`.  This holds for a step that reaches rho <= 0
    too, before the arrival is searched on its dense output; only the end
    of the retake to the arrival time raises at once when it leaves the
    cosphere.  The collar guard raises :class:`CollarExitError` when rho
    reaches ``rho_limit`` at a step end, or at the turning point of a
    resolved step whose ends differ in the sign of xi_b
    (:func:`_turning_points`), so an apex between step ends cannot pass
    the edge unseen.  It searches for that turning point only where the
    tent bound (rho_a + rho_b + ``_RHO_SLOPE`` h) / 2 of rho over the step
    reaches the edge, and the search's RHS calls count in ``n_rhs``.
    Every :class:`FlowError` raised here carries
    the trace's :class:`TraceStats` so far as ``stats``.  One
    :class:`_Dop853` runs the whole trace: at arrival it is rewound to the
    start of the arrival step and retakes it to the located arrival time,
    unless that time is the step's start, where the trace arrives without
    a retake (a retake of size 0 has no dense output).
    The :class:`_Step` rows are the one list kept; the trajectory is their
    :class:`_Solution`.
    The projection (:func:`_project_vec`) returns the state itself when it
    moves no entry, and only a projection that moved one replaces the
    stepper's state and refreshes its slope; the move and the covector's
    scale that the slack compares are read from the same Python floats.
    Floating-point overflow, invalid and divide warnings are off for the
    whole trace: a step too long for the covector's scale may overflow in
    its stages, and its non-finite error norm rejects it.
    """
    n = fam.n
    m = 2 * n + 2
    rhs = _make_rhs(fam)
    rho_limit = min(fam.rho_max, RHO_CEILING)
    solver = _Dop853(rhs, 0.0, s0, math.inf, tol, tol)
    steps = []
    rho_prev = float(s0[0])
    bound = 0.0     # running upper bound of the arclength
    t_acc = 0.0     # exact arclength of steps[:n_exact]
    n_exact = 0
    drift = 0.0
    retakes = 0     # of the current step

    def stats(guard=None):
        return TraceStats(
            n_accepted=solver.n_accepted, n_rejected=solver.n_rejected,
            n_rhs=solver.nfev, max_constraint_drift=drift, guard=guard)

    def fail(exc, guard):
        exc.stats = stats(guard)
        return exc

    def project(y):
        """(y projected onto the cosphere, tangent columns kept, or y itself
        when nothing moves; the profile values there; the largest move of
        the projection, over xi_b and eta, the entries it rescales; whether
        that move is within ``COSPHERE_SLACK`` of the covector)."""
        vals = _profile_values(fam, y)
        proj = _project_vec(fam, y, n, vals)
        cov = y[1 + n:m].tolist()
        scale = max(map(abs, cov))
        jump = 0.0 if proj is y else max(
            abs(a - b) for a, b in zip(proj[1 + n:m].tolist(), cov))
        return proj, vals, jump, jump <= COSPHERE_SLACK * scale

    def slope(tau, y):
        """The RHS for the root finders, counted with the stepper's."""
        solver.nfev += 1
        return rhs(tau, y)

    def off_cosphere(jump, tau):
        nonlocal drift
        drift = max(drift, jump)
        return fail(FlowError(
            f"an accepted step left the unit cosphere at tau={tau:.6g}"
            " (the step is too long for the covector's scale)"), "cosphere")

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
        rho_new = float(solver.y[0])

        if rho_new >= rho_limit:
            raise fail(CollarExitError(
                f"rho reached the domain edge {rho_limit:.6g} at tau={solver.t:.6g}"),
                "collar")
        proj, vals, jump, resolved = project(solver.y)
        if not resolved:
            if retakes == COSPHERE_RETAKES:
                raise off_cosphere(jump, solver.t)
            retakes += 1
            steps.pop()
            solver.retake(RETAKE_FACTOR)
            continue
        retakes = 0
        turns = None
        if rho_prev + rho_new + _RHO_SLOPE * (t_hi - t_lo) >= 2.0 * rho_limit:
            # the tent bound of rho on the step reaches the edge: its apex,
            # if it has one, may pass the edge between the step's ends
            turns = _turning_points(st, slope, 1 + n)
            if turns[1].size and turns[1].max() >= rho_limit:
                raise fail(CollarExitError(
                    f"rho reached the domain edge {rho_limit:.6g} at "
                    f"tau={turns[0][0]:.6g}, between step ends"), "collar")
        if rho_new <= 0.0:
            # rho = 0 past the step's turning point, if it has one: the
            # first step from the boundary may overshoot the whole arc
            if turns is None:
                turns = _turning_points(st, slope, 1 + n)
            if max([st.y_old[0], *turns[1].tolist()]) <= 0.0:
                raise fail(FlowError(
                    "trajectory left the rho > 0 half-space"), "half_space")
            tau_star = float(_crossings(st, [0.0], 1 + n, turns)[1][-1])
            end = st.y_old
            if tau_star > t_lo:
                # retake the arrival step exactly to tau_star: the dense
                # output it would otherwise end on is less accurate than a
                # step
                steps.pop()
                solver.rewind(tau_star)
                while True:
                    st = solver.step()
                    if st is None:
                        raise fail(FlowError(
                            f"integrator failure: {_TOO_SMALL_STEP}"),
                            "integrator")
                    steps.append(st)
                    # t_lo + h may fall short of tau_star by rounding
                    if tau_star - solver.t <= 4.0 * math.ulp(tau_star):
                        break
                tau_star = solver.t
                end = solver.y
            if abs(end[1 + n]) > 1e-8:
                # one Newton polish using drho/dtau = xi_b
                tau_star -= float(end[0] / end[1 + n])
                end = _horner(st.F, st.y_old, (tau_star - st.t_old) / st.h)
            vec, _, jump, resolved = project(end)
            if not resolved:
                raise off_cosphere(jump, tau_star)
            drift = max(drift, jump)
            out = BPhasePoint.make(0.0, vec[1:1 + n].copy(), -1.0,
                                   vec[2 + n:m].copy())
            sol = _Solution(steps, tau_star,
                            np.concatenate((out.as_vector(), vec[m:])))
            tan = (vec[m:].reshape(-1, m)[:, np.r_[1:1 + n, 2 + n:m]].T
                   if s0.size > m else None)
            return GeodesicTrajectory(fam, sol, out, stats(), tan)

        bound += _arc_bound(rho_prev, rho_new, t_hi - t_lo)
        if bound > t_max:
            for done in steps[n_exact:]:
                t_acc += float(np.sum(_arc_panels(
                    done, _turning_points(done, rhs, 1 + n), 1 + n)[1]))
            n_exact = len(steps)
            if t_acc > t_max:
                raise fail(TrappedOrSlowError(
                    f"interior arclength exceeded t_max={t_max:.6g} at tau={solver.t:.6g}"
                    " (trapped or nearly trapped trajectory)",
                    tau=float(solver.t), t_acc=t_acc), "t_max")
        drift = max(drift, jump)
        if proj is not solver.y:
            solver.y = proj
            solver.f = rhs(solver.t, proj, vals)
            solver.nfev += 1
        rho_prev = float(proj[0])


def _start_state(fam: BoundaryMetricFamily, z) -> np.ndarray:
    """(rho, y, xi_b, eta) = (0, y, +1, eta) of a BoundaryCovector or a
    (y, eta) pair."""
    if not isinstance(z, BoundaryCovector):
        y, eta = z
        z = BoundaryCovector.make(y, eta)
    if z.y.size != fam.n or z.eta.size != fam.n:
        raise ValueError("boundary covector dimension mismatch")
    return np.concatenate(([0.0], z.y, [1.0], z.eta))


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
    return _drive(fam, _start_state(fam, z), tol=tol, t_max=t_max)


def _trace_tangent(fam: BoundaryMetricFamily, z, tol: float,
                   eta_only: bool = False) -> GeodesicTrajectory:
    """:func:`trace_geodesic` with its tangent: the trace carries the 2n
    columns d/d(y_in, eta_in) of its state, and its ``tangent`` is the
    derivative d(y_out, eta_out)/d(y_in, eta_in) of the scattering map
    (unwrapped), accurate to the tolerance.  With ``eta_only`` it carries
    the n columns d/d(eta_in) alone, and ``tangent`` is the 2n x n
    d(y_out, eta_out)/d(eta_in).  The step control runs over the columns
    too, so the trace takes other steps than a plain one."""
    s0 = _start_state(fam, z)
    n, m = fam.n, s0.size
    wrt = np.arange(2 + n, m) if eta_only else np.r_[1:1 + n, 2 + n:m]
    cols = np.zeros((wrt.size, m))
    cols[np.arange(wrt.size), wrt] = 1.0
    return _drive(fam, np.concatenate((s0, cols.ravel())), tol=tol,
                  t_max=DEFAULT_T_MAX)


def trace_from_state(fam: BoundaryMetricFamily, state: BPhasePoint,
                     tol: float = DEFAULT_TOL) -> GeodesicTrajectory:
    """Trace the forward orbit of an interior phase point to the boundary.

    A state outside 0 <= rho < min(rho_max, ``RHO_CEILING``), such as the
    disc's centre, where h = 0, raises :class:`CollarExitError` at once,
    with the guard "collar"."""
    rho_limit = min(fam.rho_max, RHO_CEILING)
    if not 0.0 <= state.rho < rho_limit:
        exc = CollarExitError(f"start rho={state.rho:.6g} is outside the "
                              f"domain [0, {rho_limit:.6g})")
        exc.stats = TraceStats(n_accepted=0, n_rejected=0, n_rhs=0,
                               max_constraint_drift=0.0, guard="collar")
        raise exc
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
    """Derivative of the scattering map at one covector, from the tangent
    of one trace."""

    matrix: np.ndarray           # d(y_out, eta_out)/d(y_in, eta_in)
    det: float
    symplectic_residual: float


def scattering_jacobian(fam: BoundaryMetricFamily, z) -> ScatteringJacobian:
    """Derivative of the scattering map from one trace at ``DEFAULT_TOL``
    that integrates the variational equation with the flow
    (:func:`_trace_tangent`).

    Its error is that of the integration: on the acceptance grids
    |det - 1| stays below 1e-12.  It is taken in unwrapped outgoing
    coordinates, so periodic charts introduce no jumps.
    """
    n = fam.n
    M = _trace_tangent(fam, z, DEFAULT_TOL).tangent
    J = np.zeros((2 * n, 2 * n))
    for i in range(n):
        J[i, n + i] = -1.0
        J[n + i, i] = 1.0
    resid = float(np.max(np.abs(M.T @ J @ M - J)))
    return ScatteringJacobian(matrix=M, det=float(np.linalg.det(M)),
                              symplectic_residual=resid)

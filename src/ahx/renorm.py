"""Renormalized lengths, boundary distance, and deformation derivatives.

Boundary-to-boundary geodesics have infinite hyperbolic length; the finite
renormalized length is the Hadamard finite part of int rho^{lambda-1} dtau
at lambda = 0.  Two independent evaluations are provided:

* a regularized integral, subtracting the exact 1/tau poles at both ends,
* a Mellin route that computes I0(lambda) = int rho^{lambda-1} dtau on a
  small grid of lambda > 0 and fits the Laurent model
  I0 = c_{-1}/lambda + c0 + c1 lambda + c2 lambda^2, returning c0 as the
  length and c_{-1} as the residue (equal to 2 for every geodesic).

Both use fixed rules (12 Gauss nodes per panel of
:meth:`GeodesicTrajectory.quad_nodes`, 24-point Gauss-Jacobi ends for the
Mellin integrals, ``DEFAULT_LAMBDA_GRID``) and want traces at tol <= 1e-12,
the ``flow.DEFAULT_TOL`` of every length here; the limiting error is then
the uncertainty of tau_plus entering the endpoint factors.

The boundary distance (:func:`boundary_distance`) is the renormalized
length of the geodesic that connects two boundary points, found by inexact
Newton shooting on the incoming covector.  Its shots carry only the
columns d/d(eta_in) and run at a tolerance that follows the miss they
reduce, from ``_SHOOT_TOL_MAX`` down to ``SHOOT_TOL``; chord steps traced
plain at ``DEFAULT_TOL`` finish it, and the first whose miss is within the
endpoint tolerance is the trajectory whose length is reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .flow import (BoundaryCovector, FlowError, GeodesicTrajectory,
                   _central_diff, _trace_tangent, trace_geodesic)
from .metric import BoundaryMetricFamily, eval_metric
from .quadrature import gauss_jacobi_left

__all__ = [
    "RenormLength", "MellinLength", "BoundaryDistanceResult",
    "ScatteringDistanceCheck", "ShootingError", "DEFAULT_LAMBDA_GRID",
    "ENDPOINT_TOL",
    "renormalized_length", "mellin_length", "conformal_shift",
    "boundary_distance", "scattering_from_distance_check",
    "deformation_derivative",
]

# grid kept narrow so the quartic fit leaves sub-1e-7 model bias in c0 even
# when the Laurent coefficients grow like powers of log|eta|
DEFAULT_LAMBDA_GRID = (0.002, 0.0035, 0.005, 0.0075, 0.010, 0.012)


class ShootingError(FlowError):
    """Boundary-distance shooting stalled or met a singular Jacobian."""


@dataclass(frozen=True)
class RenormLength:
    value: float
    err_est: float


def _endpoint_normsq(traj: GeodesicTrajectory, at_end: bool) -> float:
    """|eta|^2_{h_0} at a boundary endpoint of the trajectory."""
    tau = traj.tau_plus if at_end else 0.0
    p = traj.state_at(tau)
    if p.rho > 1e-9:
        raise ValueError("trajectory endpoint is not on the boundary")
    return traj.family.eta_normsq(0.0, p.y, p.eta)


def renormalized_length(traj: GeodesicTrajectory) -> RenormLength:
    """Regularized-integral renormalized length of a boundary-to-boundary
    trajectory.

    Evaluates int_0^{tau+} [1/rho - 1/tau - 1/(tau+ - tau)] dtau
    + 2 log tau+, grouping the pole subtraction with 1/rho on the near half
    so each piece is a smooth integrand.  The value uses 12 Gauss nodes per
    quadrature panel; ``err_est`` is its difference from the 8-node rule.
    One read of rho alone from the dense output serves both rules on both
    halves.
    """
    tp = traj.tau_plus
    mid = 0.5 * tp
    # (near, far) half rules of each order; the read of all their nodes
    # gives each node's bits, as the dense output reads each on its own
    rules = [(traj.quad_nodes(0.0, mid, npts), traj.quad_nodes(mid, tp, npts))
             for npts in (12, 8)]
    nodes = [t for halves in rules for t, _ in halves]
    rho = np.split(traj.eval_many(np.concatenate(nodes), 0),
                   np.cumsum([t.size for t in nodes])[:-1])

    def half_value(i):
        (tl, wl), (tr, wr) = rules[i]
        rl, rr = rho[2 * i], rho[2 * i + 1]
        fl = (tl - rl) / (rl * tl) - 1.0 / (tp - tl)
        sig = tp - tr
        fr = (sig - rr) / (rr * sig) - 1.0 / tr
        return float(wl @ fl + wr @ fr)

    main = half_value(0)
    coarse = half_value(1)
    value = main + 2.0 * math.log(tp)
    return RenormLength(value=value, err_est=abs(main - coarse))


# ---------------------------------------------------------------------------
# Mellin route


def _mellin_i0(traj: GeodesicTrajectory,
               omega: Optional[Callable] = None) -> np.ndarray:
    """int_0^{tau+} rho^{lam-1} W dtau for every lam of
    ``DEFAULT_LAMBDA_GRID``, with W = expm1(lam omega(y)) or 1.

    Endpoint thirds use a 24-point Gauss rule with exact u^{lam-1} weight;
    the remaining smooth factor (rho/u)^{lam-1} is evaluated from dense
    output, switching to a local Taylor expansion of rho below u_cut where
    the tau_plus uncertainty would otherwise be amplified.  The middle
    third uses 12 Gauss nodes per quadrature panel, shared by every lam.
    Each third reads the dense output once, and omega is read once per node.
    """
    tp = traj.tau_plus
    m = tp / 3.0
    u_cut = 3e-5 * tp
    lam = np.asarray(DEFAULT_LAMBDA_GRID, dtype=float)[:, None]
    u, w = map(np.array, zip(*(gauss_jacobi_left(m, lv) for lv in lam[:, 0])))

    def weighted(f, states):
        if omega is None:
            return f
        ys = states[:, 1:1 + traj.n]
        vals = np.array([omega(float(y[0])) if traj.n == 1 else omega(y)
                         for y in ys])
        return f * np.expm1(lam * vals.reshape(-1, f.shape[1]))

    total = np.zeros(lam.size)
    for from_end in (False, True):
        e2 = _endpoint_normsq(traj, at_end=from_end)
        states = traj.eval_many(((tp - u) if from_end else u).ravel())
        ratio = states[:, 0].reshape(u.shape) / u
        small = u < u_cut
        ratio[small] = 1.0 - e2 * u[small] ** 2 / 6.0
        f = weighted(ratio ** (lam - 1.0), states)
        total += [float(wr @ fr) for wr, fr in zip(w, f)]

    tm, wm = traj.quad_nodes(m, tp - m)
    states = traj.eval_many(tm)
    f = weighted(states[:, 0] ** (lam - 1.0), states)
    total += [float(wm @ fr) for fr in f]
    return total


@dataclass(frozen=True)
class MellinLength:
    value: float          # c0 coefficient, the renormalized length
    residue: float        # c_{-1} coefficient, 2 for every geodesic


def mellin_length(traj: GeodesicTrajectory) -> MellinLength:
    """Renormalized length from a Laurent fit of the Mellin family I0 on
    ``DEFAULT_LAMBDA_GRID``."""
    lam = np.asarray(DEFAULT_LAMBDA_GRID, dtype=float)
    i0 = _mellin_i0(traj)
    scale = lam.max()
    x = lam / scale
    # one spare power beyond the reported model keeps truncation bias low
    A = np.vander(x, 5, increasing=True)
    coef, *_ = np.linalg.lstsq(A, lam * i0, rcond=None)
    return MellinLength(value=float(coef[1] / scale), residue=float(coef[0]))


def conformal_shift(traj: GeodesicTrajectory, omega: Callable) -> float:
    """Change of renormalized length under the boundary representative
    e^{2 omega} h_0.

    Recomputes the regularization with defining function rho e^{omega(y)}
    (extended independently of rho) and fits the analytic difference
    D(lambda) = int rho^{lambda-1} (e^{lambda omega(y)} - 1) dtau on
    ``DEFAULT_LAMBDA_GRID``; returns D(0), which equals
    omega(y_in) + omega(y_out).
    """
    lam = np.asarray(DEFAULT_LAMBDA_GRID, dtype=float)
    d = _mellin_i0(traj, omega)
    scale = lam.max()
    A = np.vander(lam / scale, 4, increasing=True)
    coef, *_ = np.linalg.lstsq(A, d, rcond=None)
    return float(coef[0])


# ---------------------------------------------------------------------------
# two-point boundary distance


@dataclass(frozen=True)
class BoundaryDistanceResult:
    """Result of :func:`boundary_distance`.

    ``trajectory`` is the connecting geodesic: the plain trace at
    ``DEFAULT_TOL`` whose endpoint miss passed the check against ``tol``
    (or the trace at the snapped covector of the ``ETA_SNAP`` branch), and
    ``residual`` is that miss, max |y_out - y_plus| (chart-wrapped).
    ``value`` is the renormalized length of ``trajectory`` carried from
    y_out to y_plus by its outgoing covector, the distance's gradient in
    y_plus, so it is off by O(residual^2) rather than O(residual).
    ``iterations`` counts the Newton steps (each one shot, or more when
    its trial step is halved) and chord steps (each one plain trace) after
    the first guess.
    """

    value: float
    eta: np.ndarray
    iterations: int
    trajectory: GeodesicTrajectory
    residual: float


# Near-diametral geodesics need |eta| -> 0, where the integrator cannot
# resolve the turn past the deepest point (endpoint noise ~1e-7, seconds per
# trace).  Since the distance is stationary in eta there, iterates predicted
# below ETA_SNAP are accepted at magnitude ETA_SNAP: the distance error is
# O(ETA_SNAP^2) while traces stay fast and clean.  ETA_FLOOR guards damped
# intermediate steps.
ETA_SNAP = 1e-6
ETA_FLOOR = 1e-8
# Default endpoint tolerance of boundary_distance, and the tightest shooting
# tolerance.  A Newton step from a miss r leaves a miss of order |r|^2, so a
# shot needs no more accuracy than that: it runs at _SHOOT_GAIN |r|^2,
# clipped to [SHOOT_TOL, _SHOOT_TOL_MAX] (inexact Newton; Dembo, Eisenstat
# and Steihaug, SIAM J. Numer. Anal. 19 (1982)).  Once that reaches
# SHOOT_TOL, chord steps with the last Jacobian are traced at DEFAULT_TOL;
# one that shrinks the miss less than _CHORD_RATE-fold is followed by a
# shot at SHOOT_TOL.
ENDPOINT_TOL = 1e-9
SHOOT_TOL = 1e-10
_SHOOT_TOL_MAX = 1e-4
_SHOOT_GAIN = 0.1
_CHORD_RATE = 0.1
# Newton and chord steps before shooting counts as stalled
MAX_SHOOT_ITER = 50


def boundary_distance(fam: BoundaryMetricFamily, y_minus, y_plus,
                      eta0=None, tol: float = ENDPOINT_TOL
                      ) -> BoundaryDistanceResult:
    """Renormalized distance between distinct boundary points by shooting.

    Inexact Newton iteration on the incoming covector with step halving.
    Each shot is a trace that carries the n tangent columns d/d(eta_in)
    (:func:`ahx.flow._trace_tangent`), so one trace gives both the endpoint
    miss r and its Jacobian in eta.  A shot runs at the tolerance
    ``_SHOOT_GAIN`` |r|^2 of the miss r it reduces, clipped to
    [``SHOOT_TOL``, ``_SHOOT_TOL_MAX``]; the first runs at
    ``_SHOOT_TOL_MAX``.  Once that tolerance reaches ``SHOOT_TOL``, or the
    miss is within ``tol``, the iteration takes chord steps with the last
    Jacobian, each a plain trace at ``DEFAULT_TOL``.  The first of them
    whose miss is within ``tol`` is the returned trajectory, and its
    renormalized length, carried from its end to y_plus by its outgoing
    covector, is the distance (:class:`BoundaryDistanceResult`); a chord step
    that shrinks the miss less than ``_CHORD_RATE``-fold (or fails) is
    followed by a shot at ``SHOOT_TOL``.  The first guess is the
    exact-hyperbolic covector 2 (h_0 dy) / |dy|^2_{h_0} for the separation
    vector dy.  A first guess whose trace raises :class:`FlowError` is
    doubled, up to eight times, since a larger |eta| is a shallower
    geodesic; a trial step of a shot whose trace raises it is halved.
    ``ShootingError`` is raised when every first guess fails, when all
    eight trials of one shot fail, or when ``MAX_SHOOT_ITER`` Newton and
    chord steps do not converge.  ``iterations`` counts those steps, not
    the first guess.
    """
    ym = np.atleast_1d(np.asarray(y_minus, dtype=float))
    yp = np.atleast_1d(np.asarray(y_plus, dtype=float))
    dy = fam.chart.wrapped_diff(yp, ym)
    if np.max(np.abs(dy)) < 1e-12:
        raise ValueError("boundary distance needs distinct endpoints")
    if eta0 is None:
        ev = eval_metric(fam, 0.0, ym)
        eta = 2.0 * (ev.h_mat @ dy) / float(dy @ ev.h_mat @ dy)
    else:
        eta = np.atleast_1d(np.asarray(eta0, dtype=float)).copy()

    def clamp(e):
        if np.linalg.norm(e) < ETA_FLOOR:
            d = dy / np.linalg.norm(dy)
            return ETA_FLOOR * d
        return e

    def miss(traj):
        """Endpoint miss of a traced geodesic from y_plus."""
        return fam.chart.wrapped_diff(traj.end.y, yp)

    def shoot(e, shot_tol):
        """Endpoint miss of the geodesic entering at (ym, e), and its
        derivative in e."""
        traj = _trace_tangent(fam, BoundaryCovector.make(ym, e), shot_tol,
                              eta_only=True)
        return miss(traj), traj.tangent[:fam.n]

    eta = clamp(eta)
    for _ in range(9):
        try:
            r, J = shoot(eta, _SHOOT_TOL_MAX)
        except FlowError as exc:
            failed = exc
            eta = 2.0 * eta
        else:
            break
    else:
        raise ShootingError("no first guess reached the boundary") from failed
    it = 0
    traj = None         # the DEFAULT_TOL trace at eta, after a chord step
    refresh = False     # a chord step fell short: shoot at SHOOT_TOL next
    while traj is None or np.max(np.abs(r)) > tol:
        it += 1
        if it > MAX_SHOOT_ITER:
            raise ShootingError(
                f"boundary-distance shooting stalled, residual {np.max(np.abs(r)):.3e}")
        try:
            step = np.linalg.solve(J, r)
        except np.linalg.LinAlgError:
            raise ShootingError("singular shooting Jacobian") from None
        eta_pred = eta - step
        nrm = np.linalg.norm(eta_pred)
        if nrm <= ETA_SNAP:
            # stationary regime: the endpoint misses by O(ETA_SNAP), the
            # distance by O(ETA_SNAP^2)
            d = eta_pred / nrm if nrm > 0 else dy / np.linalg.norm(dy)
            eta = ETA_SNAP * d
            traj = trace_geodesic(fam, BoundaryCovector.make(ym, eta))
            break
        err = float(np.max(np.abs(r)))
        shot_tol = min(max(_SHOOT_GAIN * err * err, SHOOT_TOL),
                       _SHOOT_TOL_MAX)
        if refresh:
            shot_tol, refresh = SHOOT_TOL, False
        elif shot_tol == SHOOT_TOL or err <= tol:
            # chord step: the last Jacobian, checked by a plain trace
            eta_new = clamp(eta_pred)
            try:
                chord = trace_geodesic(fam, BoundaryCovector.make(ym, eta_new))
            except FlowError:
                refresh = True
                continue
            r_new = miss(chord)
            err_new = np.max(np.abs(r_new))
            if err_new < err or err_new <= tol:
                eta, r, traj = eta_new, r_new, chord
            refresh = err_new > max(tol, _CHORD_RATE * err)
            continue
        lam, traced = 1.0, None
        for _ in range(8):
            eta_new = clamp(eta - lam * step)
            try:
                r_new, J_new = shoot(eta_new, shot_tol)
            except FlowError as exc:
                failed = exc    # the trial left the collar or the chart
            else:
                traced = eta_new, r_new, J_new
                if np.max(np.abs(r_new)) < np.max(np.abs(r)):
                    break
            lam *= 0.5
        if traced is None:
            raise ShootingError("no damped shooting trial reached the "
                                "boundary") from failed
        eta, r, J = traced
        traj = None
    # the distance's gradient in y_plus is the outgoing covector, which
    # carries the length of the trajectory from its end to y_plus
    r = miss(traj)
    value = renormalized_length(traj).value - float(traj.end.eta @ r)
    return BoundaryDistanceResult(value=value, eta=eta, iterations=it,
                                  trajectory=traj,
                                  residual=float(np.max(np.abs(r))))


@dataclass(frozen=True)
class ScatteringDistanceCheck:
    residual: float
    eta_in_fd: np.ndarray     # -d/dy_minus of the distance
    eta_out_fd: np.ndarray    # +d/dy_plus of the distance


def scattering_from_distance_check(fam: BoundaryMetricFamily, y_minus,
                                   y_plus) -> ScatteringDistanceCheck:
    """Recover the scattering map from distance gradients and compare.

    The incoming covector is minus the y_minus-gradient of the renormalized
    distance; tracing it must land at y_plus with outgoing covector equal to
    the y_plus-gradient.  The returned residual is the larger of the two
    mismatches.  The gradients are central differences with step 1e-3,
    whose O(step^2) truncation error sets the residual (6.1e-7 on the disc
    and perturbed fixtures of the acceptance test).
    """
    ym = np.atleast_1d(np.asarray(y_minus, dtype=float))
    yp = np.atleast_1d(np.asarray(y_plus, dtype=float))
    n = fam.n
    center = boundary_distance(fam, ym, yp)

    def dist(a, b):
        return boundary_distance(fam, a, b, eta0=center.eta).value

    step = np.full(n, 1e-3)
    grad_m = _central_diff(lambda a: dist(a, yp), ym, step)
    grad_p = _central_diff(lambda b: dist(ym, b), yp, step)

    eta_in = -grad_m
    traj = trace_geodesic(fam, BoundaryCovector.make(ym, eta_in))
    mis_y = float(np.max(np.abs(fam.chart.wrapped_diff(traj.end.y, yp))))
    mis_e = float(np.max(np.abs(traj.end.eta - grad_p)))
    return ScatteringDistanceCheck(residual=max(mis_y, mis_e),
                                   eta_in_fd=eta_in, eta_out_fd=grad_p)


# ---------------------------------------------------------------------------
# metric deformations


def deformation_derivative(family_path: Callable[[float], BoundaryMetricFamily],
                           z):
    """Compare d/ds of the renormalized length with the tensor transform.

    ``family_path(s)`` must give the metric family at deformation parameter
    s.  Returns (dL_ds, i2_value): the central difference, with step 1e-4
    in s, of the length of the geodesic entering at z, and the rank-2
    transform of the metric s-derivative (the same difference) along the
    s = 0 geodesic.  Every trace runs at ``DEFAULT_TOL``.  The two agree
    when the deformation decays at the boundary.
    """
    from .xray import SymmetricTensorField, xray_transform

    fam0 = family_path(0.0)
    n = fam0.n

    def length_at(s):
        traj = trace_geodesic(family_path(s), z)
        return renormalized_length(traj).value

    ds = 1e-4
    dl_ds = (length_at(ds) - length_at(-ds)) / (2.0 * ds)

    fam_p = family_path(ds)
    fam_m = family_path(-ds)

    def gdot_components(rho, y):
        # s-derivative of g = (drho^2 + h_s)/rho^2: only the yy block moves
        dh = (fam_p.diag(rho, y)[0] - fam_m.diag(rho, y)[0]) / (2.0 * ds)
        # 0 at rho = 0: fixtures decay like rho^2 relative to g
        rho_sq = np.where(rho > 0.0, rho, np.inf)[..., None] ** 2
        comp = np.zeros(rho.shape + (n + 1, n + 1))
        k = np.arange(1, n + 1)
        comp[..., k, k] = dh / rho_sq
        return comp

    gdot = SymmetricTensorField(rank=2, weight=0, components=gdot_components)
    traj0 = trace_geodesic(fam0, z)
    i2 = xray_transform(gdot, traj0)
    return float(dl_ds), float(i2)

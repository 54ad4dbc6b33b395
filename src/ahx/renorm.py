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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .flow import (BoundaryCovector, FlowError, GeodesicTrajectory,
                   _central_diff, trace_geodesic)
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
    """
    tp = traj.tau_plus
    mid = 0.5 * tp

    def half_value(npts_):
        tl, wl = traj.quad_nodes(0.0, mid, npts_)
        rl = traj.eval_many(tl)[:, 0]
        fl = (tl - rl) / (rl * tl) - 1.0 / (tp - tl)
        tr, wr = traj.quad_nodes(mid, tp, npts_)
        rr = traj.eval_many(tr)[:, 0]
        sig = tp - tr
        fr = (sig - rr) / (rr * sig) - 1.0 / tr
        return float(wl @ fl + wr @ fr)

    main = half_value(12)
    coarse = half_value(8)
    value = main + 2.0 * math.log(tp)
    return RenormLength(value=value, err_est=abs(main - coarse))


# ---------------------------------------------------------------------------
# Mellin route


def _mellin_i0(traj: GeodesicTrajectory, lam: float,
               extra: Optional[Callable] = None) -> float:
    """int_0^{tau+} rho^{lam-1} W dtau with W = extra(lam, y) or 1.

    Endpoint thirds use a 24-point Gauss rule with exact u^{lam-1} weight;
    the remaining smooth factor (rho/u)^{lam-1} is evaluated from dense
    output, switching to a local Taylor expansion of rho below u_cut where
    the tau_plus uncertainty would otherwise be amplified.  The middle
    third uses 12 Gauss nodes per quadrature panel.
    """
    tp = traj.tau_plus
    m = tp / 3.0
    u_cut = 3e-5 * tp
    e2_in = _endpoint_normsq(traj, at_end=False)
    e2_out = _endpoint_normsq(traj, at_end=True)

    total = 0.0
    for from_end, e2 in ((False, e2_in), (True, e2_out)):
        u, w = gauss_jacobi_left(m, lam)
        taus = (tp - u) if from_end else u
        states = traj.eval_many(taus)
        rho = states[:, 0]
        ratio = rho / u
        small = u < u_cut
        if np.any(small):
            ratio[small] = 1.0 - e2 * u[small] ** 2 / 6.0
        f = ratio ** (lam - 1.0)
        if extra is not None:
            ys = states[:, 1:1 + traj.n]
            f = f * extra(lam, ys)
        total += float(w @ f)

    tm, wm = traj.quad_nodes(m, tp - m)
    states = traj.eval_many(tm)
    f = states[:, 0] ** (lam - 1.0)
    if extra is not None:
        f = f * extra(lam, states[:, 1:1 + traj.n])
    total += float(wm @ f)
    return total


@dataclass(frozen=True)
class MellinLength:
    value: float          # c0 coefficient, the renormalized length
    residue: float        # c_{-1} coefficient, 2 for every geodesic
    c1: float
    c2: float
    lam_grid: tuple
    i0_values: tuple


def mellin_length(traj: GeodesicTrajectory) -> MellinLength:
    """Renormalized length from a Laurent fit of the Mellin family I0 on
    ``DEFAULT_LAMBDA_GRID``."""
    lam = np.asarray(DEFAULT_LAMBDA_GRID, dtype=float)
    i0 = np.array([_mellin_i0(traj, lv) for lv in lam])
    scale = lam.max()
    x = lam / scale
    # one spare power beyond the reported model keeps truncation bias low
    A = np.vander(x, 5, increasing=True)
    coef, *_ = np.linalg.lstsq(A, lam * i0, rcond=None)
    return MellinLength(value=float(coef[1] / scale), residue=float(coef[0]),
                        c1=float(coef[2] / scale ** 2),
                        c2=float(coef[3] / scale ** 3),
                        lam_grid=tuple(lam.tolist()),
                        i0_values=tuple(i0.tolist()))


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

    def extra(lv, ys):
        if ys.shape[1] == 1:
            vals = np.array([omega(float(y[0])) for y in ys])
        else:
            vals = np.array([omega(y) for y in ys])
        return np.expm1(lv * vals)

    d = np.array([_mellin_i0(traj, lv, extra=extra) for lv in lam])
    scale = lam.max()
    A = np.vander(lam / scale, 4, increasing=True)
    coef, *_ = np.linalg.lstsq(A, d, rcond=None)
    return float(coef[0])


# ---------------------------------------------------------------------------
# two-point boundary distance


@dataclass(frozen=True)
class BoundaryDistanceResult:
    """``residual`` is the endpoint miss max |y_out - y_plus| (chart-wrapped)
    of ``trajectory``, the connecting geodesic traced at ``DEFAULT_TOL``."""

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
# Shooting traces run one order below the default endpoint tolerance
# ENDPOINT_TOL of boundary_distance; only the converged geodesic, whose
# length is reported, is traced again at DEFAULT_TOL.
ENDPOINT_TOL = 1e-9
SHOOT_TOL = 1e-10


def boundary_distance(fam: BoundaryMetricFamily, y_minus, y_plus,
                      eta0=None, tol: float = ENDPOINT_TOL,
                      max_iter: int = 50) -> BoundaryDistanceResult:
    """Renormalized distance between distinct boundary points by shooting.

    Newton iteration on the incoming covector with a finite-difference
    Jacobian of the endpoint map and step halving; the first guess is the
    exact-hyperbolic covector 2 (h_0 dy) / |dy|^2_{h_0} for the separation
    vector dy.  A trial step whose trace raises :class:`FlowError` is
    halved too, and ``ShootingError`` is raised when all eight trials of
    one iteration fail.  Shooting traces run at ``SHOOT_TOL``; the
    converged geodesic is traced again at ``DEFAULT_TOL`` for its length.
    """
    ym = np.atleast_1d(np.asarray(y_minus, dtype=float))
    yp = np.atleast_1d(np.asarray(y_plus, dtype=float))
    n = fam.n
    dy = np.array([fam.chart.wrapped_diff(float(b), float(a))
                   for a, b in zip(ym, yp)])
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
        y_out = traj.end.y
        return np.array([fam.chart.wrapped_diff(float(a), float(b))
                         for a, b in zip(y_out, yp)])

    def residual(e):
        """Endpoint miss of the geodesic entering at (ym, e)."""
        return miss(trace_geodesic(fam, BoundaryCovector.make(ym, e),
                                   tol=SHOOT_TOL))

    eta = clamp(eta)
    r = residual(eta)
    it = 0
    while np.max(np.abs(r)) > tol:
        it += 1
        if it > max_iter:
            raise ShootingError(
                f"boundary-distance shooting stalled, residual {np.max(np.abs(r)):.3e}")
        J = _central_diff(residual, eta, 1e-6 * np.maximum(1.0, np.abs(eta)))
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
            break
        lam, traced = 1.0, None
        for _ in range(8):
            eta_new = clamp(eta - lam * step)
            try:
                r_new = residual(eta_new)
            except FlowError as exc:
                failed = exc    # the trial left the collar or the chart
            else:
                traced = eta_new, r_new
                if np.max(np.abs(r_new)) < np.max(np.abs(r)):
                    break
            lam *= 0.5
        if traced is None:
            raise ShootingError("no damped shooting trial reached the "
                                "boundary") from failed
        eta, r = traced
    traj = trace_geodesic(fam, BoundaryCovector.make(ym, eta))
    value = renormalized_length(traj).value
    return BoundaryDistanceResult(value=value, eta=eta, iterations=it,
                                  trajectory=traj,
                                  residual=float(np.max(np.abs(miss(traj)))))


@dataclass(frozen=True)
class ScatteringDistanceCheck:
    residual: float
    eta_in_fd: np.ndarray     # -d/dy_minus of the distance
    eta_out_fd: np.ndarray    # +d/dy_plus of the distance
    y_out: np.ndarray
    eta_out: np.ndarray


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
    y_out = traj.end.y
    eta_out = traj.end.eta
    mis_y = max(abs(fam.chart.wrapped_diff(float(a), float(b)))
                for a, b in zip(y_out, yp))
    mis_e = float(np.max(np.abs(eta_out - grad_p)))
    return ScatteringDistanceCheck(residual=max(mis_y, mis_e),
                                   eta_in_fd=eta_in, eta_out_fd=grad_p,
                                   y_out=y_out, eta_out=eta_out)


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

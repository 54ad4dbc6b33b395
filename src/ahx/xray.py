"""Symmetric tensor fields, X-ray transforms, and flow resolvents.

Rank-m symmetric tensors on the collar are stored through their component
callables in the coordinate frame (d rho, dy^i).  The transform of a rank-m
field integrates its contraction with m copies of the unit tangent over a
boundary-to-boundary geodesic in hyperbolic arclength; in the rescaled time
this is int lift(f) / rho dtau, which converges whenever the declared
weight satisfies w >= 1 - m.

Also here: the symmetrized covariant derivative and its gauge-reduction
inverse near the boundary, invariant-measure quadrature comparing interior
and boundary pictures of the transform, and the zero-energy resolvents of
the rescaled generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .flow import (DEFAULT_TOL, BoundaryCovector, BPhasePoint,
                   GeodesicTrajectory, flip_state, trace_from_state,
                   trace_geodesic)
from .metric import BoundaryMetricFamily, christoffel_symbols
from .quadrature import gauss_nodes, panel_gauss, smoothstep

__all__ = [
    "SymmetricTensorField", "lift_tensor", "xray_transform",
    "sym_derivative", "gauge_normalize", "GaugeResult",
    "forward_boundary_point", "backward_boundary_point", "grazing_eta",
    "santalo_check", "SantaloResult", "adjointness_check", "AdjointnessResult",
    "resolvent_zero",
]

FD_RHO = 1e-6
FD_Y = 1e-6


@dataclass
class SymmetricTensorField:
    """Symmetric covariant tensor of rank m in the (d rho, dy) frame.

    ``components(rho, y)`` returns a scalar for rank 0 and a symmetric
    array of shape (n+1, ..., n+1) otherwise.  ``weight`` declares the
    boundary decay: components are rho^weight times a function smooth up to
    rho = 0.  Optional ``d_rho``/``d_y`` provide exact partial derivatives
    (d_y returns an array indexed by the y-direction first); finite
    differences are used otherwise.
    """

    rank: int
    weight: int
    components: Callable
    d_rho: Optional[Callable] = None
    d_y: Optional[Callable] = None

    def comp(self, rho: float, y) -> np.ndarray:
        c = self.components(rho, np.atleast_1d(np.asarray(y, dtype=float)))
        return np.asarray(c, dtype=float)

    def partial_rho(self, rho: float, y) -> np.ndarray:
        if self.d_rho is not None:
            return np.asarray(self.d_rho(rho, np.atleast_1d(y)), dtype=float)
        h = FD_RHO * max(1.0, abs(rho))
        return (self.comp(rho + h, y) - self.comp(rho - h, y)) / (2.0 * h)

    def partial_y(self, rho: float, y, n: int) -> np.ndarray:
        if self.d_y is not None:
            return np.asarray(self.d_y(rho, np.atleast_1d(y)), dtype=float)
        y = np.atleast_1d(np.asarray(y, dtype=float))
        outs = []
        for k in range(n):
            e = np.zeros(n)
            e[k] = FD_Y
            outs.append((self.comp(rho, y + e) - self.comp(rho, y - e))
                        / (2.0 * FD_Y))
        return np.stack(outs)

    def validate(self, fam: BoundaryMetricFamily, rho_grid=None, y_grid=None,
                 sym_tol: float = 1e-10) -> None:
        """Sample symmetry and the declared weight on a small grid."""
        n = fam.n
        if rho_grid is None:
            hi = min(fam.rho_max, 1.0)
            rho_grid = np.linspace(hi / 16, hi * 0.9, 5)
        if y_grid is None:
            y_grid = np.linspace(0.0, 2.0 * math.pi, 5, endpoint=False)
        for rho in rho_grid:
            for yv in y_grid:
                y = np.full(n, float(yv))
                c = self.comp(float(rho), y)
                if self.rank >= 2:
                    for ax in range(self.rank - 1):
                        if not np.allclose(c, np.swapaxes(c, ax, ax + 1),
                                           atol=sym_tol * (1 + np.max(np.abs(c)))):
                            raise ValueError("tensor components are not symmetric")
        if self.weight > 0:
            # components must decay like rho^weight toward the boundary
            y = np.zeros(n)
            c1 = np.max(np.abs(np.atleast_1d(self.comp(1e-3, y))))
            c2 = np.max(np.abs(np.atleast_1d(self.comp(1e-6, y))))
            if c1 > 0 and c2 > c1 * 10.0 ** (-1.5 * self.weight):
                raise ValueError("components do not match the declared weight")


def _unit_tangent(fam: BoundaryMetricFamily, rho, y, xi_b, eta) -> np.ndarray:
    """Components of the metric-unit tangent vector in (rho, y) coordinates.

    Takes one state or arrays of states (y and eta with a last axis of
    length n); the components run along the last axis of the result.
    """
    rho = np.asarray(rho, dtype=float)
    h = fam.diag(rho, y)[0]
    return np.concatenate(((rho * xi_b)[..., None],
                           rho[..., None] ** 2 * eta / h), axis=-1)


def _lift(field: SymmetricTensorField, rho, y, V) -> float:
    c = field.comp(rho, y)
    for _ in range(field.rank):
        c = c @ V
    return float(c)


def lift_tensor(field: SymmetricTensorField, fam: BoundaryMetricFamily,
                state: BPhasePoint) -> float:
    """Contraction of the field with m copies of the unit tangent."""
    V = _unit_tangent(fam, state.rho, state.y, state.xi_b, state.eta)
    return _lift(field, state.rho, state.y, V)


def xray_transform(field: SymmetricTensorField, traj: GeodesicTrajectory,
                   npts: int = 12, rho_breaks=()) -> float:
    """Arclength integral of the lifted field along the trajectory.

    ``rho_breaks`` are rho levels where the field is not smooth, such as
    the edges of its support; see :meth:`GeodesicTrajectory.quad_nodes`.
    """
    if field.weight < 1 - field.rank:
        raise ValueError(
            f"rank-{field.rank} transform needs weight >= {1 - field.rank}, "
            f"got {field.weight}")
    n = traj.n
    taus, w = traj.quad_nodes(0.0, traj.tau_plus, npts, rho_breaks=rho_breaks)
    rows = traj.eval_many(taus)
    rho, ys = rows[:, 0], rows[:, 1:1 + n]
    V = _unit_tangent(traj.family, rho, ys, rows[:, 1 + n], rows[:, 2 + n:])
    # with weight + rank >= 1 the integrand vanishes at the boundary
    vals = np.zeros(rho.size)
    for i in np.flatnonzero(rho > 0.0):
        vals[i] = _lift(field, rho[i], ys[i], V[i]) / rho[i]
    return float(w @ vals)


# ---------------------------------------------------------------------------
# symmetrized covariant derivative


def sym_derivative(field: SymmetricTensorField,
                   fam: BoundaryMetricFamily) -> SymmetricTensorField:
    """Symmetrization of the Levi-Civita covariant derivative, rank m+1.

    Component evaluation uses the field's partial derivatives and the
    collar Christoffel symbols; the result is assembled on demand.
    """
    m = field.rank

    def components(rho, y):
        n = fam.n
        y = np.atleast_1d(np.asarray(y, dtype=float))
        G = christoffel_symbols(fam, rho, y)
        dr = field.partial_rho(rho, y)
        dy = field.partial_y(rho, y, n)
        q = field.comp(rho, y)
        # grad[a, B] = nabla_a q_B
        if m == 0:
            grad = np.empty(n + 1)
            grad[0] = dr
            grad[1:] = dy
            return grad
        shape = (n + 1,) * (m + 1)
        grad = np.zeros(shape)
        for a in range(n + 1):
            part = dr if a == 0 else dy[a - 1]
            term = np.array(part, dtype=float, copy=True)
            # subtract Gamma^c_{a b_s} q_{... c ...} for each slot s
            for s in range(m):
                qc = np.tensordot(G[:, a, :], q, axes=([0], [s]))
                # tensordot puts the contracted slot first; restore order
                qc = np.moveaxis(qc, 0, s)
                term = term - qc
            grad[a] = term
        # average the derivative slot over all positions
        out = np.zeros(shape)
        for i in range(m + 1):
            out += np.moveaxis(grad, 0, i)
        return out / (m + 1)

    return SymmetricTensorField(rank=m + 1, weight=field.weight - 1,
                                components=components)


# ---------------------------------------------------------------------------
# gauge reduction near the boundary (n = 1)


@dataclass(frozen=True)
class GaugeResult:
    potential: SymmetricTensorField     # rank m-1
    residual: float                     # max |iota_{d/d rho}(f - D q)| on collar
    chi_plateau: float                  # rho below which chi == 1


def _chi_factory(rho_c: float):
    lo, hi = 0.35 * rho_c, 0.85 * rho_c

    def chi(rho: float) -> float:
        return 1.0 - smoothstep((rho - lo) / (hi - lo))

    def chi_prime(rho: float) -> float:
        t = (rho - lo) / (hi - lo)
        if t <= 0.0 or t >= 1.0:
            return 0.0
        dsmooth = 30.0 * t * t * (1.0 - t) * (1.0 - t)
        return -dsmooth / (hi - lo)

    return chi, chi_prime, lo


class _PeriodicSurface:
    """Quintic spline of a smooth field on [0, rho_edge] x S^1."""

    def __init__(self, values, rho_grid, y_grid):
        from scipy.interpolate import RectBivariateSpline
        pad = 5
        ny = len(y_grid)
        period = 2.0 * math.pi
        y_ext = np.concatenate((y_grid[-pad:] - period, y_grid,
                                y_grid[:pad] + period))
        v_ext = np.concatenate((values[:, -pad:], values, values[:, :pad]),
                               axis=1)
        self._sp = RectBivariateSpline(rho_grid, y_ext, v_ext, kx=5, ky=5)
        self._period = period

    def __call__(self, rho, y, dx=0, dy=0):
        return float(self._sp(rho, y % self._period, dx=dx, dy=dy)[0, 0])


def _cumulative_integrals(fun, rho_grid, ys, n_quad):
    """fun(s, y) integrated over [0, rho] for every grid rho and y column."""
    gx, gw = gauss_nodes(0.0, 1.0, n_quad)
    out = np.zeros((len(rho_grid), len(ys)))
    for j, yv in enumerate(ys):
        y = np.array([yv])
        prev_edge, prev_val = 0.0, 0.0
        for i, rho in enumerate(rho_grid):
            # integrate the new slice [prev_edge, rho] and accumulate
            width = rho - prev_edge
            if width > 0.0:
                s = prev_edge + gx * width
                prev_val += width * float(
                    gw @ np.array([fun(v, y) for v in s]))
            prev_edge = rho
            out[i, j] = prev_val
    return out


def gauge_normalize(field: SymmetricTensorField, fam: BoundaryMetricFamily,
                    n_quad: int = 24, n_rho: int = 61, n_y: int = 64,
                    grid: int = 9) -> GaugeResult:
    """Solve the radial gauge ODEs so f - D q has no d rho components near
    the boundary (n = 1, rank 1 or 2).

    The potential vanishes at rho = 0, is cut off by a plateau function chi
    before the outer edge of the collar, and is returned with spline-backed
    partial derivatives so repeated covariant differentiation stays cheap.
    The residual samples the d rho contraction of f - D q where chi is one.
    """
    if fam.n != 1:
        raise NotImplementedError("gauge reduction is implemented for n = 1")
    if field.rank not in (1, 2):
        raise ValueError("gauge reduction applies to rank 1 or 2")
    rho_c = min(fam.rho_max, 1.0)
    chi, chi_prime, plateau = _chi_factory(rho_c)
    rho_edge = 0.85 * rho_c
    rho_grid = np.linspace(0.0, rho_edge, n_rho)
    ys = np.linspace(0.0, 2.0 * math.pi, n_y, endpoint=False)

    if field.rank == 1:
        vals = _cumulative_integrals(
            lambda v, y: float(field.comp(v, y)[0]), rho_grid, ys, n_quad)
        surf = _PeriodicSurface(vals, rho_grid, ys)

        def q_comp(rho, y):
            return chi(rho) * surf(rho, float(y[0]))

        def q_drho(rho, y):
            yv = float(y[0])
            return (chi_prime(rho) * surf(rho, yv)
                    + chi(rho) * surf(rho, yv, dx=1))

        def q_dy(rho, y):
            return np.array([chi(rho) * surf(rho, float(y[0]), dy=1)])

        q = SymmetricTensorField(rank=0, weight=1, components=q_comp,
                                 d_rho=q_drho, d_y=q_dy)
    else:
        # q0: rho q0 = int_0^rho s f_rr ds
        i_rr = _cumulative_integrals(
            lambda v, y: v * float(field.comp(v, y)[0, 0]),
            rho_grid, ys, n_quad)
        with np.errstate(invalid="ignore", divide="ignore"):
            q0_vals = np.where(rho_grid[:, None] > 0.0,
                               i_rr / np.where(rho_grid[:, None] > 0.0,
                                               rho_grid[:, None], 1.0), 0.0)
        q0_surf = _PeriodicSurface(q0_vals, rho_grid, ys)

        # q1: (rho^2/h) q1 = int 2 s^2 (f_ry - dy q0 / 2) / h ds
        h_of = fam.profiles[0]
        def integrand(v, y):
            yv = float(y[0])
            fr = float(field.comp(v, y)[0, 1])
            fr -= 0.5 * q0_surf(v, yv, dy=1)
            return 2.0 * v * v * fr / h_of(v, yv)[0]

        i_ry = _cumulative_integrals(integrand, rho_grid, ys, n_quad)
        q1_vals = np.zeros_like(i_ry)
        hs = fam.diag(rho_grid[1:, None], ys[:, None])[0, ..., 0]
        q1_vals[1:] = hs / rho_grid[1:, None] ** 2 * i_ry[1:]
        q1_surf = _PeriodicSurface(q1_vals, rho_grid, ys)

        def q_comp(rho, y):
            yv = float(y[0])
            c = chi(rho)
            return np.array([c * q0_surf(rho, yv), c * q1_surf(rho, yv)])

        def q_drho(rho, y):
            yv = float(y[0])
            c, cp = chi(rho), chi_prime(rho)
            return np.array([
                cp * q0_surf(rho, yv) + c * q0_surf(rho, yv, dx=1),
                cp * q1_surf(rho, yv) + c * q1_surf(rho, yv, dx=1)])

        def q_dy(rho, y):
            yv = float(y[0])
            c = chi(rho)
            return np.array([[c * q0_surf(rho, yv, dy=1),
                              c * q1_surf(rho, yv, dy=1)]])

        q = SymmetricTensorField(rank=1, weight=1, components=q_comp,
                                 d_rho=q_drho, d_y=q_dy)

    # residual: d rho contraction of f - D q where chi == 1
    dq = sym_derivative(q, fam)
    resid = 0.0
    rhos = np.linspace(plateau / grid, plateau * 0.999, grid)
    y_check = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    for rho in rhos:
        for yv in y_check:
            y = np.array([yv])
            diff = field.comp(rho, y) - dq.comp(rho, y)
            resid = max(resid, float(np.max(np.abs(np.atleast_1d(diff)[0]))))
    return GaugeResult(potential=q, residual=resid, chi_plateau=plateau)


# ---------------------------------------------------------------------------
# orbit endpoints


def forward_boundary_point(fam: BoundaryMetricFamily, state: BPhasePoint,
                           tol: float = DEFAULT_TOL,
                           t_max: float = 60.0) -> BoundaryCovector:
    """Outgoing boundary covector of the orbit through an interior point."""
    return trace_from_state(fam, state, tol=tol, t_max=t_max).z_out


def backward_boundary_point(fam: BoundaryMetricFamily, state: BPhasePoint,
                            tol: float = DEFAULT_TOL,
                            t_max: float = 60.0) -> BoundaryCovector:
    """Incoming boundary covector of the orbit, via time reversal."""
    out = trace_from_state(fam, flip_state(state), tol=tol, t_max=t_max).z_out
    return BoundaryCovector.make(out.y, -out.eta, "incoming")


# ---------------------------------------------------------------------------
# invariant-measure checks (n = 1)


def _fiber_state(fam, rho, yv, theta):
    h = fam.profiles[0](rho, yv)[0]
    eta = math.sin(theta) * math.sqrt(h) / rho
    return BPhasePoint.make(rho, yv, math.cos(theta), eta)


@dataclass(frozen=True)
class SantaloResult:
    lhs: float                # invariant-measure integral over the bundle
    rhs_levels: tuple         # boundary-side integrals, coarse to fine
    rel_errors: tuple
    orders: tuple


def grazing_eta(fam: BoundaryMetricFamily, rho_lo: float) -> float:
    """Largest |eta| whose geodesic turning point still reaches depth rho_lo."""
    from scipy.optimize import brentq

    hi = min(fam.rho_max * 0.999, 1e3)
    h_of = fam.profiles[0]

    def graze(eta):
        # deepest turning point over boundary positions, minus the target
        best = -1e9
        for yv in np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False):
            def fn(rr):
                return rr * abs(eta) - math.sqrt(h_of(rr, yv)[0])
            r = hi if fn(hi) <= 0.0 else brentq(fn, 1e-12, hi)
            best = max(best, r - rho_lo)
        return best

    return brentq(graze, 1e-3, 1e3)


def _boundary_quad_grid(fam, rho_supp, eta_hi, ny, n_panel):
    """Nodes/weights for the incoming-boundary measure d y d eta.

    Where a geodesic grazes an edge of the support rho_supp, the transform
    behaves like a fractional power of eta minus the grazing value.  The
    eta panels are therefore cut at +-eta_hi (grazing the lower edge; the
    transform vanishes beyond), at the grazing values of the upper edge
    when geodesics reach it, and at +-eta_hi / 2.  Each panel gets an
    ``n_panel``-point Gauss rule; y uses the periodic trapezoid rule.
    """
    ys = np.linspace(0.0, 2.0 * math.pi, ny, endpoint=False)
    wy = 2.0 * math.pi / ny
    pos = [0.5 * eta_hi, eta_hi]
    try:
        pos.append(grazing_eta(fam, rho_supp[1]))
    except ValueError:      # no geodesic reaches the upper edge
        pass
    pos = np.sort(pos)
    edges = np.concatenate((-pos[::-1], [0.0], pos))
    etas, weta = panel_gauss(edges[:-1], edges[1:], n_panel)
    return ys, wy, etas.ravel(), weta.ravel()


def santalo_check(fam: BoundaryMetricFamily, f: SymmetricTensorField,
                  rho_supp: tuple, ny_levels=(12, 24, 48),
                  n_panel_levels=(4, 8, 16), n_rho: int = 60,
                  ny_lhs: int = 256,
                  trace_tol: float = 1e-8) -> SantaloResult:
    """Compare the invariant-measure integral of a lifted function with the
    boundary integral of its transform (n = 1, rank 0).

    lhs: int f * sqrt(h) / rho^2 * d rho d y * 2 pi over the support;
    rhs: int (transform of f)(y, eta) d y d eta over the incoming boundary,
    on a sequence of refined meshes.  Convergence orders are log2 ratios of
    successive errors against the lhs reference.
    """
    if fam.n != 1:
        raise NotImplementedError("measure check implemented for n = 1")
    rho_lo, rho_hi = rho_supp

    # interior side: fiber integral of the pullback is just 2 pi f
    xr, wr = gauss_nodes(rho_lo, rho_hi, n_rho)
    ys = np.linspace(0.0, 2.0 * math.pi, ny_lhs, endpoint=False)
    wy = 2.0 * math.pi / ny_lhs
    acc = 0.0
    for rho, w in zip(xr, wr):
        hrow = fam.diag(rho, ys[:, None])[0, :, 0]
        frow = np.array([float(f.comp(rho, np.array([yv]))) for yv in ys])
        acc += w * wy * float(np.sum(frow * np.sqrt(hrow) / rho ** 2))
    lhs = 2.0 * math.pi * acc

    eta_hi = grazing_eta(fam, rho_lo)

    rhs_levels = []
    for ny, npnl in zip(ny_levels, n_panel_levels):
        ys_b, wy_b, etas, weta = _boundary_quad_grid(fam, rho_supp, eta_hi,
                                                     ny, npnl)
        total = 0.0
        for yv in ys_b:
            for eta, we in zip(etas, weta):
                traj = trace_geodesic(fam, (yv, eta), tol=trace_tol)
                total += wy_b * we * xray_transform(f, traj,
                                                    rho_breaks=rho_supp)
        rhs_levels.append(total)

    rel = tuple(abs(r - lhs) / abs(lhs) for r in rhs_levels)
    orders = tuple(math.log2(rel[i] / rel[i + 1]) if rel[i + 1] > 0 else
                   float("inf") for i in range(len(rel) - 1))
    return SantaloResult(lhs=lhs, rhs_levels=tuple(rhs_levels),
                         rel_errors=rel, orders=orders)


@dataclass(frozen=True)
class AdjointnessResult:
    boundary_pairing: float
    bundle_pairing: float
    rel_error: float


def adjointness_check(fam: BoundaryMetricFamily, f: SymmetricTensorField,
                      omega: Callable, rho_supp: tuple,
                      eta_hi: Optional[float] = None,
                      ny: int = 24, n_panel: int = 10, n_rho: int = 12,
                      ny_i: int = 12, n_theta: int = 32,
                      trace_tol: float = 1e-9) -> AdjointnessResult:
    """Pair the transform with a boundary weight both ways (n = 1).

    boundary side: int (If)(y, eta) omega(y, eta) dy deta;
    bundle side: int f(rho, y) omega(backward endpoint) dmu, the backward
    endpoint found by tracing each fiber direction to the incoming boundary.
    The eta panels are cut where geodesics graze an edge of the support
    (see :func:`_boundary_quad_grid`), with ``n_panel`` Gauss nodes on each.
    On the disc with a C2 bump, n_panel 4 / 6 / 8 / 10 give 8.4e-4 /
    2.8e-5 / 7.3e-8 / 5e-10 relative against a converged bundle side;
    trace_tol 1e-9 adds ~1e-9.
    """
    if fam.n != 1:
        raise NotImplementedError("measure check implemented for n = 1")
    if eta_hi is None:
        # align the outer panel edge with the support edge of the transform
        eta_hi = grazing_eta(fam, rho_supp[0])
    ys_b, wy_b, etas, weta = _boundary_quad_grid(fam, rho_supp, eta_hi, ny,
                                                 n_panel)
    lhs = 0.0
    for yv in ys_b:
        for eta, we in zip(etas, weta):
            traj = trace_geodesic(fam, (yv, eta), tol=trace_tol)
            lhs += wy_b * we * omega(yv, eta) \
                * xray_transform(f, traj, rho_breaks=rho_supp)

    rho_lo, rho_hi = rho_supp
    xr, wr = gauss_nodes(rho_lo, rho_hi, n_rho)
    ys = np.linspace(0.0, 2.0 * math.pi, ny_i, endpoint=False)
    wy = 2.0 * math.pi / ny_i
    # offset fiber grid: the exact inward radial direction can leave the
    # normal-form chart (it runs through the deep interior)
    wth = 2.0 * math.pi / n_theta
    thetas = (np.arange(n_theta) + 0.5) * wth
    rhs = 0.0
    for rho, w in zip(xr, wr):
        for yv in ys:
            fv = float(f.comp(rho, np.array([yv])))
            if fv == 0.0:
                continue
            dens = math.sqrt(fam.profiles[0](rho, yv)[0]) / rho ** 2
            for th in thetas:
                state = _fiber_state(fam, rho, yv, th)
                zin = backward_boundary_point(fam, state, tol=trace_tol)
                rhs += w * wy * wth * fv * dens * omega(
                    float(zin.y[0]), float(zin.eta[0]))
    rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
    return AdjointnessResult(boundary_pairing=lhs, bundle_pairing=rhs,
                             rel_error=rel)


# ---------------------------------------------------------------------------
# zero-energy resolvents


def resolvent_zero(fam: BoundaryMetricFamily, func: Callable,
                   state: BPhasePoint, sign: int = +1,
                   tol: float = DEFAULT_TOL, t_max: float = 60.0,
                   npts: int = 12) -> float:
    """Resolvent of the rescaled generator at zero energy.

    sign=+1: integral over the forward orbit of (func - func at the forward
    boundary limit) in arclength; sign=-1: the reversed-orbit counterpart
    with the opposite grouping.  ``func`` takes a BPhasePoint.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    base = state if sign == +1 else flip_state(state)
    traj = trace_from_state(fam, base, tol=tol, t_max=t_max)
    n = traj.n
    endpoint = traj.samples[-1][1]
    if sign == +1:
        f_end = func(endpoint)
    else:
        f_end = func(flip_state(endpoint))
    taus, w = traj.quad_nodes(0.0, traj.tau_plus, npts)
    rows = traj.eval_many(taus)
    vals = np.empty(taus.size)
    for i, row in enumerate(rows):
        p = BPhasePoint.make(row[0], row[1:1 + n], row[1 + n],
                             row[2 + n:2 + 2 * n])
        if sign == -1:
            p = flip_state(p)
        vals[i] = (func(p) - f_end) if sign == +1 else (f_end - func(p))
    return float(w @ (vals / rows[:, 0]))

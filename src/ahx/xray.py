"""Symmetric tensor fields, X-ray transforms, and flow resolvents.

Rank-m symmetric tensors on the collar are stored as one component
callable in the coordinate frame (d rho, dy^i).  The callable takes
arrays: ``components(rho, y)`` gets ``rho`` of a batch shape S and ``y`` of
shape S + (n,), and returns an array that broadcasts to S + (n+1,)*m; a
scalar call is the case S = ().  :meth:`SymmetricTensorField.comp` is the
one reader of ``components``, so transforms, derivatives and checks
evaluate a field on all their nodes in one call; partial derivatives are
central differences of ``comp``.

The transform of a rank-m field integrates its contraction with m copies of
the unit tangent over a boundary-to-boundary geodesic in hyperbolic
arclength; in the rescaled time this is int lift(f) / rho dtau, which
converges whenever the declared weight satisfies w >= 1 - m.

Also here: the symmetrized covariant derivative and its gauge-reduction
inverse near the boundary, invariant-measure quadrature comparing interior
and boundary pictures of the transform, and the zero-energy resolvents of
the rescaled generator.  The boundary quadrature cuts its eta panels where
geodesics graze the edges of a support; :func:`grazing_eta` reads that
|eta| in closed form from the turning condition at frozen y, with no root
search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .flow import (DEFAULT_TOL, BoundaryCovector, BPhasePoint,
                   GeodesicTrajectory, flip_state, trace_from_state,
                   trace_geodesic)
from .metric import BoundaryMetricFamily, christoffel_symbols
from .quadrature import gauss_nodes, panel_gauss, smoothstep

__all__ = [
    "SymmetricTensorField", "xray_transform",
    "sym_derivative", "gauge_normalize", "GaugeResult",
    "backward_boundary_point", "grazing_eta",
    "santalo_check", "SantaloResult", "adjointness_check", "AdjointnessResult",
    "resolvent_zero",
]

FD_RHO = 1e-6
FD_Y = 1e-6


@dataclass
class SymmetricTensorField:
    """Symmetric covariant tensor of rank m in the (d rho, dy) frame.

    ``components(rho, y)`` takes ``rho`` of a batch shape S and ``y`` of
    shape S + (n,), and returns an array that broadcasts to S + (n+1,)*m:
    a value per point for rank 0, a symmetric (n+1, ..., n+1) block per
    point otherwise.  A constant such as ``np.array([0.0, 1.0])`` is valid.
    ``weight`` declares the boundary decay: components are rho^weight times
    a function smooth up to rho = 0.  ``breaks`` are the rho levels where
    the components are not smooth, such as the edges of a support; a
    transform cuts its quadrature there.  Partial derivatives are central
    differences of the components, with steps ``FD_RHO`` and ``FD_Y``.
    """

    rank: int
    weight: int
    components: Callable
    breaks: tuple = ()

    def comp(self, rho, y) -> np.ndarray:
        """Components at the broadcast points (rho, y), shape
        S + (n+1,)*rank; a result of another shape is an error."""
        rho = np.asarray(rho, dtype=float)
        y = np.atleast_1d(np.asarray(y, dtype=float))
        batch = np.broadcast_shapes(rho.shape, y.shape[:-1])
        n = y.shape[-1]
        out = np.asarray(self.components(np.broadcast_to(rho, batch),
                                         np.broadcast_to(y, batch + (n,))),
                         dtype=float)
        want = batch + (n + 1,) * self.rank
        try:
            return np.broadcast_to(out, want)
        except ValueError:
            raise ValueError(
                f"rank-{self.rank} field gave shape {out.shape} on points "
                f"of shape {batch}; expected {want}") from None

    def partial_rho(self, rho, y) -> np.ndarray:
        """rho-derivatives, shape S + (n+1,)*rank."""
        rho = np.asarray(rho, dtype=float)
        h = FD_RHO * np.maximum(1.0, np.abs(rho))
        diff = self.comp(rho + h, y) - self.comp(rho - h, y)
        return diff / (2.0 * h[(...,) + (None,) * self.rank])

    def partial_y(self, rho, y) -> np.ndarray:
        """y-derivatives, shape S + (n,) + (n+1,)*rank."""
        y = np.atleast_1d(np.asarray(y, dtype=float))
        outs = [(self.comp(rho, y + e) - self.comp(rho, y - e)) / (2.0 * FD_Y)
                for e in FD_Y * np.eye(y.shape[-1])]
        return np.stack(outs, axis=outs[0].ndim - self.rank)


def _unit_tangent(fam: BoundaryMetricFamily, rho, y, xi_b, eta) -> np.ndarray:
    """Components of the metric-unit tangent vector in (rho, y) coordinates.

    Takes one state or arrays of states (y and eta with a last axis of
    length n); the components run along the last axis of the result.
    """
    rho = np.asarray(rho, dtype=float)
    h = fam.diag(rho, y)[0]
    return np.concatenate(((rho * xi_b)[..., None],
                           rho[..., None] ** 2 * eta / h), axis=-1)


def _lift(field: SymmetricTensorField, rho, y, V) -> np.ndarray:
    """Contraction of the components with rank copies of V at every point;
    V has the shape S + (n+1,)."""
    c = field.comp(rho, y)
    for m in range(field.rank, 0, -1):
        # V lines up with the last slot, past the m - 1 slots before it
        c = np.sum(c * V.reshape(V.shape[:-1] + (1,) * (m - 1)
                                 + V.shape[-1:]), axis=-1)
    return c


def xray_transform(field: SymmetricTensorField,
                   traj: GeodesicTrajectory) -> float:
    """Arclength integral of the lifted field along the trajectory.

    The rule is :meth:`GeodesicTrajectory.quad_nodes` with its default 12
    nodes per panel, also cut where the trajectory crosses the field's
    ``breaks``.
    """
    if field.weight < 1 - field.rank:
        raise ValueError(
            f"rank-{field.rank} transform needs weight >= {1 - field.rank}, "
            f"got {field.weight}")
    n = traj.n
    taus, w = traj.quad_nodes(0.0, traj.tau_plus, rho_breaks=field.breaks)
    rows = traj.eval_many(taus)
    # with weight + rank >= 1 the integrand vanishes at the boundary
    inside = rows[:, 0] > 0.0
    rows = rows[inside]
    rho, ys = rows[:, 0], rows[:, 1:1 + n]
    V = _unit_tangent(traj.family, rho, ys, rows[:, 1 + n], rows[:, 2 + n:])
    return float(w[inside] @ (_lift(field, rho, ys, V) / rho))


# ---------------------------------------------------------------------------
# symmetrized covariant derivative


def sym_derivative(field: SymmetricTensorField,
                   fam: BoundaryMetricFamily) -> SymmetricTensorField:
    """Symmetrization of the Levi-Civita covariant derivative, rank m+1.

    Component evaluation uses the field's partial derivatives and the
    collar Christoffel symbols; the result is assembled on demand and keeps
    the field's ``breaks``.
    """
    m = field.rank
    slots = "bcdefghijk"[:m]

    def components(rho, y):
        nb = rho.ndim
        G = christoffel_symbols(fam, rho, y)
        q = field.comp(rho, y)
        # grad[..., a, B] = nabla_a q_B: the partial derivative d_a q_B ...
        grad = np.concatenate((np.expand_dims(field.partial_rho(rho, y), nb),
                               field.partial_y(rho, y)), axis=nb)
        # ... minus Gamma^c_{a b_s} q_{... c ...} for each slot s
        for s in range(m):
            q_slots = slots[:s] + "z" + slots[s + 1:]
            grad = grad - np.einsum(
                f"...za{slots[s]},...{q_slots}->...a{slots}", G, q)
        # average the derivative slot over all positions
        return sum(np.moveaxis(grad, nb, nb + i) for i in range(m + 1)) \
            / (m + 1)

    return SymmetricTensorField(rank=m + 1, weight=field.weight - 1,
                                components=components, breaks=field.breaks)


# ---------------------------------------------------------------------------
# gauge reduction near the boundary (n = 1)


@dataclass(frozen=True)
class GaugeResult:
    potential: SymmetricTensorField     # rank m-1
    residual: float                     # max |iota_{d/d rho}(f - D q)| on collar


class _PeriodicSurface:
    """Quintic spline of a smooth field on [0, rho_edge] x S^1."""

    def __init__(self, values, rho_grid, y_grid):
        from scipy.interpolate import RectBivariateSpline
        pad = 5
        period = 2.0 * math.pi
        y_ext = np.concatenate((y_grid[-pad:] - period, y_grid,
                                y_grid[:pad] + period))
        v_ext = np.concatenate((values[:, -pad:], values, values[:, :pad]),
                               axis=1)
        self._sp = RectBivariateSpline(rho_grid, y_ext, v_ext, kx=5, ky=5)
        self._period = period

    def __call__(self, rho, y, dy=0):
        """Values (or the dy-th y-derivative) at the points (rho, y),
        broadcast against each other."""
        return self._sp(rho, np.mod(y, self._period), dy=dy, grid=False)


def _cumulative_integrals(fun, rho_grid, ys):
    """fun(s, y) integrated over [0, rho] for every grid rho and y column,
    with a 24-point Gauss rule between consecutive grid levels.

    ``rho_grid`` starts at 0.  ``fun`` takes arrays: s of shape
    (len(rho_grid) - 1, 24, 1) and y of shape (len(ys), 1).
    """
    gx, gw = gauss_nodes(0.0, 1.0, 24)
    width = np.diff(rho_grid)
    s = rho_grid[:-1, None] + gx * width[:, None]
    out = np.zeros((len(rho_grid), len(ys)))
    out[1:] = np.cumsum(width[:, None] * (gw @ fun(s[..., None], ys[:, None])),
                        axis=0)
    return out


def gauge_normalize(field: SymmetricTensorField,
                    fam: BoundaryMetricFamily) -> GaugeResult:
    """Solve the radial gauge ODEs so f - D q has no d rho components near
    the boundary (n = 1, rank 1 or 2).

    The potential vanishes at rho = 0 and is cut off by a plateau function
    chi before the outer edge of the collar: chi is one below 0.35 rho_c
    and zero above 0.85 rho_c, with rho_c = min(rho_max, 1); both levels
    are the potential's ``breaks``.  Its components are chi times quintic
    splines (scipy's ``RectBivariateSpline``, imported on the first call) of
    61 rho levels on [0, 0.85 rho_c] against 64 equally spaced y; like any
    field, it is differentiated by central differences.  The residual samples the d rho
    contraction of f - D q on a 9 x 9 grid where chi is one.
    """
    if fam.n != 1:
        raise NotImplementedError("gauge reduction is implemented for n = 1")
    if field.rank not in (1, 2):
        raise ValueError("gauge reduction applies to rank 1 or 2")
    rho_c = min(fam.rho_max, 1.0)
    plateau, rho_edge = 0.35 * rho_c, 0.85 * rho_c
    rho_grid = np.linspace(0.0, rho_edge, 61)
    ys = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)

    if field.rank == 1:
        surfs = [_PeriodicSurface(_cumulative_integrals(
            lambda v, y: field.comp(v, y)[..., 0], rho_grid, ys),
            rho_grid, ys)]
    else:
        # q0: rho q0 = int_0^rho s f_rr ds
        i_rr = _cumulative_integrals(
            lambda v, y: v * field.comp(v, y)[..., 0, 0], rho_grid, ys)
        q0_vals = np.zeros_like(i_rr)
        q0_vals[1:] = i_rr[1:] / rho_grid[1:, None]
        q0_surf = _PeriodicSurface(q0_vals, rho_grid, ys)

        # q1: (rho^2/h) q1 = int 2 s^2 (f_ry - dy q0 / 2) / h ds
        h_of = fam.profiles[0]

        def integrand(v, y):
            yv = y[..., 0]
            fr = field.comp(v, y)[..., 0, 1] - 0.5 * q0_surf(v, yv, dy=1)
            return 2.0 * v * v * fr / h_of(v, yv)[0]

        i_ry = _cumulative_integrals(integrand, rho_grid, ys)
        q1_vals = np.zeros_like(i_ry)
        hs = fam.diag(rho_grid[1:, None], ys[:, None])[0, ..., 0]
        q1_vals[1:] = hs / rho_grid[1:, None] ** 2 * i_ry[1:]
        surfs = [q0_surf, _PeriodicSurface(q1_vals, rho_grid, ys)]

    # the potential's components are chi times the surfaces: one for a
    # scalar potential, (q0, q1) for a one-form
    def q_comp(rho, y):
        chi = 1.0 - smoothstep((rho - plateau) / (rho_edge - plateau))
        v = np.stack([s(rho, y[..., 0]) for s in surfs], axis=-1)
        return chi[..., None] * v if field.rank == 2 else chi * v[..., 0]

    q = SymmetricTensorField(rank=field.rank - 1, weight=1, components=q_comp,
                             breaks=(plateau, rho_edge))

    # residual: d rho contraction of f - D q where chi == 1
    dq = sym_derivative(q, fam)
    rhos = np.linspace(plateau / 9, plateau * 0.999, 9)[:, None]
    y_check = np.linspace(0.0, 2.0 * math.pi, 9, endpoint=False)[:, None]
    diff = field.comp(rhos, y_check) - dq.comp(rhos, y_check)
    resid = float(np.max(np.abs(diff[:, :, 0])))
    return GaugeResult(potential=q, residual=resid)


# ---------------------------------------------------------------------------
# orbit endpoints


def backward_boundary_point(fam: BoundaryMetricFamily, state: BPhasePoint,
                            tol: float = DEFAULT_TOL) -> BoundaryCovector:
    """Incoming boundary covector of the orbit, via time reversal."""
    out = trace_from_state(fam, flip_state(state), tol=tol).z_out
    return BoundaryCovector.make(out.y, -out.eta)


# ---------------------------------------------------------------------------
# invariant-measure checks (n = 1)


def _fiber_state(fam, rho, yv, theta):
    h = fam.profiles[0](rho, yv)[0]
    eta = math.sin(theta) * math.sqrt(h) / rho
    return BPhasePoint.make(rho, yv, math.cos(theta), eta)


@dataclass(frozen=True)
class SantaloResult:
    rel_errors: tuple         # against the bundle side, coarse to fine
    orders: tuple


def grazing_eta(fam: BoundaryMetricFamily, rho_lo: float) -> float:
    """Largest |eta| whose geodesic turning point still reaches depth rho_lo.

    With y frozen at one of 16 boundary positions, a geodesic of covector
    eta turns where rho |eta| = sqrt(h(rho, y)), so it reaches rho_lo for
    |eta| up to sqrt(h(rho_lo, y)) / rho_lo; the result is the largest of
    these over the 16 y.  Raises ValueError when rho_lo is not in (0,
    min(0.999 rho_max, 1e3)], or when no |eta| in [1e-3, 1e3] reaches that
    depth.
    """
    if not 0.0 < rho_lo <= min(fam.rho_max * 0.999, 1e3):
        raise ValueError(f"depth {rho_lo} is outside the collar")
    h_of = fam.profiles[0]
    eta = max(math.sqrt(h_of(rho_lo, yv)[0]) for yv in
              np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)) / rho_lo
    if not 1e-3 <= eta <= 1e3:
        raise ValueError(f"no |eta| in [1e-3, 1e3] reaches depth {rho_lo}")
    return eta


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


def _transform_table(fam, f, ys, etas, trace_tol):
    """Transforms of f along the geodesics entering at each covector of the
    grid ys x etas, shape (len(ys), len(etas))."""
    return np.array([[xray_transform(f, trace_geodesic(fam, (yv, eta),
                                                       tol=trace_tol))
                      for eta in etas] for yv in ys])


def _interior_density(fam, f, rhos, ys):
    """f sqrt(h) / rho^2 on the grid rhos x ys, shape (len(rhos), len(ys)):
    the Liouville density of the lifted function per unit fiber angle."""
    R, Y = rhos[:, None], ys[:, None]
    return f.comp(R, Y) * np.sqrt(fam.diag(R, Y)[0, ..., 0]) / R ** 2


def santalo_check(fam: BoundaryMetricFamily, f: SymmetricTensorField,
                  rho_supp: tuple) -> SantaloResult:
    """Compare the invariant-measure integral of a lifted function with the
    boundary integral of its transform (n = 1, rank 0).

    lhs: int f * sqrt(h) / rho^2 * d rho d y * 2 pi over the support
    rho_supp, with 60 Gauss nodes in rho and a 256-point trapezoid rule in y;
    rhs: int (transform of f)(y, eta) d y d eta over the incoming boundary,
    each transform cut at ``f.breaks``, on three refined meshes of 12 / 24 /
    48 y nodes and 4 / 8 / 16 Gauss nodes per eta panel, each geodesic
    traced at tol 1e-8.  Convergence orders are log2 ratios of successive
    errors against the lhs reference.
    """
    if fam.n != 1:
        raise NotImplementedError("measure check implemented for n = 1")
    rho_lo, rho_hi = rho_supp

    # interior side: fiber integral of the pullback is just 2 pi f
    xr, wr = gauss_nodes(rho_lo, rho_hi, 60)
    ys = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)
    wy = 2.0 * math.pi / 256
    lhs = 2.0 * math.pi * wy * float(
        wr @ _interior_density(fam, f, xr, ys).sum(axis=1))

    eta_hi = grazing_eta(fam, rho_lo)

    rhs_levels = []
    for ny, n_panel in ((12, 4), (24, 8), (48, 16)):
        ys_b, wy_b, etas, weta = _boundary_quad_grid(fam, rho_supp, eta_hi,
                                                     ny, n_panel)
        table = _transform_table(fam, f, ys_b, etas, 1e-8)
        rhs_levels.append(wy_b * float(np.sum(table @ weta)))

    rel = tuple(abs(r - lhs) / abs(lhs) for r in rhs_levels)
    orders = tuple(math.log2(rel[i] / rel[i + 1]) if rel[i + 1] > 0 else
                   float("inf") for i in range(len(rel) - 1))
    return SantaloResult(rel_errors=rel, orders=orders)


@dataclass(frozen=True)
class AdjointnessResult:
    rel_error: float


def adjointness_check(fam: BoundaryMetricFamily, f: SymmetricTensorField,
                      omega: Callable, rho_supp: tuple) -> AdjointnessResult:
    """Pair the transform with a boundary weight both ways (n = 1).

    boundary side: int (If)(y, eta) omega(y, eta) dy deta, with 24 y nodes;
    bundle side: int f(rho, y) omega(backward endpoint) dmu, with 12 Gauss
    nodes in rho, 12 y nodes and 32 fiber angles, the backward endpoint
    found by tracing each fiber direction to the incoming boundary.  Every
    geodesic is traced at tol 1e-9, and each transform is cut at
    ``f.breaks``.  The eta panels are cut where geodesics graze an edge of
    the support (see :func:`_boundary_quad_grid`), with 10 Gauss nodes on
    each.  On the disc with a C2 bump, 4 / 6 / 8 / 10 nodes
    per panel give 8.4e-4 / 2.8e-5 / 7.3e-8 / 5e-10 relative against a
    converged bundle side; tracing at tol 1e-9 adds ~1e-9.
    """
    if fam.n != 1:
        raise NotImplementedError("measure check implemented for n = 1")
    ys_b, wy_b, etas, weta = _boundary_quad_grid(
        fam, rho_supp, grazing_eta(fam, rho_supp[0]), 24, 10)
    table = _transform_table(fam, f, ys_b, etas, 1e-9)
    om = np.array([[omega(yv, eta) for eta in etas] for yv in ys_b])
    lhs = wy_b * float(np.sum(om * table @ weta))

    rho_lo, rho_hi = rho_supp
    xr, wr = gauss_nodes(rho_lo, rho_hi, 12)
    ys = np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False)
    wy = 2.0 * math.pi / 12
    # offset fiber grid: the exact inward radial direction can leave the
    # normal-form chart (it runs through the deep interior)
    wth = 2.0 * math.pi / 32
    thetas = (np.arange(32) + 0.5) * wth
    dens = _interior_density(fam, f, xr, ys)
    rhs = 0.0
    for i, j in zip(*np.nonzero(dens)):
        for th in thetas:
            state = _fiber_state(fam, xr[i], ys[j], th)
            zin = backward_boundary_point(fam, state, tol=1e-9)
            rhs += wr[i] * wy * wth * dens[i, j] * omega(
                float(zin.y[0]), float(zin.eta[0]))
    rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
    return AdjointnessResult(rel_error=rel)


# ---------------------------------------------------------------------------
# zero-energy resolvents


def resolvent_zero(fam: BoundaryMetricFamily, func: Callable,
                   state: BPhasePoint, sign: int = +1) -> float:
    """Resolvent of the rescaled generator at zero energy.

    sign=+1: integral over the forward orbit of (func - func at the forward
    boundary limit) in arclength; sign=-1: the reversed-orbit counterpart
    with the opposite grouping.  ``func`` takes a BPhasePoint.  The orbit
    is traced at ``DEFAULT_TOL`` and integrated with the default rule of
    :meth:`GeodesicTrajectory.quad_nodes`.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    if sign == -1:
        return -resolvent_zero(fam, lambda p: func(flip_state(p)),
                               flip_state(state))
    traj = trace_from_state(fam, state)
    n = traj.n
    f_end = func(traj.end)
    taus, w = traj.quad_nodes(0.0, traj.tau_plus)
    rows = traj.eval_many(taus)
    vals = np.empty(taus.size)
    for i, row in enumerate(rows):
        p = BPhasePoint.make(row[0], row[1:1 + n], row[1 + n],
                             row[2 + n:2 + 2 * n])
        vals[i] = func(p) - f_end
    return float(w @ (vals / rows[:, 0]))

"""Ray transforms: exact oracles, kernel property, measure identities."""
import math

import numpy as np
import pytest

from ahx import (BPhasePoint, SymmetricTensorField, backward_boundary_point,
                 gauge_normalize, resolvent_zero, sym_derivative,
                 trace_from_state, trace_geodesic, xray_transform)
from ahx import xray
from ahx.quadrature import poly_bump


def lift(field, fam, p):
    """Contraction of the field with rank copies of the unit tangent at p."""
    V = xray._unit_tangent(fam, p.rho, p.y, p.xi_b, p.eta)
    return float(xray._lift(field, p.rho, p.y, V))


def rho_weighted(power):
    return SymmetricTensorField(rank=0, weight=power,
                                components=lambda rho, y: rho ** power)


# ---------------------------------------------------------------------------
# exact half-plane values


@pytest.mark.parametrize("eta", [0.7, 1.0, 2.0, 3.5])
def test_halfplane_scalar_transform_linear_weight(halfplane, eta):
    traj = trace_geodesic(halfplane, (0.0, eta), tol=1e-12)
    got = xray_transform(rho_weighted(1), traj)
    assert got == pytest.approx(math.pi / eta, abs=1e-9)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_disc_scalar_transform_closed_form(disc, k):
    # rho = 2 e^{-r} and eta = sinh d, with r the distance from the centre
    # and d the geodesic's closest approach, so f_k = (cosh r)^{-k}
    f_k = SymmetricTensorField(
        rank=0, weight=k,
        components=lambda rho, y: (rho / (1.0 + 0.25 * rho * rho)) ** k)
    scale = math.sqrt(math.pi) * math.gamma(0.5 * k) / math.gamma(0.5 * k + 0.5)
    for eta in (0.2, 0.7, 1.5, 3.0, -2.0):
        got = xray_transform(f_k, trace_geodesic(disc, (0.4, eta)))
        assert got == pytest.approx(scale * (1.0 + eta * eta) ** (-0.5 * k),
                                    rel=1e-10)


def test_halfplane_scalar_transform_quadratic_weight(halfplane):
    traj = trace_geodesic(halfplane, (0.0, 2.0), tol=1e-12)
    assert xray_transform(rho_weighted(2), traj) == pytest.approx(
        0.5, abs=1e-9)


def test_halfplane_one_form_transform(halfplane):
    # the closed form dy integrates to the endpoint displacement
    fdy = SymmetricTensorField(
        rank=1, weight=0, components=lambda rho, y: np.array([0.0, 1.0]))
    for eta in (0.8, 1.6):
        traj = trace_geodesic(halfplane, (0.3, eta), tol=1e-12)
        assert xray_transform(fdy, traj) == pytest.approx(2.0 / eta,
                                                          abs=1e-9)


def test_halfplane_two_tensor_transform(halfplane):
    fdy2 = SymmetricTensorField(
        rank=2, weight=0,
        components=lambda rho, y: np.array([[0.0, 0.0], [0.0, 1.0]]))
    eta = 2.0
    traj = trace_geodesic(halfplane, (0.0, eta), tol=1e-12)
    assert xray_transform(fdy2, traj) == pytest.approx(
        (4.0 / 3.0) / eta ** 2, abs=1e-9)


def test_weight_gate_rejects_singular_integrand(halfplane):
    bad = SymmetricTensorField(rank=0, weight=0,
                               components=lambda rho, y: 1.0)
    traj = trace_geodesic(halfplane, (0.0, 1.0))
    with pytest.raises(ValueError):
        xray_transform(bad, traj)


# ---------------------------------------------------------------------------
# potential tensors integrate to zero


def scalar_potential():
    def comp(rho, y):
        return rho * rho * np.exp(-rho) * (1.0 + 0.3 * np.cos(y[..., 0]))

    return SymmetricTensorField(rank=0, weight=2, components=comp)


def one_form_potential():
    def comp(rho, y):
        c = rho * rho * np.exp(-rho)
        return np.stack([c * (1.0 + 0.2 * np.sin(y[..., 0])),
                         c * 0.5 * np.cos(y[..., 0])], axis=-1)

    return SymmetricTensorField(rank=1, weight=2, components=comp)


@pytest.mark.parametrize("z", [(0.0, 1.0), (1.0, 2.0), (2.5, 0.9)])
def test_rank1_transform_kills_exact_differentials(disc, z):
    q = scalar_potential()
    dq = sym_derivative(q, disc)
    traj = trace_geodesic(disc, z, tol=1e-12)
    assert abs(xray_transform(dq, traj)) < 1e-8


@pytest.mark.parametrize("z", [(0.0, 1.0), (1.5, 1.4)])
def test_rank2_transform_kills_symmetrized_derivatives(disc, z):
    q = one_form_potential()
    dq = sym_derivative(q, disc)
    traj = trace_geodesic(disc, z, tol=1e-12)
    assert abs(xray_transform(dq, traj)) < 1e-7


def test_derivative_lift_is_flow_derivative(disc):
    # contracting D q with the velocity equals the time derivative of the
    # contraction of q, so the two lifts agree along the orbit
    q = one_form_potential()
    dq = sym_derivative(q, disc)
    traj = trace_geodesic(disc, (0.0, 1.0), tol=1e-12)
    tau, eps = 0.9, 1e-5
    p0 = traj.state_at(tau)
    lm = lift(q, disc, traj.state_at(tau - eps))
    lp = lift(q, disc, traj.state_at(tau + eps))
    d_dt = p0.rho * (lp - lm) / (2.0 * eps)
    assert d_dt == pytest.approx(lift(dq, disc, p0), abs=1e-6)


# ---------------------------------------------------------------------------
# gauge reduction


def gauge_field():
    def comp(rho, y):
        c = rho * poly_bump(rho / 0.8)
        return np.stack([c * (1.0 + 0.3 * np.cos(y[..., 0])),
                         0.2 * c * np.sin(y[..., 0])], axis=-1)

    return SymmetricTensorField(rank=1, weight=1, components=comp)


def test_gauge_normalize_removes_radial_component(disc):
    res = gauge_normalize(gauge_field(), disc)
    assert res.residual < 1e-6
    assert res.potential.breaks[0] > 0.0
    # the potential vanishes at the boundary
    assert abs(res.potential.comp(1e-8, np.array([0.5]))) < 1e-6


def gauge_field_rank2():
    def comp(rho, y):
        yv = y[..., 0]
        c = rho * poly_bump(rho / 0.8)
        rr = c * (1.0 + 0.3 * np.cos(yv))
        ry = 0.2 * c * np.sin(yv)
        yy = 0.5 * rho * np.exp(-rho) * np.cos(2.0 * yv)
        return np.stack([np.stack([rr, ry], axis=-1),
                         np.stack([ry, yy], axis=-1)], axis=-2)

    return SymmetricTensorField(rank=2, weight=1, components=comp)


@pytest.mark.parametrize("make_field", [gauge_field, gauge_field_rank2],
                         ids=["rank1", "rank2"])
def test_gauge_potentials_are_potentials(disc, make_field):
    res = gauge_normalize(make_field(), disc)
    assert res.residual < 1e-6
    q = res.potential
    assert np.max(np.abs(q.comp(1e-8, np.array([0.5])))) < 1e-6
    # q is only C2 at the edges of chi (0.35 and 0.85 on the disc), its
    # breaks, and D q keeps them
    assert q.breaks == pytest.approx((0.35, 0.85))
    assert sym_derivative(q, disc).breaks == q.breaks


@pytest.mark.parametrize("make_field", [gauge_field, gauge_field_rank2],
                         ids=["rank1", "rank2"])
def test_gauge_potential_transforms_to_zero_without_cut_levels(disc,
                                                               make_field):
    # q vanishes at the boundary, so D q transforms to zero once the rule is
    # cut where q is not smooth; the field says where, not the caller
    dq = sym_derivative(gauge_normalize(make_field(), disc).potential, disc)
    for z in [(0.3, 0.7), (1.1, 1.5), (2.0, -0.9), (4.0, 2.5), (5.5, 0.4)]:
        assert abs(xray_transform(dq, trace_geodesic(disc, z))) < 1e-9


# ---------------------------------------------------------------------------
# array calling convention


def bump_field(lo=0.15, hi=0.55, cos_amp=0.3):
    width = hi - lo

    def comp(rho, y):
        # poly_bump is 0 outside [0, 1], so the field is 0 off (lo, hi)
        return poly_bump((rho - lo) / width) \
            * (1.0 + cos_amp * np.cos(y[..., 0]))

    return SymmetricTensorField(rank=0, weight=1, components=comp)


def test_array_calls_match_stacked_point_calls(disc):
    rng = np.random.default_rng(3)
    rho = rng.uniform(0.05, 0.8, 64)
    y = rng.uniform(0.0, 2.0 * math.pi, (64, 1))
    d_scalar = sym_derivative(scalar_potential(), disc)
    d_one_form = sym_derivative(one_form_potential(), disc)
    fields = [d_scalar, d_one_form,
              gauge_normalize(gauge_field(), disc).potential, bump_field()]
    for f in fields:
        batch = f.comp(rho, y)
        stacked = np.array([f.comp(r, yv) for r, yv in zip(rho, y)])
        assert batch.shape == stacked.shape == (64,) + (2,) * f.rank
        np.testing.assert_allclose(batch, stacked, rtol=1e-14, atol=0.0)

    # the transform against a per-node sum of single-point lifts
    traj = trace_geodesic(disc, (1.0, 1.3), tol=1e-12)
    taus, w = traj.quad_nodes(0.0, traj.tau_plus)
    rows = traj.eval_many(taus)
    for f in (d_scalar, d_one_form, one_form_potential()):
        per_node = sum(
            wk * lift(f, disc, BPhasePoint.make(r[0], r[1:2], r[2],
                                                r[3:])) / r[0]
            for wk, r in zip(w, rows) if r[0] > 0.0)
        assert xray_transform(f, traj) == pytest.approx(per_node, abs=1e-12)


def test_field_of_wrong_shape_is_rejected():
    bad = SymmetricTensorField(rank=1, weight=0,
                               components=lambda rho, y: np.zeros(3))
    with pytest.raises(ValueError):
        bad.comp(np.full(4, 0.5), np.zeros((4, 1)))


# ---------------------------------------------------------------------------
# orbit endpoints


def test_boundary_points_invert_each_other(disc):
    traj = trace_geodesic(disc, (0.7, 1.2), tol=1e-12)
    mid = traj.state_at(0.5 * traj.tau_plus)
    fwd = trace_from_state(disc, mid).z_out
    bwd = backward_boundary_point(disc, mid)
    assert bwd.y[0] % (2.0 * math.pi) == pytest.approx(0.7, abs=1e-7)
    assert bwd.eta[0] == pytest.approx(1.2, abs=1e-7)
    out = trace_geodesic(disc, (0.7, 1.2)).end
    assert fwd.y[0] == pytest.approx(float(out.y[0]), abs=1e-7)


@pytest.mark.parametrize("rho, theta", [(0.31, 0.3), (0.4, 2.0), (0.44, 4.4)])
def test_shifted_backward_endpoints_match_direct_traces(disc, rho, theta):
    # the adjointness check traces at the first y node and shifts the end
    y_a = 0.0
    zin_a = backward_boundary_point(disc, xray._fiber_state(disc, rho, y_a,
                                                            theta), tol=1e-9)
    for yv in (0.5, 2.0, 5.2):
        want = backward_boundary_point(
            disc, xray._fiber_state(disc, rho, yv, theta), tol=1e-9)
        moved = disc.chart.wrap(zin_a.y[0] + (yv - y_a))
        # measured at most 6e-12 apart, in y and relative in eta
        assert abs(disc.chart.wrapped_diff(moved, want.y[0])) < 1e-9
        assert zin_a.eta[0] == pytest.approx(want.eta[0], rel=1e-9)


# ---------------------------------------------------------------------------
# transform tables


def santalo_field():
    """The Gaussian bump of the acceptance criteria 6 and 7."""
    lo, hi = 0.3, 0.45

    def comp(rho, y):
        gauss = np.exp(-((rho - 0.375) / 0.06) ** 2)
        return gauss * poly_bump((rho - lo) / (hi - lo)) \
            * (1.0 + 0.3 * np.cos(y[..., 0]))

    return SymmetricTensorField(rank=0, weight=1, components=comp,
                                breaks=(lo, hi))


def test_reduced_santalo_table_matches_per_covector_traces(disc):
    # the coarsest santalo level: 12 y x 24 eta, traced at tol 1e-8
    f = santalo_field()
    ys, _, etas, _ = xray._boundary_quad_grid(
        disc, f.breaks, xray.grazing_eta(disc, f.breaks[0]), 12, 4)
    table = xray._transform_table(disc, f, ys, etas, 1e-8)
    direct = np.array([[xray_transform(f, trace_geodesic(disc, (yv, eta),
                                                         tol=1e-8))
                        for eta in etas] for yv in ys])
    assert table.shape == (12, 24)
    # the traced row is the per-covector row, bit for bit
    assert table[0].tobytes() == direct[0].tobytes()
    # a trace at y != 0 is not the bitwise translate of the one at 0: the
    # step control's error scale holds |y|.  Measured 6.3e-8 of the largest
    # entry on every santalo level
    assert np.max(np.abs(table - direct)) < 2e-7 * np.max(np.abs(direct))


def test_table_of_a_family_that_is_not_y_invariant_traces_every_covector(
        perturbed):
    f = santalo_field()
    ys, etas = np.array([0.0, 1.0, 4.0]), np.array([-6.0, 5.0])
    table = xray._transform_table(perturbed, f, ys, etas, 1e-9)
    direct = np.array([[xray_transform(f, trace_geodesic(perturbed,
                                                         (yv, eta), tol=1e-9))
                        for eta in etas] for yv in ys])
    assert table.tobytes() == direct.tobytes()


def test_zero_shift_is_the_transform_bit_for_bit(disc):
    traj = trace_geodesic(disc, (1.0, 1.3), tol=1e-10)
    for f in (santalo_field(), one_form_potential(),
              sym_derivative(one_form_potential(), disc)):
        got = xray._shifted_transforms(f, traj, np.array([[0.7], [0.0]]))
        assert got[1] == xray_transform(f, traj)


# ---------------------------------------------------------------------------
# zero-energy resolvent


def test_resolvent_closed_form_at_semicircle_peak(halfplane):
    peak = BPhasePoint.make(1.0, [1.0], 0.0, [1.0])
    got = resolvent_zero(halfplane, lambda p: p.rho, peak)
    assert got == pytest.approx(math.pi / 2.0, abs=1e-9)
    rev = resolvent_zero(halfplane, lambda p: p.rho, peak, sign=-1)
    assert rev == pytest.approx(-math.pi / 2.0, abs=1e-9)


def test_resolvent_flow_identity_single_point(disc):
    # -X R+(0) f = f - (f at the forward boundary limit)
    def func(p):
        return math.exp(-((p.rho - 0.3) / 0.2) ** 2) \
            * (1.0 + 0.4 * math.sin(float(p.y[0]))) + 0.1 * p.xi_b

    traj = trace_geodesic(disc, (0.0, 1.0), tol=1e-12)
    tau0 = 0.45 * traj.tau_plus
    state = traj.state_at(tau0)
    eps = 1e-3
    vals = [resolvent_zero(disc, func, traj.state_at(tau0 + k * eps))
            for k in (-2, -1, 1, 2)]
    d_dtau = (vals[0] - 8.0 * vals[1] + 8.0 * vals[2] - vals[3]) / (12.0 * eps)
    lhs = -state.rho * d_dtau
    # the outgoing limit has reversed radial momentum
    end = traj.end
    f_out = func(BPhasePoint.make(0.0, end.y, -1.0, end.eta))
    rhs = func(state) - f_out
    assert lhs == pytest.approx(rhs, abs=1e-5)

"""Geodesic flow: exact half-plane/disc oracles, invariants, error modes."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ahx import (BoundaryCovector, BPhasePoint, CollarExitError,
                 TrappedOrSlowError, constraint_residual, delta_max,
                 eval_metric, flip_state, product_family, scattering_jacobian,
                 scattering_map, trace_from_state, trace_geodesic)
from ahx.flow import barX_eval


# ---------------------------------------------------------------------------
# half-plane oracles (all in closed form)


def test_halfplane_scattering_grid(halfplane):
    for y in (-2.0, 0.0, 1.5):
        for eta in (-3.0, -1.0, 0.5, 2.0):
            out = scattering_map(halfplane, (y, eta))
            assert out.y[0] == pytest.approx(y + 2.0 / eta, abs=1e-9)
            assert out.eta[0] == pytest.approx(eta, abs=1e-9)


def test_halfspace_scattering_grid(halfplane):
    # the product of two half-plane factors is hyperbolic half-space: the
    # geodesic is a half-circle of diameter 2/|eta| in the direction of eta
    space = product_family(halfplane, halfplane)
    y = np.array([0.3, -0.5])
    for eta in ([1.2, 0.7], [-0.4, 2.5], [3.0, -1.0], [0.0, 1.5]):
        eta = np.array(eta)
        out = scattering_map(space, (y, eta))
        assert np.max(np.abs(out.y - (y + 2.0 * eta / (eta @ eta)))) < 1e-10
        assert np.max(np.abs(out.eta - eta)) < 1e-10


def test_halfplane_trajectory_profile(halfplane):
    eta = 1.5
    traj = trace_geodesic(halfplane, (0.0, eta))
    assert traj.tau_plus == pytest.approx(math.pi / eta, abs=1e-10)
    for tau in np.linspace(0.05, traj.tau_plus - 0.05, 7):
        p = traj.state_at(float(tau))
        assert p.rho == pytest.approx(math.sin(eta * tau) / eta, abs=1e-10)
        assert p.y[0] == pytest.approx((1.0 - math.cos(eta * tau)) / eta,
                                       abs=1e-10)
        assert p.xi_b == pytest.approx(math.cos(eta * tau), abs=1e-10)
        assert p.eta[0] == pytest.approx(eta, abs=1e-9)
    tau_pk, rho_pk = traj.rho_peak()
    assert rho_pk == pytest.approx(1.0 / eta, abs=1e-8)
    assert tau_pk == pytest.approx(0.5 * math.pi / eta, abs=1e-6)


def test_halfplane_arclength_closed_form(halfplane):
    # rho = sin(eta tau)/eta, so above the arclength gate the arclength
    # between two taus is log(tan(eta tau2 / 2) / tan(eta tau1 / 2))
    eta = 1.5
    traj = trace_geodesic(halfplane, (0.0, eta))
    tau1 = math.asin(0.011 * eta) / eta          # rho = 0.011 > RHO_GATE_HI
    taus = np.linspace(tau1, traj.tau_plus - tau1, 41)
    got = traj.arclength_at(taus) - traj.arclength_at(tau1)
    want = np.log(np.tan(0.5 * eta * taus) / math.tan(0.5 * eta * tau1))
    assert np.max(np.abs(got - want)) < 1e-8
    assert traj.arclength_at(traj.tau_plus) == pytest.approx(traj.t_acc,
                                                             abs=1e-12)
    assert traj.arclength_at(0.0) == 0.0


def test_arrival_step_that_stops_short_by_rounding(disc):
    # the retaken arrival step of this orbit ends an ulp short of the
    # arrival time; the endpoint must not come from that remnant
    rho, yv, theta = 0.375, 1.0, 31.5 * 2.0 * math.pi / 32.0
    eta = math.sin(theta) * math.sqrt(eval_metric(disc, rho, yv).h_mat[0, 0]) \
        / rho
    state = BPhasePoint.make(rho, yv, -math.cos(theta), -eta)
    loose = trace_from_state(disc, state, tol=1e-9)
    tight = trace_from_state(disc, state, tol=1e-12)
    assert loose.z_out.y[0] == pytest.approx(tight.z_out.y[0], abs=1e-8)
    assert loose.z_out.eta[0] == pytest.approx(tight.z_out.eta[0], abs=1e-8)
    assert loose.tau_plus == pytest.approx(tight.tau_plus, abs=1e-8)


def test_trace_starts_on_boundary_with_unit_momentum(halfplane):
    p = trace_geodesic(halfplane, (0.7, 2.0)).state_at(0.0)
    assert p.rho == 0.0
    assert p.xi_b == 1.0
    assert p.y[0] == 0.7 and p.eta[0] == 2.0


def test_disc_turning_point(disc):
    for eta in (0.5, 1.0, 2.5):
        traj = trace_geodesic(disc, (0.0, eta))
        _, rho_pk = traj.rho_peak()
        want = 2.0 * (math.sqrt(1.0 + eta * eta) - eta)
        assert rho_pk == pytest.approx(want, abs=1e-7)


def test_disc_scattering_symmetric_chord(disc):
    # the chord subtends equal angles either side of the turning point,
    # and the outgoing momentum keeps the incoming magnitude
    out = scattering_map(disc, (1.0, 1.3))
    back = scattering_map(disc, (float(out.y[0]), -1.3))
    assert back.y[0] % (2.0 * math.pi) == pytest.approx(1.0, abs=1e-8)
    assert abs(out.eta[0]) == pytest.approx(1.3, abs=1e-8)


# ---------------------------------------------------------------------------
# invariants


@given(st.floats(0.0, 6.28), st.floats(0.4, 4.0), st.booleans())
@settings(max_examples=12, deadline=None)
def test_constraint_preserved_along_flow(y0, eta, flip):
    from ahx import perturbed_family
    fam = perturbed_family(a_cos=[0.0, 0.1], b_cos=[0.02],
                           b_sin=[0.0, 0.03])
    if eta < 2.2:
        eta = 2.2 + eta          # keep the arc inside the collar
    if flip:
        eta = -eta
    traj = trace_geodesic(fam, (y0, eta))
    for tau in np.linspace(0.0, traj.tau_plus, 9):
        assert abs(constraint_residual(fam, traj.state_at(float(tau)))) < 1e-9


def test_time_reversal_of_scattering(perturbed):
    z_in = (0.3, 3.0)
    out = scattering_map(perturbed, z_in)
    back = scattering_map(perturbed, (float(out.y[0]), -float(out.eta[0])))
    assert back.y[0] % (2.0 * math.pi) == pytest.approx(z_in[0], abs=1e-8)
    assert -back.eta[0] == pytest.approx(z_in[1], abs=1e-8)


def test_trace_from_interior_state_continues_the_orbit(halfplane):
    eta = 2.0
    traj = trace_geodesic(halfplane, (0.0, eta))
    mid = traj.state_at(0.5 * traj.tau_plus)
    tail = trace_from_state(halfplane, mid)
    assert tail.tau_plus == pytest.approx(0.5 * math.pi / eta, abs=1e-8)
    end = tail.samples[-1][1]
    assert end.y[0] == pytest.approx(2.0 / eta, abs=1e-8)


def test_flip_state_reverses_momentum(halfplane):
    p = BPhasePoint.make(0.3, [1.0], 0.5, [2.0])
    q = flip_state(p)
    assert q.xi_b == -0.5 and q.eta[0] == -2.0
    assert q.rho == p.rho and q.y[0] == p.y[0]


def test_rescaled_field_is_smooth_at_boundary(halfplane):
    # the generator must evaluate finitely at rho = 0 (the rescaled field
    # extends to the boundary), with unit boundary speed
    z = BoundaryCovector.make(0.0, 2.0)
    drho, dy, dxi, deta = barX_eval(halfplane, z.as_phase_point())
    assert math.isfinite(drho) and math.isfinite(dxi)
    assert np.all(np.isfinite(dy)) and np.all(np.isfinite(deta))
    assert drho == pytest.approx(1.0)   # d rho / d tau at entry


# ---------------------------------------------------------------------------
# scattering derivative


def test_halfplane_scattering_jacobian_closed_form(halfplane):
    eta = 2.0
    sj = scattering_jacobian(halfplane, (0.0, eta))
    want = np.array([[1.0, -2.0 / eta ** 2], [0.0, 1.0]])
    assert np.allclose(sj.matrix, want, atol=1e-7)
    assert sj.det == pytest.approx(1.0, abs=1e-8)
    assert sj.symplectic_residual < 1e-7


def test_scattering_jacobian_is_symplectic_on_curved_families(disc,
                                                              perturbed):
    for fam, z in ((disc, (0.4, 1.1)), (perturbed, (1.0, 3.0))):
        sj = scattering_jacobian(fam, z)
        assert abs(sj.det - 1.0) < 1e-6
        assert sj.symplectic_residual < 1e-5


# ---------------------------------------------------------------------------
# failure modes


def test_slow_geodesic_reports_trapping(halfplane):
    with pytest.raises(TrappedOrSlowError):
        trace_geodesic(halfplane, (0.0, 0.01), t_max=5.0)


def test_collar_exit_detected(jet_family):
    # peak height ~ 1/eta exceeds the collar for small eta
    with pytest.raises(CollarExitError):
        trace_geodesic(jet_family, (0.0, 0.5))


def test_zero_eta_never_returns(halfplane):
    # the vertical ray has no outgoing boundary point
    from ahx import FlowError
    with pytest.raises(FlowError):
        trace_geodesic(halfplane, (0.0, 0.0))


# ---------------------------------------------------------------------------
# short-geodesic size cap


def test_delta_max_is_capped(halfplane, jet_family):
    assert delta_max(halfplane, [0.0], [1.0]) == pytest.approx(0.2)
    dm = delta_max(jet_family, [1.0], [1.0])
    assert 0.0 < dm <= 0.2


"""Normal-field integration, asymptotic frames, and conjugate points.

Exact references used here:

* On the flat half-plane model the curvature is identically -1, so every
  normal field along a geodesic solves ydd - y = 0 and the hyperbolic-time
  chart of the half-circle with footprint momentum eta is

      rho(t) = sech(t) / eta,   y(t) = y0 + (1 + tanh t) / eta,
      xi_b(t) = -tanh(t),

  with t = 0 anchored at the apex.  The stable/unstable directions at the
  apex are (1, -1)/sqrt(2) and (1, 1)/sqrt(2), meeting at ninety degrees.
* The disc model has constant curvature -1 as well, so neither model family
  can produce conjugate points; the localized-bump family is tuned so that
  covectors turning inside the bump band do produce one, and that detection
  is cross-checked against a finite-difference pair of neighbouring
  geodesics that knows nothing about the scalar normal-field reduction.
"""
import json
import math

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from ahx import (
    boundary_rate_bracket,
    conjugate_points,
    curvature_decay_fit,
    decay_fit,
    diagnose_covector,
    eval_metric,
    halfplane_family,
    jacobi_solve,
    jacobi_system,
    product_family,
    simplicity_report,
    stable_unstable,
    trace_geodesic,
    wronskian,
)
from ahx import jacobi
from ahx.flow import _make_rhs
from ahx.jacobi import MAP_TOL, SOLVE_TOL

ETA_BUMP = 3.2  # turning point inside the bump band of the bump_family
CONJUGATE_TIME = 0.0055643505  # frozen detection output for (0, ETA_BUMP)


# ---------------------------------------------------------------------------
# hyperbolic-time chart against the half-plane closed form


@pytest.mark.parametrize("y0,eta", [(0.0, 1.0), (-0.5, 2.0)])
def test_halfplane_time_chart_closed_form(halfplane, y0, eta):
    traj = trace_geodesic(halfplane, (y0, eta))
    system = jacobi_system(halfplane, traj)
    # tolerance is set by the numerically located apex anchoring t = 0
    for t in (-3.0, -1.0, 0.0, 0.7, 2.5, 5.0):
        state = system.state_at_time(t)
        assert state.rho == pytest.approx(1.0 / (eta * math.cosh(t)),
                                          abs=1e-7)
        assert float(state.y[0]) == pytest.approx(
            y0 + (1.0 + math.tanh(t)) / eta, abs=1e-7)
        assert state.xi_b == pytest.approx(-math.tanh(t), abs=1e-7)
        assert float(state.eta[0]) == pytest.approx(eta, abs=1e-9)


def test_time_chart_range_is_enforced(halfplane):
    traj = trace_geodesic(halfplane, (0.0, 1.0))
    system = jacobi_system(halfplane, traj, t_range=10.0)
    with pytest.raises(ValueError):
        system.state_at_time(10.5)
    with pytest.raises(ValueError):
        jacobi_solve(system, 0.0, 1.0, (0.0, 12.0))


@pytest.mark.parametrize("family,z", [
    ("perturbed", (0.7, 2.4)), ("bump_family", (1.0, 2.2)),
    ("disc", (0.0, 1.0)), ("halfplane", (0.0, 1.0))])
def test_orbit_agrees_with_its_trace(request, family, z):
    # the orbit integrated in t from the rho peak against the trace read at
    # the flow parameter tau(t) = tau_peak + int_0^t rho dt of the orbit
    fam = request.getfixturevalue(family)
    traj = trace_geodesic(fam, z, tol=1e-12)
    system = jacobi_system(fam, traj)
    tau_peak = traj.rho_peak()[0]
    for t in np.linspace(-25.0, 25.0, 51):
        tau = tau_peak + quad(lambda s: system.state_at_time(s).rho, 0.0, t,
                              epsabs=1e-13, epsrel=1e-13, limit=200)[0]
        a = system.state_at_time(t).as_vector()
        b = traj.state_at(tau).as_vector()
        assert np.max(np.abs(a - b)) < 1e-9


def test_curvature_decay_fit_reads_only_what_the_orbit_resolves(
        perturbed, monkeypatch):
    # past rho = 1e4 MAP_TOL the orbit's absolute error would set K + 1;
    # without that floor C_fit moves 1.2% between these orbit tolerances
    traj = trace_geodesic(perturbed, (0.7, 2.6), tol=1e-10)
    fits = []
    for tol in (1e-13, 1e-12):
        monkeypatch.setattr(jacobi, "MAP_TOL", tol)
        fits.append(curvature_decay_fit(jacobi_system(perturbed, traj)))
    assert fits[1] == pytest.approx(fits[0], rel=1e-4)


def test_curvature_along_model_geodesics(halfplane, disc):
    for fam, z in [(halfplane, (0.0, 1.0)), (disc, (0.0, 1.0)),
                   (disc, (2.0, 0.7))]:
        system = jacobi_system(fam, trace_geodesic(fam, z))
        for t in (-5.0, -2.0, 0.0, 1.3, 4.0, 20.0):
            assert system.curvature(t) == pytest.approx(-1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# scalar normal-field integration


def test_halfplane_normal_field_is_sinh(halfplane):
    system = jacobi_system(halfplane, trace_geodesic(halfplane, (0.0, 1.0)))
    sol = jacobi_solve(system, 0.0, 1.0, (0.0, 8.0))
    for t in (0.5, 2.0, 5.0, 8.0):
        y, ydot = sol.at(t)
        assert y == pytest.approx(math.sinh(t), rel=1e-9)
        assert ydot == pytest.approx(math.cosh(t), rel=1e-9)
    back = jacobi_solve(system, 0.0, 1.0, (0.0, -8.0))
    assert back.at(-8.0)[0] == pytest.approx(-math.sinh(8.0), rel=1e-9)


def test_wronskian_is_constant_off_model(perturbed):
    system = jacobi_system(perturbed, trace_geodesic(perturbed, (0.5, 2.5)))
    a = jacobi_solve(system, 1.0, 0.0, (-4.0, 4.0))
    b = jacobi_solve(system, 0.0, 1.0, (-4.0, 4.0))
    w = wronskian(a, b, np.linspace(-3.5, 3.5, 29))
    assert np.max(np.abs(w - 1.0)) < 1e-8


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_integrations_match_scipy_solve_ivp_bitwise(perturbed):
    # the orbit in hyperbolic time and Jacobi fields, forward and backward,
    # against scipy's DOP853 on the same right-hand sides; step ends are
    # read on the step that ends there, as scipy's OdeSolution does
    traj = trace_geodesic(perturbed, (0.7, 2.4))
    system = jacobi_system(perturbed, traj)
    flow_rhs = _make_rhs(perturbed)

    def orbit_rhs(t, z):
        return z[0] * flow_rhs(t, z)

    z0 = traj.state_at(traj.rho_peak()[0]).as_vector()
    for sol, t_end in ((system._fwd, system.t_range),
                       (system._bwd, -system.t_range)):
        ref = solve_ivp(orbit_rhs, (0.0, t_end), z0, method="DOP853",
                        rtol=MAP_TOL, atol=MAP_TOL, dense_output=True)
        assert _same_bits(sol.ts, ref.t)
        assert _same_bits(sol.ys, ref.y.T)
        ts = np.concatenate((ref.t, np.linspace(0.0, t_end, 23)))
        assert _same_bits([sol.at(t) for t in ts], [ref.sol(t) for t in ts])

    def rhs(t, s):
        return (s[1], -system.curvature(t) * s[0])

    # the field's atol is SOLVE_TOL times the larger seed component
    for span in ((-4.0, 4.0), (3.0, -6.0), (20.0, 0.0)):
        for scale in (1.0, math.exp(-20.0)):
            y0 = [0.3 * scale, -0.7 * scale]
            sol = jacobi_solve(system, *y0, span)
            ref = solve_ivp(rhs, span, y0, method="DOP853", rtol=SOLVE_TOL,
                            atol=SOLVE_TOL * 0.7 * scale, dense_output=True)
            assert sol.ts.size > 3
            assert _same_bits(sol.ts, ref.t)
            assert _same_bits(sol.ys, ref.y.T)
            ts = np.concatenate((ref.t, np.linspace(*span, 17)))
            at = [sol.at(t) for t in ts]
            assert _same_bits(at, [ref.sol(t) for t in ts])
            assert _same_bits(sol.ys, at[:sol.ts.size])
            assert _same_bits(sol.batch(ts), at)


# ---------------------------------------------------------------------------
# conjugate points: none for the models, one for the tuned bump


def test_models_have_no_conjugate_points(halfplane, disc):
    for fam, zs in [(halfplane, [(0.0, 0.5), (0.0, 1.0), (0.0, 2.0)]),
                    (disc, [(0.0, 1.0), (2.0, 1.0), (4.0, 2.0)])]:
        for z in zs:
            system = jacobi_system(fam, trace_geodesic(fam, z))
            assert conjugate_points(system, 12.0) == []
            assert conjugate_points(system, 10.0, t0=-5.0) == []


def test_bump_conjugate_point_detection(bump_family):
    traj = trace_geodesic(bump_family, (0.0, ETA_BUMP))
    system = jacobi_system(bump_family, traj)
    times = conjugate_points(system, 18.0, t0=-6.0)
    assert len(times) == 1
    assert times[0] == pytest.approx(CONJUGATE_TIME, abs=1e-6)


def test_bump_conjugate_pair_is_symmetric(bump_family):
    # a field vanishing at the detected time must vanish again at the seed
    # base point; integrate the pair backwards to close the loop
    traj = trace_geodesic(bump_family, (0.0, ETA_BUMP))
    system = jacobi_system(bump_family, traj)
    # seed at this system's own detection: the pair check magnifies a shift
    # of the seed ~5000x, so the tolerance-level drift (~1e-8) of the frozen
    # CONJUGATE_TIME, pinned to 1e-6 by the detection test, would dominate
    t_conj = conjugate_points(system, 18.0, t0=-6.0)[0]
    sol = jacobi_solve(system, 0.0, 1.0, (t_conj, -6.0))
    y, ydot = sol.at(-6.0)
    assert abs(y) < 1e-5 * max(1.0, abs(ydot))


def test_bump_conjugate_point_against_neighbouring_traces(bump_family):
    """Cross-check the detection with a two-trace finite-difference pair.

    Two independent variation fields are built by retracing the geodesic
    with the footprint point and the footprint momentum nudged separately,
    projecting the state differences onto the unit normal of the base
    geodesic.  The pair determinant pinned at the base time t0 vanishes
    exactly at times conjugate to t0, with no reference to the scalar
    reduction used by the library.
    """
    fam = bump_family
    eps = 1e-6
    base = trace_geodesic(fam, (0.0, ETA_BUMP), tol=1e-12)
    sys0 = jacobi_system(fam, base)
    variations = []
    for z in [(eps, ETA_BUMP), (0.0, ETA_BUMP + eps)]:
        pert = trace_geodesic(fam, z, tol=1e-12)
        variations.append(jacobi_system(fam, pert))

    def normal_component(system_pert, t):
        a = sys0.state_at_time(t)
        b = system_pert.state_at_time(t)
        drho = (b.rho - a.rho) / eps
        dy = (float(b.y[0]) - float(a.y[0])) / eps
        sh = math.sqrt(eval_metric(fam, a.rho, a.y).h_mat[0, 0])
        return (-float(a.eta[0]) * drho / sh
                + sh * a.xi_b * dy / a.rho)

    t0 = -6.0
    f0 = normal_component(variations[0], t0)
    g0 = normal_component(variations[1], t0)

    def pinned_det(t):
        return (normal_component(variations[0], t) * g0
                - normal_component(variations[1], t) * f0)

    lo, hi = CONJUGATE_TIME - 0.1, CONJUGATE_TIME + 0.1
    assert pinned_det(lo) * pinned_det(hi) < 0.0
    t_star = brentq(pinned_det, lo, hi, xtol=1e-12)
    assert t_star == pytest.approx(CONJUGATE_TIME, abs=1e-5)


# ---------------------------------------------------------------------------
# stable/unstable frames and decay fits


def test_halfplane_frame_is_exact(halfplane):
    system = jacobi_system(halfplane, trace_geodesic(halfplane, (0.0, 1.0)))
    frame = stable_unstable(system)
    assert frame.angle_deg == pytest.approx(90.0, abs=1e-6)
    assert abs(frame.det0) == pytest.approx(1.0, abs=1e-9)
    # stable ~ (1, -1)/sqrt(2): equal weight, opposite signs
    assert frame.stable[0] * frame.stable[1] < 0.0
    assert frame.stable[0] ** 2 == pytest.approx(0.5, abs=1e-9)
    assert frame.unstable[0] * frame.unstable[1] > 0.0
    fit = decay_fit(frame)
    assert fit.nu == pytest.approx(1.0, abs=1e-9)
    assert fit.growth_const <= 1.0 + 1e-9


def test_frame_insensitive_to_seeding_time(perturbed):
    traj = trace_geodesic(perturbed, (0.7, 2.4))
    system = jacobi_system(perturbed, traj)
    f25 = stable_unstable(system, T_asym=25.0)
    f30 = stable_unstable(system, T_asym=30.0)
    assert np.max(np.abs(f25.stable - f30.stable)) < 1e-8
    assert np.max(np.abs(f25.unstable - f30.unstable)) < 1e-8
    assert f25.angle_deg == pytest.approx(f30.angle_deg, abs=1e-8)


def test_frame_rejects_unsettled_seeding_time(perturbed):
    traj = trace_geodesic(perturbed, (0.7, 2.4))
    system = jacobi_system(perturbed, traj)
    with pytest.raises(ValueError):
        stable_unstable(system, T_asym=10.0)


def test_curvature_decay_constants(halfplane, perturbed):
    sys_flat = jacobi_system(halfplane, trace_geodesic(halfplane, (0.0, 1.0)))
    assert curvature_decay_fit(sys_flat) == 0.0
    sys_pert = jacobi_system(perturbed, trace_geodesic(perturbed, (0.7, 2.4)))
    c = curvature_decay_fit(sys_pert)
    assert 0.0 < c < 50.0


def test_boundary_rate_bracket(halfplane, perturbed):
    rb = boundary_rate_bracket(trace_geodesic(halfplane, (0.0, 1.0)))
    # half-plane ratio is (1 + e^{-2 t1}) / (1 + e^{-2 t2}) with entry at
    # rho = 0.25, so the upper constant sits just above 1
    assert 1.0 <= rb.c_upper <= 1.02
    assert rb.lower_margin >= 1.0 - 1e-9
    rb = boundary_rate_bracket(trace_geodesic(perturbed, (0.7, 2.4)))
    assert 1.0 - 1e-9 <= rb.lower_margin <= rb.c_upper <= 1.5


# ---------------------------------------------------------------------------
# the family check and the rank restriction


def test_family_must_be_the_trajectorys(halfplane, bump_family):
    # curvature read from another family is wrong: the bump family gives
    # 22.46 at this orbit's apex, where the half-plane's is -1
    traj = trace_geodesic(halfplane, (0.0, 2.5))
    with pytest.raises(ValueError, match="trajectory's family"):
        jacobi_system(bump_family, traj)
    # an equal family built anew is the same family
    system = jacobi_system(halfplane_family(), traj)
    assert system.curvature(0.0) == pytest.approx(-1.0, abs=1e-12)


def test_scalar_bookkeeping_rejects_two_factor_family():
    fam2 = product_family(halfplane_family(), halfplane_family())
    traj = trace_geodesic(fam2, ([0.0, 0.0], [1.0, 1.0]))
    with pytest.raises(NotImplementedError):
        jacobi_system(fam2, traj)


# ---------------------------------------------------------------------------
# aggregate sweep


def test_simplicity_sweep_regression(perturbed):
    report = simplicity_report([diagnose_covector(perturbed, z)
                                for z in [(0.0, 2.2), (0.0, 3.0),
                                          (2.0, 2.2), (2.0, 3.0)]])
    assert report.n_geodesics == 4
    assert report.trace_failures == 0
    assert report.conjugate_count == 0
    assert report.min_angle_deg > 85.0
    assert report.nu_fit == pytest.approx(1.0, abs=5e-3)
    assert 0.0 < report.C_fit < 50.0
    payload = json.loads(report.to_json())
    assert payload["conjugate_count"] == 0
    assert payload["n_geodesics"] == 4

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
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from ahx import (
    boundary_rate_bracket,
    conjugate_points,
    curvature_decay_fit,
    decay_fit,
    diagnose_covector,
    eval_metric,
    gauss_curvature,
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
from ahx.flow import _make_rhs, _project_vec, _split_vec
from ahx.jacobi import MAP_TOL, AsymptoteError
from ahx.quadrature import panel_gauss


def orbit_state(system, t):
    """The orbit's state at hyperbolic time t, projected onto the cosphere."""
    z = system._states(np.array([t]))[0]
    return _split_vec(1, _project_vec(system.fam, z, 1))


def curvature(system, t):
    """K at the orbit's state at hyperbolic time t."""
    z = system._states(np.array([t]))
    return float(gauss_curvature(system.fam, z[:, 0], z[:, 1])[0])


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
        state = orbit_state(system, t)
        assert state.rho == pytest.approx(1.0 / (eta * math.cosh(t)),
                                          abs=1e-7)
        assert float(state.y[0]) == pytest.approx(
            y0 + (1.0 + math.tanh(t)) / eta, abs=1e-7)
        assert state.xi_b == pytest.approx(-math.tanh(t), abs=1e-7)
        assert float(state.eta[0]) == pytest.approx(eta, abs=1e-9)


@pytest.mark.parametrize("eta", [1.0, 2.0])
def test_halfplane_tails_follow_the_closed_form_out_to_t_30(halfplane, eta):
    # rho is read from w = |t| + log rho, so it keeps its relative accuracy
    # as it falls like e^-|t|; integrated in t it lost three digits by 30
    system = jacobi_system(halfplane, trace_geodesic(halfplane, (0.0, eta)))
    ts = np.linspace(-30.0, 30.0, 601)
    rho = system._states(ts)[:, 0]
    assert np.max(np.abs(rho * eta * np.cosh(ts) - 1.0)) < 1e-10


@pytest.mark.parametrize("t_range", [math.inf, math.nan, 0.0, -1.0])
def test_t_range_must_be_finite_and_positive(halfplane, monkeypatch,
                                             t_range):
    traj = trace_geodesic(halfplane, (0.0, 1.0))

    def no_integration(*args, **kwargs):
        raise AssertionError("integrated before checking t_range")

    monkeypatch.setattr(jacobi, "_integrate", no_integration)
    with pytest.raises(ValueError, match="t_range"):
        jacobi_system(halfplane, traj, t_range=t_range)


def test_time_chart_range_is_enforced(halfplane):
    traj = trace_geodesic(halfplane, (0.0, 1.0))
    system = jacobi_system(halfplane, traj, t_range=10.0)
    with pytest.raises(ValueError):
        orbit_state(system, 10.5)
    with pytest.raises(ValueError):
        jacobi_solve(system, 0.0, 1.0, (0.0, 12.0))


def _nan_wronskian(system):
    a, b = (jacobi_solve(system, *y0, (0.0, 1.0))
            for y0 in ((1.0, 0.0), (0.0, 1.0)))
    return wronskian(a, b, [math.nan, 1.0])


@pytest.mark.parametrize("call", [
    lambda system: jacobi_solve(system, 0.0, 1.0, (0.0, math.nan)),
    lambda system: curvature(system, math.nan),
    lambda system: conjugate_points(system, 5.0, t0=math.nan),
    _nan_wronskian,
], ids=["jacobi_solve", "curvature", "conjugate_points", "wronskian"])
def test_a_time_that_is_not_a_number_is_refused(halfplane, call):
    # NaN fails every comparison with the range's ends, so the range check
    # asks that |t| lie within it rather than that it not exceed it
    system = jacobi_system(halfplane, trace_geodesic(halfplane, (0.0, 1.0)))
    with pytest.raises(ValueError, match="outside the mapped range") as err:
        call(system)
    assert not isinstance(err.value, AsymptoteError)


@pytest.mark.parametrize("family,z", [
    ("perturbed", (0.7, 2.4)), ("bump_family", (1.0, 2.2)),
    ("disc", (0.0, 1.0)), ("halfplane", (0.0, 1.0))])
def test_orbit_agrees_with_its_trace(request, family, z):
    # the orbit read at hyperbolic times t against the trace read at the
    # flow parameter tau(t) = tau_peak + int_0^t rho dt of the orbit, by an
    # 8-point Gauss rule on each interval between the times and the grid's
    # nodes (where rho crosses a break and may lose smoothness), from one
    # read of the orbit
    fam = request.getfixturevalue(family)
    traj = trace_geodesic(fam, z, tol=1e-12)
    system = jacobi_system(fam, traj)
    ts = np.linspace(-25.0, 25.0, 51)
    cuts = np.union1d(ts, system._nodes[np.abs(system._nodes) < 25.0])
    nodes, weights = panel_gauss(cuts[:-1], cuts[1:], 8)
    rho = system._states(nodes.ravel())[:, 0].reshape(nodes.shape)
    tau = np.concatenate(([0.0], np.cumsum(np.sum(weights * rho, axis=1))))
    tau += traj.rho_peak()[0] - tau[np.searchsorted(cuts, 0.0)]
    for t, tau_t in zip(ts, tau[np.searchsorted(cuts, ts)]):
        a = orbit_state(system, t).as_vector()
        b = traj.state_at(tau_t).as_vector()
        assert np.max(np.abs(a - b)) < 1e-9


def test_curvature_decay_fit_reads_only_what_the_orbit_resolves(
        perturbed, monkeypatch):
    # the orbit holds rho to its relative precision, and below the floor
    # rho = 1e4 MAP_TOL the rounding of K, times e^|t|, would set K + 1
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
            assert curvature(system, t) == pytest.approx(-1.0, abs=1e-9)


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
    # each side of the orbit against scipy's DOP853 on the same right-hand
    # side, the flow's and w = |t| + log rho, run in tau from the apex until
    # rho <= 0: the dense output at the step ends, where a step end is read
    # on the step that ends there, as scipy's OdeSolution does, and between
    # them; then the system's reader at times out to t_range, whose state
    # is the dense output at the tau it found and whose rho lies at its t
    traj = trace_geodesic(perturbed, (0.7, 2.4))
    system = jacobi_system(perturbed, traj)
    flow_rhs = _make_rhs(perturbed)

    def reached_boundary(tau, x):
        return x[0]

    reached_boundary.terminal = True
    z0 = traj.state_at(traj.rho_peak()[0]).as_vector()
    for side in system._sides:
        sign = side.sign

        def orbit_rhs(tau, x):
            f = flow_rhs(tau, x[:4])
            return np.append(f, sign * x[3] * f[1] / (1.0 - sign * f[0]))

        ref = solve_ivp(orbit_rhs, (0.0, sign * math.inf),
                        np.append(z0, math.log(z0[0])), method="DOP853",
                        rtol=MAP_TOL, atol=MAP_TOL, dense_output=True,
                        events=reached_boundary)
        sol = side.sol
        assert ref.status == 1 and sol.y_end[0] <= 0.0
        assert sol.ts.size > 3 and _same_bits(sol.ts[:-1], ref.t[:-1])
        taus = np.concatenate((sol.ts[:-1], np.linspace(0.0, ref.t[-1], 23)))
        assert _same_bits(sol.batch(taus), [ref.sol(tau) for tau in taus])
        tt = np.concatenate((side.t[side.t < system.t_range],
                             np.linspace(0.0, system.t_range, 23)))
        tau = side.taus(tt)
        z = system._states(sign * tt)
        want = np.array([ref.sol(s) for s in tau])
        assert _same_bits(z[:, 1:], want[:, 1:4])
        assert np.max(np.abs(want[:, 4] - np.log(z[:, 0]) - tt)) < 1e-13


def _dense(runs):
    """Reader at one t of dense outputs [(start, OdeSolution)], each from
    its start to the next one's."""
    runs = sorted(runs, key=lambda run: run[0])
    starts = [lo for lo, _ in runs]
    return lambda t: runs[max(np.searchsorted(starts, t) - 1, 0)][1](t)


def _orbit_in_t(fam, apex, t_max):
    """The orbit state x = [rho, y, xi_b, eta] from the apex out to t =
    -t_max and to t_max, dx/dt = rho f(x) in hyperbolic time t with f the
    flow, by scipy's DOP853; rho has an atol of its own, far below
    e^-t_max, so that it keeps its relative precision.  The rtol, 3e-14,
    sits near scipy's floor: at 1e-13 this orbit's own error put the frame
    fields of bump (1.0, 2.2) 1.6e-11 from the library's, above their
    bound, and at 3e-14 2.2e-12.  Each crossing of a level of
    ``fam.breaks``, where K has a corner, ends a run and starts the next.
    Returns a reader of the orbit and the crossing times.
    """
    flow_rhs = _make_rhs(fam)
    runs, cuts = [], []
    for t_end in (-t_max, t_max):
        t0, x0 = 0.0, apex
        # rho falls on each side, and crosses each level below the apex once
        levels = [level for level in fam.breaks if level < apex[0]]
        while True:
            events = []
            for level in levels:
                def cross(t, x, level=level):
                    return x[0] - level
                cross.terminal = True
                events.append(cross)
            ref = solve_ivp(lambda t, x: x[0] * flow_rhs(t, x), (t0, t_end),
                            x0, method="DOP853", rtol=3e-14,
                            atol=[1e-30, 1e-13, 1e-13, 1e-13],
                            dense_output=True, events=events or None)
            runs.append((min(t0, ref.t[-1]), ref.sol))
            t0, x0 = ref.t[-1], ref.y[:, -1]
            if ref.status == 0:
                break
            cuts.append(t0)
            del levels[next(k for k, te in enumerate(ref.t_events)
                            if te.size)]
    return _dense(runs), cuts


def _field_in_t(fam, orbit, cuts, span, y0):
    """[y, ydot] of ydd + K y = 0 over span, with K from ``gauss_curvature``
    at the orbit's state, by scipy's DOP853 at rtol 1e-13 and an atol
    scaled to the seed, restarted at each crossing time inside the span.
    Returns the end value and a reader of the field."""
    def rhs(t, s):
        return (s[1], -gauss_curvature(fam, *orbit(t)[:2]) * s[0])

    a, b = span
    inner = sorted((c for c in cuts if min(a, b) < c < max(a, b)),
                   reverse=b < a)
    runs, end = [], y0
    for t0, t1 in zip([a] + inner, inner + [b]):
        ref = solve_ivp(rhs, (t0, t1), end, method="DOP853", rtol=1e-13,
                        atol=1e-13 * max(map(abs, y0)), dense_output=True)
        runs.append((min(t0, t1), ref.sol))
        end = ref.y[:, -1]
    return end, _dense(runs)


# the perturbed covector and four bump covectors: the first bump orbit
# crosses both edges rho_lo = 0.3 and rho_hi = 0.45, the second rho_lo
# only, the third turns below the bump, and the fourth turns above it, at
# rho 0.667, and meets the band only on the way out
@pytest.mark.parametrize("family,z", [
    ("perturbed", (0.7, 2.4)), ("bump_family", (1.0, 2.2)),
    ("bump_family", (3.0, 3.2)), ("bump_family", (5.0, 4.2)),
    ("bump_family", (1.0, 1.5))])
def test_jacobi_fields_match_solve_ivp(request, family, z):
    # the transfer-matrix fields of stable_unstable, and fields over spans
    # that start and end inside pieces, either way in t and from a seed of
    # size e^-20, against ydd + K y = 0 solved by scipy's DOP853 on an orbit
    # that scipy's DOP853 integrates in t, outward from the trace's apex,
    # both restarted at each break crossing.  The orbit runs outward only:
    # run back inward from |t| = 25, its rounding grows like e^|t|
    fam = request.getfixturevalue(family)
    traj = trace_geodesic(fam, z, tol=1e-10)
    system = jacobi_system(fam, traj)
    frame = stable_unstable(system)
    T = frame.T_asym
    scale, small = math.exp(-T), math.exp(-20.0)
    seed = [0.3 * small, -0.7 * small]
    cases = [(frame.stable_sol, (T, 0.0), [scale, -scale]),
             (frame.unstable_sol, (-T, 0.0), [scale, scale])]
    cases += [(jacobi_solve(system, *seed, span), span, seed)
              for span in ((-4.0, 4.0), (3.0, -6.0))]
    orbit, cuts = _orbit_in_t(
        fam, traj.state_at(traj.rho_peak()[0]).as_vector(), T)

    for field, span, y0 in cases:
        end, read = _field_in_t(fam, orbit, cuts, span, y0)
        assert np.max(np.abs(np.array(field.at(span[1])) - end)) \
            < 1e-11 * np.max(np.abs(end))
        ts = np.linspace(*span, 19)[1:-1]
        at = [field.at(t) for t in ts]
        assert _same_bits(at, field.batch(ts))
        want = np.array([read(t) for t in ts])
        assert np.max(np.abs(np.array(at) - want)
                      / np.max(np.abs(want), axis=1)[:, None]) < 1e-10


def test_grid_cuts_the_orbit_at_the_familys_breaks(bump_family):
    # K has a corner where rho crosses a bump edge; the grid has a node at
    # every crossing, located here on a dense sampling of the orbit.  Both
    # orbits cross both edges on each side: the first peaks at rho 0.4545,
    # just above rho_hi = 0.45, and the second at 0.667
    for z in ((1.0, 2.2), (1.0, 1.5)):
        system = jacobi_system(bump_family,
                               trace_geodesic(bump_family, z, tol=1e-10))
        nodes = system._nodes

        def rho(t):
            return system._states(np.array([t]))[0, 0]

        found = 0
        for sign in (1.0, -1.0):
            ts = sign * np.linspace(0.0, system.t_range, 20001)
            for level in bump_family.breaks:
                d = system._states(ts)[:, 0] - level
                for i in np.flatnonzero(d[:-1] * d[1:] < 0.0):
                    t_cross = brentq(lambda t: rho(t) - level,
                                     ts[i], ts[i + 1], xtol=1e-15)
                    node = nodes[np.argmin(np.abs(nodes - t_cross))]
                    assert abs(node - t_cross) < 1e-12
                    assert abs(rho(node) - level) < 1e-12
                    found += 1
        assert found == 4


# ---------------------------------------------------------------------------
# conjugate points: none for the models, one for the tuned bump


def test_models_have_no_conjugate_points(halfplane, disc):
    for fam, zs in [(halfplane, [(0.0, 0.5), (0.0, 1.0), (0.0, 2.0)]),
                    (disc, [(0.0, 1.0), (2.0, 1.0), (4.0, 2.0)])]:
        for z in zs:
            system = jacobi_system(fam, trace_geodesic(fam, z))
            assert conjugate_points(system, 12.0) == []
            assert conjugate_points(system, 10.0, t0=-5.0) == []


def test_conjugate_scan_never_reports_its_base_point(halfplane):
    system = jacobi_system(halfplane, trace_geodesic(halfplane, (0.0, 1.0)))
    assert conjugate_points(system, 0.0) == []
    assert conjugate_points(system, 0.0, t0=-3.0) == []


@pytest.mark.parametrize("t_max", [-1.0, math.nan])
def test_conjugate_scan_rejects_a_negative_span(halfplane, t_max):
    system = jacobi_system(halfplane, trace_geodesic(halfplane, (0.0, 1.0)))
    with pytest.raises(ValueError, match="t_max"):
        conjugate_points(system, t_max)


@pytest.mark.parametrize("T_asym", [-5.0, 0.0, math.nan, math.inf])
def test_frame_rejects_a_seeding_time_that_is_not_positive(halfplane,
                                                           T_asym):
    system = jacobi_system(halfplane, trace_geodesic(halfplane, (0.0, 1.0)))
    with pytest.raises(AsymptoteError, match="finite and positive"):
        stable_unstable(system, T_asym=T_asym)


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
        a = orbit_state(sys0, t)
        b = orbit_state(system_pert, t)
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
    system = jacobi_system(halfplane, trace_geodesic(halfplane, (0.0, 1.0)))
    rb = boundary_rate_bracket(system)
    # half-plane ratio is (1 + e^{-2 t1}) / (1 + e^{-2 t2}) with entry at
    # rho = 0.25, so the upper constant sits just above 1
    assert 1.0 <= rb.c_upper <= 1.02
    assert rb.lower_margin >= 1.0 - 1e-9
    system = jacobi_system(perturbed, trace_geodesic(perturbed, (0.7, 2.4)))
    rb = boundary_rate_bracket(system)
    assert 1.0 - 1e-9 <= rb.lower_margin <= rb.c_upper <= 1.5


@pytest.mark.parametrize("eta", [1.0, 2.0, 100.0])
def test_boundary_rate_bracket_closed_form(halfplane, eta):
    # on the half-plane w = |t| + log rho = log(2 / eta) - log(1 +
    # e^{-2|t|}) rises with |t|, so over the window from the entry time t1,
    # cosh t1 = rho_peak / rho_enter, out to t_range the largest ratio is
    # its two ends' and the smallest is 1; at eta 100 (rho_peak 0.01) the
    # window lies wholly below rho = 0.012, where a bracket sampled from
    # the trace had no samples
    system = jacobi_system(halfplane, trace_geodesic(halfplane, (0.0, eta)))
    rb = boundary_rate_bracket(system)
    rho_peak = 1.0 / eta
    t1 = math.acosh(rho_peak / min(0.25, 0.5 * rho_peak))
    want = (1.0 + math.exp(-2.0 * t1)) \
        / (1.0 + math.exp(-2.0 * system.t_range))
    assert abs(rb.c_upper - want) < 1e-11
    assert rb.lower_margin >= 1.0 - 1e-12


def test_boundary_rate_bracket_needs_the_window_inside_t_range(halfplane):
    # rho = sech(t) falls to rho_enter = 0.25 at |t| = acosh 4 = 2.06
    system = jacobi_system(halfplane, trace_geodesic(halfplane, (0.0, 1.0)),
                           t_range=1.0)
    with pytest.raises(ValueError, match="inside"):
        boundary_rate_bracket(system)


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
    assert curvature(system, 0.0) == pytest.approx(-1.0, abs=1e-12)


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

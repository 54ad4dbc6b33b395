"""Geodesic flow: exact half-plane/disc oracles, invariants, error modes."""
import itertools
import math
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import DOP853

from ahx import (BPhasePoint, CollarExitError, FlowError,
                 SymmetricTensorField, TrappedOrSlowError, delta_max,
                 eval_metric, flip_state, product_family,
                 radial_power_family, scattering_jacobian, scattering_map,
                 trace_from_state, trace_geodesic, xray_transform)
from ahx import flow
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
        p = traj.state_at(float(tau))
        e2 = fam.eta_normsq(p.rho, p.y, p.eta)
        assert abs(p.xi_b ** 2 + p.rho ** 2 * e2 - 1.0) < 1e-9


def _project_reference(fam, s, n):
    """The cosphere projection in its numpy form: numpy scalars and a
    slice product, always a copy unless the norm is not positive."""
    vals = [prof(s[0], s[1 + k]) for k, prof in enumerate(fam.profiles)]
    rho, xi, eta = s[0], s[1 + n], s[2 + n:2 + 2 * n]
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


def test_projection_on_floats_matches_its_numpy_form(disc, halfplane,
                                                     perturbed, bump_family):
    # seeded states with 0, 1 and 2 tangent columns, among them eta = 0,
    # xi_b = eta = 0 (norm 0) and states on the cosphere to the bit: the
    # float projection gives the numpy form's bits, never writes into its
    # input, and returns the input itself exactly when it moves nothing
    rng = np.random.default_rng(35)
    kept = 0
    for fam in (disc, perturbed, bump_family,
                product_family(halfplane, halfplane)):
        n = fam.n
        m = 2 * n + 2
        for cols, i in itertools.product(range(3), range(30)):
            s = rng.uniform(-1.0, 1.0, m * (1 + cols))
            s[0] = rng.uniform(0.0, 0.95 * min(fam.rho_max, 1.5))
            s[1:1 + n] = rng.uniform(0.0, 2.0 * math.pi, n)
            s[2 + n:m] *= 4.0
            if i == 0:
                s[2 + n:m] = 0.0
            elif i == 1:
                s[1 + n:m] = 0.0
            elif i == 2:
                s[0], s[1 + n] = 0.0, -1.0
            for state in (s, _project_reference(fam, s, n)):
                before = state.copy()
                want = _project_reference(fam, state, n)
                got = flow._project_vec(fam, state, n)
                assert got.tobytes() == want.tobytes()
                assert state.tobytes() == before.tobytes()
                assert (got is state) == (want.tobytes() == state.tobytes())
                kept += got is state
    # at least the norm-0 state, the state on the cosphere and their
    # projections, for each family and number of columns
    assert kept >= 4 * 4 * 3


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
    entry = BPhasePoint.make(0.0, [0.0], 1.0, [2.0])
    drho, dy, dxi, deta = barX_eval(halfplane, entry)
    assert math.isfinite(drho) and math.isfinite(dxi)
    assert np.all(np.isfinite(dy)) and np.all(np.isfinite(deta))
    assert drho == pytest.approx(1.0)   # d rho / d tau at entry


# ---------------------------------------------------------------------------
# scattering derivative


def test_halfplane_scattering_jacobian_closed_form(halfplane):
    for eta in (0.5, 1.0, 2.0, -3.0):
        sj = scattering_jacobian(halfplane, (0.3, eta))
        want = np.array([[1.0, -2.0 / eta ** 2], [0.0, 1.0]])
        assert np.allclose(sj.matrix, want, rtol=0.0, atol=1e-11)
        assert sj.det == pytest.approx(1.0, abs=1e-11)
        assert sj.symplectic_residual < 1e-11


@pytest.fixture(scope="module")
def product(disc, perturbed):
    return product_family(disc, perturbed)


@pytest.fixture(scope="module")
def radial_power():
    return radial_power_family(0.1, 4)


# the bump family is the bench's; (1.0, 2.2) crosses its band; the product
# family (n = 2) carries four tangent columns
CURVED_COVECTORS = [("disc", (0.4, 1.1)), ("perturbed", (1.0, 3.0)),
                    ("perturbed", (0.7, -2.4)), ("bump_family", (1.0, 2.2)),
                    ("product", ([0.3, 1.0], [2.5, 2.0]))]


def test_scattering_jacobian_is_symplectic_on_curved_families(request):
    for name, z in CURVED_COVECTORS:
        fam = request.getfixturevalue(name)
        sj = scattering_jacobian(fam, z)
        assert abs(sj.det - 1.0) < 1e-10
        assert sj.symplectic_residual < 1e-10


@pytest.mark.parametrize("name, z", CURVED_COVECTORS)
def test_tangent_matches_central_differences_of_plain_traces(request, name,
                                                             z):
    # plain traces at tol 1e-13, differenced with steps 1e-5 |x|; their
    # noise sets the bound (measured 3.7e-7 on the bump covector, 5e-11
    # elsewhere)
    fam = request.getfixturevalue(name)
    n = fam.n

    def out(x):
        end = trace_geodesic(fam, (x[:n], x[n:]), tol=1e-13).end
        return np.concatenate((end.y, end.eta))

    x = np.hstack(z).astype(float)
    fd = flow._central_diff(out, x, 1e-5 * np.maximum(1.0, np.abs(x)))
    got = scattering_jacobian(fam, z).matrix
    assert np.max(np.abs(got - fd)) <= 1e-6 * np.max(np.abs(fd))


@pytest.mark.parametrize("name", ["disc", "halfplane", "perturbed",
                                  "bump_family", "radial_power", "product"])
def test_tangent_rhs_is_the_jacobian_of_the_flow_rhs(request, name):
    # the flow RHS on a state followed by columns: the state part is its
    # value on the bare state bit for bit, and J T matches central
    # differences of that value, column by column, at seeded states off
    # the cosphere
    fam = request.getfixturevalue(name)
    n, m = fam.n, 2 * fam.n + 2
    rhs = flow._make_rhs(fam)
    rng = np.random.default_rng(3)
    for rho in (0.05, 0.33, 0.42):
        s = np.concatenate(([rho], rng.uniform(0.0, 6.0, n),
                            rng.uniform(-1.0, 1.0, 1 + n)))
        cols = rng.normal(size=(2, m))
        out = rhs(0.0, np.concatenate((s, cols.ravel())))
        assert out.shape == (3 * m,)
        assert out[:m].tobytes() == rhs(0.0, s).tobytes()
        for col, got in zip(cols, out[m:].reshape(2, m)):
            e = 1e-6
            want = (rhs(0.0, s + e * col) - rhs(0.0, s - e * col)) / (2 * e)
            assert np.allclose(got, want, rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("name, z", [("disc", (0.4, 1.1)),
                                     ("perturbed", (1.0, 3.0)),
                                     ("perturbed", (0.7, -2.4)),
                                     ("halfplane", (0.3, 1.5)),
                                     ("halfplane", (-1.0, -0.8))])
def test_eta_columns_are_the_eta_block_of_the_full_tangent(request, name, z):
    # the n columns d/d(eta_in) alone, as boundary-distance shooting
    # carries them, give the eta block of the 2n-column tangent
    fam = request.getfixturevalue(name)
    full = flow._trace_tangent(fam, z, flow.DEFAULT_TOL)
    eta = flow._trace_tangent(fam, z, flow.DEFAULT_TOL, eta_only=True)
    assert eta.tangent.shape == (2, 1)
    assert np.max(np.abs(eta.tangent - full.tangent[:, 1:])) <= 1e-9
    if name == "halfplane":
        # y_out = y + 2/eta and eta_out = eta
        assert eta.tangent[0, 0] == pytest.approx(-2.0 / z[1] ** 2,
                                                  abs=1e-9)
        assert eta.tangent[1, 0] == pytest.approx(1.0, abs=1e-9)


def test_tangent_trace_follows_the_plain_geodesic(disc):
    # the base covector of a tangent trace is that of a plain trace up to
    # the tolerance, and a plain trace carries no tangent
    plain = trace_geodesic(disc, (0.4, 1.1))
    tangent = flow._trace_tangent(disc, (0.4, 1.1), flow.DEFAULT_TOL)
    assert plain.tangent is None and tangent.tangent.shape == (2, 2)
    assert np.allclose(tangent.end.as_vector(), plain.end.as_vector(),
                       rtol=0.0, atol=1e-11)
    assert tangent.tau_plus == pytest.approx(plain.tau_plus, abs=1e-11)


# ---------------------------------------------------------------------------
# DOP853 stepper against scipy's


class _CountingDOP853(DOP853):
    """scipy's DOP853, counting the attempts its error norm accepts (< 1)
    and rejects."""

    n_accepted = 0
    n_rejected = 0

    def _estimate_error_norm(self, K, h, scale):
        norm = super()._estimate_error_norm(K, h, scale)
        if norm < 1:
            self.n_accepted += 1
        else:
            self.n_rejected += 1
        return norm


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _step_side_by_side(fam, t0, s0, t_bound, tol, atol=None):
    """Step flow._Dop853 and scipy's DOP853 from the same state until rho
    turns negative or t_bound is reached (:func:`_lockstep`).  ``tol`` is
    the rtol, and the atol too unless ``atol`` is given."""
    rhs = flow._make_rhs(fam)
    atol = tol if atol is None else atol
    ours = flow._Dop853(rhs, t0, s0, t_bound, tol, atol)
    ref = _CountingDOP853(rhs, t0, s0, t_bound=t_bound, rtol=tol, atol=atol)
    assert ours.nfev == ref.nfev
    return _lockstep(fam, ours, ref)


def _lockstep(fam, ours, ref):
    """Step ours and scipy's ref from the same state until rho turns
    negative or t_bound is reached, projecting both after each step as the
    tracing driver does; assert every step and dense value equal, and the
    counters' increments."""
    rhs = flow._make_rhs(fam)
    n = fam.n
    assert ours.t == ref.t and ours.t_bound == ref.t_bound
    assert _same_bits(ours.y, ref.y) and _same_bits(ours.f, ref.f)
    assert ours.h_abs == ref.h_abs

    def counters(s):
        return np.array([s.nfev, s.n_accepted, s.n_rejected])

    base_ours, base_ref = counters(ours), counters(ref)
    fractions = np.array([0.0, 0.1, 0.37, 0.5, 0.93, 1.0])
    while True:
        st = ours.step()
        ref.step()
        dense = ref.dense_output()
        assert ours.t == ref.t and _same_bits(ours.y, ref.y)
        assert (counters(ours) - base_ours
                == counters(ref) - base_ref).all()
        assert (st.t_old, st.t, st.h) == (dense.t_old, dense.t, dense.h)
        taus = st.t_old + st.h * fractions
        want = dense(taus).T
        x = (taus - st.t_old) / st.h
        assert _same_bits(flow._horner(st.F, st.y_old, x[:, None]), want)
        for xi, row in zip(x.tolist(), want):
            assert _same_bits([flow._horner(f, y0, xi) for f, y0
                               in zip(st.F.T.tolist(), st.y_old.tolist())],
                              row)
        if ours.y[0] < 0.0 or ours.direction * (ours.t - ours.t_bound) >= 0:
            return ours
        proj = flow._project_vec(fam, ours.y, n)
        ours.y = ref.y = proj
        ours.f = ref.f = rhs(ours.t, proj)


def _with_columns(s0, wrt):
    """s0 followed by the unit tangent columns d/d(s0[k]) for k in wrt."""
    cols = np.zeros((len(wrt), s0.size))
    cols[np.arange(len(wrt)), wrt] = 1.0
    return np.concatenate((s0, cols.ravel()))


@pytest.mark.parametrize("tol", [1e-8, 1e-12])
def test_stepper_matches_scipy_dop853(disc, halfplane, perturbed, tol):
    # bare states, and the 4 + 4k states (k = 1, 2) of the tangent traces:
    # the column d/d(eta_in) of the distance shooting and the columns
    # d/d(y_in, eta_in) of the scattering Jacobian, since BLAS may take
    # another kernel at another size
    for (fam, (y, eta)), wrt in itertools.product(
            ((disc, (0.3, 1.1)), (halfplane, (0.0, -0.7)),
             (perturbed, (1.0, 3.0))), ((), (3,), (1, 3))):
        s0 = _with_columns(np.array([0.0, y, 1.0, eta]), wrt)
        ours = _step_side_by_side(fam, 0.0, s0, math.inf, tol)
        assert ours.n_accepted > 5 and ours.y[0] < 0.0
        # the arrival retake: the stepper rewound to the start of its last
        # step takes the steps of a fresh scipy stepper whose first try is
        # the whole distance to t_end, and saves that stepper's first RHS
        # call
        t_lo, y_lo, t_end = ours.t_old, ours.y_old, 0.5 * (ours.t_old + ours.t)
        nfev = ours.nfev
        ours.rewind(t_end)
        assert ours.nfev == nfev
        ref = _CountingDOP853(flow._make_rhs(fam), t_lo, y_lo, t_bound=t_end,
                              rtol=tol, atol=tol, first_step=t_end - t_lo)
        _lockstep(fam, ours, ref)
        assert ours.t == t_end


@pytest.mark.parametrize("tol", [1e-8, 1e-12])
def test_stepper_matches_scipy_dop853_backward_and_split_tolerances(
        disc, halfplane, perturbed, tol):
    # backward spans (t_bound < t0) and rtol != atol, as the Jacobi layer
    # integrates them
    for fam, (y, eta) in ((disc, (0.3, 1.1)), (halfplane, (0.0, -0.7)),
                          (perturbed, (1.0, 3.0))):
        traj = trace_geodesic(fam, (y, eta), tol=tol)
        tau0 = 0.8 * traj.tau_plus
        s0 = traj.eval_raw(tau0)
        # back to the incoming boundary, where rho turns negative
        ours = _step_side_by_side(fam, tau0, s0, -math.inf, tol)
        assert ours.direction == -1.0
        assert ours.n_accepted > 2 and ours.y[0] < 0.0
        # a backward span that ends at t_bound, atol far below rtol
        t_end = 0.3 * traj.tau_plus
        last = _step_side_by_side(fam, tau0, s0, t_end, tol,
                                  atol=tol * math.exp(-25.0))
        assert last.t == t_end and last.n_accepted > 1
        # and forward from the boundary with atol above rtol
        ours = _step_side_by_side(fam, 0.0, np.array([0.0, y, 1.0, eta]),
                                  math.inf, tol, atol=10.0 * tol)
        assert ours.y[0] < 0.0


def _on_step(st, t):
    """The dense output of one step at t, in its own coefficients."""
    return flow._horner(st.F, st.y_old, (t - st.t_old) / st.h)


@pytest.mark.parametrize("t_end", [6.0, -6.0])
def test_solution_reads_each_step_end_on_its_step(t_end):
    # forward and backward in t: a step end is read on the step that ends
    # there, bitwise as a lookup keyed on each step's signed start reads it
    def fun(t, y):
        return np.array([y[1], math.cos(t) - y[0] - 0.1 * y[1]])

    sol = flow._integrate(fun, 0.0, [1.0, 0.0], t_end, 1e-10, 1e-10, "fail")
    d = math.copysign(1.0, t_end)
    assert len(sol.steps) > 5

    def keyed(t):
        i = bisect_left(sol.steps, d * t, key=lambda st: d * st.t_old) - 1
        return _on_step(sol.steps[min(max(i, 0), len(sol.steps) - 1)], t)

    ts = [t for st in sol.steps for t in (st.t, 0.5 * (st.t_old + st.t))]
    want = [_on_step(st, t) for st in sol.steps
            for t in (st.t, 0.5 * (st.t_old + st.t))]
    assert _same_bits(sol.batch(ts), want)
    ts += [0.0, -0.5 * t_end, 1.5 * t_end]
    assert _same_bits(sol.batch(ts), [keyed(t) for t in ts])
    assert _same_bits(sol.batch([0.0])[0], _on_step(sol.steps[0], 0.0))


@pytest.mark.parametrize("name, z", [("disc", (0.3, 1.1)),
                                     ("perturbed", (1.0, 3.0))])
def test_trace_reads_one_tau_and_many_bitwise_alike(request, name, z):
    # eval_raw and eval_many share the lookup of the trace's solution: a
    # step end is read on the step that ends there
    traj = trace_geodesic(request.getfixturevalue(name), z, tol=1e-8)
    steps = traj._sol.steps
    assert len(steps) > 5
    taus = []
    for st in steps:
        end = min(st.t, traj.tau_plus)   # the polish may move the last end
        taus += [st.t_old, 0.5 * (st.t_old + st.t), end]
        assert _same_bits(traj.eval_raw(end), _on_step(st, end))
    one = np.array([traj.eval_raw(tau) for tau in taus])
    assert one.tobytes() == traj.eval_many(taus).tobytes()
    for tau, row in zip(taus, one):
        assert row.tobytes() == traj.eval_many([tau])[0].tobytes()


@pytest.mark.parametrize("eta", [0.5, 1.0, 2.0, 3.7])
def test_rho_peak_is_the_root_of_xi_b(halfplane, eta):
    # rho = sin(eta tau) / eta peaks at tau = pi / (2 eta), where xi_b = 0
    traj = trace_geodesic(halfplane, (0.0, eta), tol=1e-12)
    tau, rho = traj.rho_peak()
    assert abs(tau - 0.5 * math.pi / eta) < 1e-11
    assert rho == pytest.approx(1.0 / eta, abs=1e-11)
    # a trace whose rho only falls peaks at its start
    falling = trace_from_state(halfplane,
                               BPhasePoint.make(0.5, 0.0, -0.6, 0.8 / 0.5))
    assert falling.rho_peak() == (0.0, 0.5)


@pytest.mark.parametrize("tol", [1e-16, -1.0])
def test_stepper_keeps_scipy_tolerance_checks(disc, tol):
    # rtol is floored at 100 eps with a warning; a negative atol raises
    s0 = np.array([0.0, 0.3, 1.0, 1.1])
    with pytest.warns(UserWarning, match="rtol"):
        if tol < 0:
            with pytest.raises(ValueError, match="atol"):
                trace_geodesic(disc, (0.3, 1.1), tol=tol)
        else:
            traj = trace_geodesic(disc, (0.3, 1.1), tol=tol)
            assert traj.z_out.eta[0] == pytest.approx(1.1, abs=1e-12)
            _step_side_by_side(disc, 0.0, s0, math.inf, tol)


# ---------------------------------------------------------------------------
# failure modes


def _step_arclength(fam, st):
    """Exact gated arclength of one step alone, as the t_max guard sums
    it."""
    turns = flow._turning_points(st, flow._make_rhs(fam), 1 + fam.n)
    return float(np.sum(flow._arc_panels(st, turns, 1 + fam.n)[1]))


def test_slow_geodesic_reports_trapping(halfplane):
    with pytest.raises(TrappedOrSlowError):
        trace_geodesic(halfplane, (0.0, 0.01), t_max=5.0)


def test_t_max_guard_fires_on_the_step_the_arclength_passes_it(halfplane):
    z, t_max = (0.0, 0.01), 5.0
    with pytest.raises(TrappedOrSlowError) as info:
        trace_geodesic(halfplane, z, t_max=t_max)
    exc = info.value
    assert exc.stats.guard == "t_max"
    # the same covector without the guard takes the same steps
    traj = trace_geodesic(halfplane, z, t_max=1e3)
    i = int(np.searchsorted(traj._sol.ts, exc.tau))
    assert traj._sol.ts[i] == exc.tau
    assert exc.stats.n_accepted == i
    assert traj.arclength_at(traj._sol.ts[i - 1]) <= t_max < exc.t_acc
    # the guard sums the exact arclength step by step
    running = 0.0
    for st in traj._sol.steps[:i]:
        running += _step_arclength(halfplane, st)
    assert running == exc.t_acc


@pytest.mark.parametrize("tol", [1e-6, 1e-12])
def test_step_bound_exceeds_exact_arclength(disc, halfplane, tol):
    grid = np.linspace(flow.RHO_GATE_LO, flow.RHO_GATE_HI, 20001)
    assert np.max(flow._gate_over_rho(grid)) <= flow._GATE_SUP
    for fam, eta in ((disc, 0.05), (disc, 1.3), (halfplane, -0.4)):
        traj = trace_geodesic(fam, (0.2, eta), tol=tol)
        exact = [_step_arclength(fam, st) for st in traj._sol.steps]
        # every step but the retaken arrival step, which the guard skips
        for (t0, p0), (t1, p1), incr in zip(traj.samples[:-2],
                                            traj.samples[1:-1], exact):
            assert flow._arc_bound(p0.rho, p1.rho, t1 - t0) > incr


def test_quad_nodes_cut_where_the_apex_barely_passes_a_break(disc,
                                                            monkeypatch):
    # rho peaks 5e-6 above the break 0.6, so both crossings of 0.6 lie
    # near the apex, where rho is nearly flat; cut at the turning point,
    # rho is monotone on each piece, and two pieces straddle 0.6
    traj = trace_geodesic(disc, (0.3, 0.99999 * 0.91 / 0.6))
    assert traj.rho_peak()[1] - 0.6 == pytest.approx(5e-6, rel=0.01)
    rules = []
    gauss = flow.composite_gauss

    def recorded(cuts, a, b, n):
        rules.append(np.asarray(cuts))
        return gauss(cuts, a, b, n)

    monkeypatch.setattr(flow, "composite_gauss", recorded)
    traj.quad_nodes(0.0, traj.tau_plus, rho_breaks=(0.1, 0.6))
    rho = traj.eval_many(rules[0])[:, 0]
    for level in (0.1, 0.6):
        assert np.sum(np.abs(rho - level) < 1e-12) == 2


def test_arclength_is_built_only_when_read(disc):
    traj = trace_geodesic(disc, (0.3, 1.1))
    field = SymmetricTensorField(rank=0, weight=1,
                                 components=lambda rho, y: rho * np.exp(-rho))
    xray_transform(field, traj)
    assert "_turns" not in vars(traj) and "_arc_table" not in vars(traj)
    xray_transform(SymmetricTensorField(rank=0, weight=1,
                                        components=field.components,
                                        breaks=(0.2,)), traj)
    # the cuts at rho = 0.2 read the turning points: a disc geodesic has one
    assert "_turns" in vars(traj) and traj._turns[0].size == 1
    assert "_arc_table" not in vars(traj)
    assert traj.t_acc > 0.0
    # panels end at every step's end, the arrival time last
    edges = traj._arc_table[0]
    assert np.isin(traj._sol.ts[1:], edges).all()


def test_guard_panels_leave_the_trace_unchanged(disc):
    # the guard's bound passes t_max, so it integrates the steps exactly,
    # but the exact arclength stays below t_max and the trace arrives
    z, t_max = (0.2, 1.3), 9.5
    traj = trace_geodesic(disc, z, tol=1e-8, t_max=t_max)
    ref = trace_geodesic(disc, z, tol=1e-8, t_max=60.0)
    ends = traj.samples[:-1]    # the guard runs on every step but the last
    bound = sum(flow._arc_bound(p0.rho, p1.rho, t1 - t0)
                for (t0, p0), (t1, p1) in zip(ends, ends[1:]))
    exact = sum(_step_arclength(disc, st)
                for st in traj._sol.steps[:len(ends) - 1])
    assert exact < t_max < bound
    # the guard skips the arrival step, past which t_acc exceeds t_max
    assert traj.t_acc > t_max
    assert traj.stats == ref.stats
    taus = np.linspace(0.0, traj.tau_plus, 11)
    assert np.asarray(traj.t_acc).tobytes() == np.asarray(ref.t_acc).tobytes()
    assert traj.arclength_at(taus).tobytes() == ref.arclength_at(taus).tobytes()


@pytest.mark.parametrize("name, guard", [("disc", None),
                                         ("halfplane", None),
                                         ("perturbed", None),
                                         ("radial_power", None)])
def test_huge_eta_arrives_or_names_its_guard(request, monkeypatch, name,
                                             guard):
    # the arc lasts pi/|eta| = 3.1e-14 at eta 1e14, and its arrival bracket
    # is shorter than 1e-14; on the disc the error estimate passes a first
    # step that leaves the cosphere, and the trace retakes it at a tenth of
    # its size.  The radial-power arrival root at eta 1e12 lies at the
    # start of the arrival step, so there is no step to retake to it.
    z = (0.0, 1e12) if name == "radial_power" else (0.3, 1e14)
    fam, eta = request.getfixturevalue(name), z[1]
    traj = trace_geodesic(fam, z, tol=1e-8)
    assert traj.stats.guard is guard
    assert traj.tau_plus == pytest.approx(math.pi / eta, rel=1e-6)
    # without retakes the disc's first step names the guard
    monkeypatch.setattr(flow, "COSPHERE_RETAKES", 0)
    if name == "disc":
        with pytest.raises(FlowError) as info:
            trace_geodesic(fam, z, tol=1e-8)
        assert info.value.stats.guard == "cosphere"
        assert info.value.stats.n_accepted == 1


@pytest.mark.parametrize("tol", [1e-8, 1e-12])
@pytest.mark.parametrize("eta", [1e10, 1e13, 1e16])
def test_disc_retakes_a_step_that_leaves_the_cosphere(disc, monkeypatch,
                                                      tol, eta):
    retakes = []
    retake = flow._Dop853.retake

    def counted(self, factor):
        before = (self.n_accepted, self.n_rejected)
        retake(self, factor)
        retakes.append((before, (self.n_accepted, self.n_rejected)))

    monkeypatch.setattr(flow._Dop853, "retake", counted)
    traj = trace_geodesic(disc, (0.3, eta), tol=tol)
    # measured: within 1.8e-8 at tol 1e-8 and 3.3e-13 at 1e-12
    assert traj.tau_plus * eta / math.pi == pytest.approx(1.0, rel=1e-7)
    # one retake each where the first step leaves the cosphere, the traces
    # that raised "cosphere" before retakes existed
    assert len(retakes) == (1 if tol == 1e-8 and eta > 1e10 else 0)
    # the discarded step counts as a rejection
    assert all(after == (acc - 1, rej + 1) for (acc, rej), after in retakes)
    assert traj.stats.max_constraint_drift < 1e-3 * eta


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_huge_eta_traces_warn_nothing(perturbed):
    # the first step guesses of these covectors overflow the profile's exp
    # in stages that the step controller then rejects
    for eta in (1e10, 1e12, 1e14):
        traj = trace_geodesic(perturbed, (0.3, eta), tol=1e-8)
        assert traj.tau_plus == pytest.approx(math.pi / eta, rel=1e-6)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_error_norm_rejects_the_step(bad):
    # stages beyond t = 0.1 are non-finite: the first two tries of step
    # 1 and 0.2 are rejected, and the third, of 0.04, is finite
    def rhs(t, y):
        return np.full_like(y, bad) if t > 0.1 else -y

    solver = flow._Dop853(rhs, 0.0, np.array([1.0]), math.inf, 1e-8, 1e-8)
    solver.h_abs = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        st = solver.step()
    assert solver.n_rejected == 2 and solver.n_accepted == 1
    assert st.h == pytest.approx(0.04)
    assert np.all(np.isfinite(st.F)) and np.isfinite(solver.y).all()


def test_arrival_step_that_leaves_the_cosphere_is_retaken(halfplane):
    # at tol 1e-3 the arrival step ends on a covector that the projection
    # would move by 89%; it is retaken at a tenth of its size, like an
    # interior step, and the trace arrives (measured 6.3e-6 relative in
    # tau_plus and 1.2e-11 in y_out)
    y, eta = 4.268920944706548, 1520019.0558717083
    traj = trace_geodesic(halfplane, (y, eta), tol=1e-3)
    assert traj.stats.guard is None and traj.stats.n_rejected > 0
    assert traj.tau_plus == pytest.approx(math.pi / eta, rel=1e-5)
    assert traj.end.y[0] == pytest.approx(y + 2.0 / eta, abs=1e-10)


def test_apex_between_step_ends_leaves_the_collar(perturbed):
    # at tol 1e-6 the step ends of this geodesic stay below rho_max 0.5
    # (0.490 at most), but it peaks at 0.526 between them; at tol 1e-8 a
    # step end passes the edge
    for tol, between in ((1e-6, True), (1e-8, False)):
        with pytest.raises(CollarExitError) as info:
            trace_geodesic(perturbed, (0.6, 2.0), tol=tol)
        assert info.value.stats.guard == "collar"
        assert ("between step ends" in str(info.value)) is between
    # the apex check reads the turning point, not the tent bound: this
    # geodesic peaks at 0.4786 and arrives
    traj = trace_geodesic(perturbed, (math.pi, 2.0), tol=1e-10)
    assert traj.stats.guard is None
    assert 0.47 < traj.rho_peak()[1] < perturbed.rho_max


def test_samples_are_the_step_starts_and_the_end(disc):
    traj = trace_geodesic(disc, (0.3, 1.1), tol=1e-8)
    field = SymmetricTensorField(rank=0, weight=1,
                                 components=lambda rho, y: rho * np.exp(-rho))
    xray_transform(field, traj)
    assert "samples" not in vars(traj)
    assert len(traj.samples) == len(traj._sol.steps) + 1
    for (tau, p), st in zip(traj.samples[:-1], traj._sol.steps):
        assert tau == st.t_old
        assert p.as_vector().tobytes() == st.y_old.tobytes()
    assert traj.samples[-1][0] == traj.tau_plus
    assert traj.samples[-1][1] is traj.end
    assert traj.end.rho == 0.0 and traj.end.xi_b == -1.0
    assert traj.z_out.eta.tobytes() == traj.end.eta.tobytes()


def test_trace_from_state_starts_its_samples_at_its_start(disc):
    # projecting this state a second time moves xi_b and eta by an ulp
    state = BPhasePoint.make(0.3, 0.0, 0.5, 1.0)
    start = flow._project_vec(disc, state.as_vector(), 1)
    assert flow._project_vec(disc, start, 1).tobytes() != start.tobytes()
    tau, first = trace_from_state(disc, state).samples[0]
    assert tau == 0.0
    assert first.as_vector().tobytes() == start.tobytes()


@pytest.mark.parametrize("rho", [2.0, 2.5, -0.5])
def test_trace_from_state_outside_the_domain_raises_at_once(disc, rho):
    # rho = 2 is the disc's centre, where h = 0
    with pytest.raises(CollarExitError) as err:
        trace_from_state(disc, BPhasePoint.make(rho, 0.3, 0.2, 0.5))
    assert err.value.stats.guard == "collar"
    assert err.value.stats.n_rhs == 0


def test_a_read_of_one_component_has_the_bits_of_the_full_read(disc):
    traj = trace_geodesic(disc, (0.3, 1.1), tol=1e-10)
    taus = np.linspace(0.0, traj.tau_plus, 41)
    full = traj.eval_many(taus)
    for k in range(4):
        assert traj.eval_many(taus, k).tobytes() == full[:, k].tobytes()
    st = traj._sol.steps[3]
    ts = np.linspace(st.t_old, st.t, 5)
    assert st.batch(ts, 0).tobytes() == st.batch(ts)[:, 0].tobytes()


def test_trace_stats_count_the_integration(disc):
    traj = trace_geodesic(disc, (0.3, 1.1))
    st = traj.stats
    assert st.guard is None
    # the arrival step is accepted, then retaken as the last segment
    assert st.n_accepted == len(traj._sol.steps) + 1
    assert st.n_rejected > 0
    # each DOP853 attempt makes 12 RHS calls
    assert st.n_rhs >= 12 * (st.n_accepted + st.n_rejected)
    assert 0.0 < st.max_constraint_drift < 1e-10


@pytest.mark.parametrize("name, z, t_max, guard", [
    ("disc", (0.3, 1.2), 60.0, None),
    ("disc", (0.3, 1.2), 1.0, "t_max"),
    ("halfplane", (0.0, 1.5), 60.0, None),
    ("halfplane", (0.0, 0.01), 5.0, "t_max"),
    ("perturbed", (2.0, -2.5), 60.0, None),
    ("perturbed", (0.3, 1.2), 60.0, "collar"),
    # t_max None: a tangent trace, at its default t_max
    ("disc", (0.3, 1.2), None, None),
    ("perturbed", (0.3, 1.2), None, "collar"),
])
def test_trace_stats_count_every_rhs_call(request, monkeypatch, name, z,
                                          t_max, guard):
    # the slope refreshed after a projection that moves the state counts
    # as much as a stage of the stepper; a tangent trace calls the same RHS
    calls = []
    make_rhs = flow._make_rhs

    def counting_make_rhs(fam):
        rhs = make_rhs(fam)

        def counted(*args):
            calls.append(args[0])
            return rhs(*args)
        return counted

    monkeypatch.setattr(flow, "_make_rhs", counting_make_rhs)
    fam = request.getfixturevalue(name)
    try:
        st = (flow._trace_tangent(fam, z, 1e-8) if t_max is None else
              trace_geodesic(fam, z, tol=1e-8, t_max=t_max)).stats
    except FlowError as exc:
        st = exc.stats
    assert st.guard == guard
    assert st.n_rhs == len(calls)


def test_one_stepper_per_trace(disc, monkeypatch):
    # the arrival retake rewinds the trace's stepper instead of building a
    # second one
    built = []

    class Counting(flow._Dop853):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(flow, "_Dop853", Counting)
    assert trace_geodesic(disc, (0.3, 1.1), tol=1e-8).stats.guard is None
    assert len(built) == 1


def test_flow_errors_carry_their_guard(halfplane, jet_family, monkeypatch):
    with pytest.raises(CollarExitError) as info:
        trace_geodesic(jet_family, (0.0, 0.5))
    assert info.value.stats.guard == "collar"
    assert info.value.stats.n_accepted > 0
    # atol 0 at the start state's rho = 0 makes the first step guess NaN
    with pytest.warns(UserWarning, match="rtol"), \
            pytest.raises(FlowError) as info:
        trace_geodesic(halfplane, (0.0, 1.0), tol=0.0)
    assert info.value.stats.guard == "integrator"
    monkeypatch.setattr(flow, "MAX_STEPS", 3)
    with pytest.raises(FlowError) as info:
        trace_geodesic(halfplane, (0.0, 1.0))
    assert info.value.stats.guard == "step_limit"
    assert info.value.stats.n_accepted == 3


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


"""Renormalized lengths, boundary distances, and their variations."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ahx import (CollarExitError, FlowError, ShootingError, boundary_distance,
                 conformal_shift, deformation_derivative, mellin_length,
                 perturbed_family, renormalized_length,
                 scattering_from_distance_check, trace_geodesic)
from ahx import renorm
from ahx.flow import _trace_tangent


def hp_length(eta: float) -> float:
    return 2.0 * math.log(2.0 / abs(eta))


def disc_distance(theta: float) -> float:
    return 2.0 * math.log(2.0 * math.sin(0.5 * theta))


# ---------------------------------------------------------------------------
# half-plane length oracle


@pytest.mark.parametrize("eta", [0.5, 1.0, 2.0, 4.0])
def test_halfplane_length_regularized(halfplane, eta):
    traj = trace_geodesic(halfplane, (0.0, eta), tol=1e-12)
    res = renormalized_length(traj)
    assert res.value == pytest.approx(hp_length(eta), abs=1e-6)
    assert res.err_est < 1e-6


@pytest.mark.parametrize("eta", [0.5, 1.0, 2.0, 4.0])
def test_halfplane_length_mellin(halfplane, eta):
    traj = trace_geodesic(halfplane, (0.0, eta), tol=1e-12)
    res = mellin_length(traj)
    assert res.value == pytest.approx(hp_length(eta), abs=1e-6)
    assert res.residue == pytest.approx(2.0, abs=1e-4)


def test_length_methods_agree_off_model(perturbed):
    traj = trace_geodesic(perturbed, (0.7, 3.0), tol=1e-12)
    reg = renormalized_length(traj)
    mel = mellin_length(traj)
    assert reg.value == pytest.approx(mel.value, abs=1e-6)


def test_pole_coefficient_is_universal(disc, perturbed):
    # every geodesic contributes the same 1/lambda coefficient
    for fam, z in ((disc, (0.0, 0.8)), (perturbed, (2.0, 3.5))):
        traj = trace_geodesic(fam, z, tol=1e-12)
        assert mellin_length(traj).residue == pytest.approx(2.0, abs=1e-4)


def _length_by_four_reads(traj):
    """renormalized_length with one dense-output read per half and rule,
    the reference for its single read."""
    tp = traj.tau_plus
    mid = 0.5 * tp

    def half_value(npts):
        tl, wl = traj.quad_nodes(0.0, mid, npts)
        rl = traj.eval_many(tl)[:, 0]
        fl = (tl - rl) / (rl * tl) - 1.0 / (tp - tl)
        tr, wr = traj.quad_nodes(mid, tp, npts)
        rr = traj.eval_many(tr)[:, 0]
        sig = tp - tr
        fr = (sig - rr) / (rr * sig) - 1.0 / tr
        return float(wl @ fl + wr @ fr)

    main, coarse = half_value(12), half_value(8)
    return main + 2.0 * math.log(tp), abs(main - coarse)


def test_length_reads_the_dense_output_once_with_the_same_bits(
        halfplane, disc, perturbed):
    # it reads rho alone, in one read; the reference reads full states
    trajs = [trace_geodesic(fam, z, tol=1e-12) for fam, z in (
        (halfplane, (0.0, 0.7)), (disc, (1.0, 0.3)), (perturbed, (0.7, 3.0)),
        (perturbed, (4.0, -2.6)))]
    trajs.append(boundary_distance(disc, 0.0, math.pi).trajectory)
    for traj in trajs:
        res = renormalized_length(traj)
        assert (res.value, res.err_est) == _length_by_four_reads(traj)


def test_length_even_in_eta(halfplane):
    tp = trace_geodesic(halfplane, (0.0, 1.5), tol=1e-12)
    tm = trace_geodesic(halfplane, (0.0, -1.5), tol=1e-12)
    assert renormalized_length(tp).value == pytest.approx(
        renormalized_length(tm).value, abs=1e-9)


# ---------------------------------------------------------------------------
# disc boundary distance oracle


@pytest.mark.parametrize("theta", [0.5, 1.0, 2.0, math.pi])
def test_disc_distance_closed_form(disc, theta):
    res = boundary_distance(disc, 0.0, theta)
    assert res.value == pytest.approx(disc_distance(theta), abs=1e-6)
    assert res.iterations < 50
    if theta < math.pi:
        assert res.residual < 1e-7
    else:
        # the ETA_SNAP branch accepts a miss of O(ETA_SNAP) by design
        assert math.isfinite(res.residual)


def test_stalled_shooting_raises_typed_flow_error(disc, monkeypatch):
    monkeypatch.setattr(renorm, "MAX_SHOOT_ITER", 1)
    with pytest.raises(ShootingError):
        boundary_distance(disc, 0.0, 3.0)
    assert issubclass(ShootingError, FlowError)


def test_disc_distance_shoots_the_connecting_geodesic(disc):
    res = boundary_distance(disc, 1.0, 2.5)
    end = res.trajectory.samples[-1][1]
    assert end.y[0] % (2.0 * math.pi) == pytest.approx(2.5, abs=1e-7)


def test_shooting_halves_a_trial_step_that_leaves_the_collar(monkeypatch):
    # y_out(eta) folds near eta 4.5; the first Newton step from eta 4.44
    # leaves the collar, although eta of about 5.2 connects the pair
    fam = perturbed_family(bump={"amplitude": 0.2, "rho_lo": 0.15,
                                 "rho_hi": 0.35}, rho_max=0.7)
    exits = []

    def recording(*args, **kwargs):
        try:
            return _trace_tangent(*args, **kwargs)
        except CollarExitError:
            exits.append(args[1].eta[0])
            raise

    monkeypatch.setattr(renorm, "_trace_tangent", recording)
    res = boundary_distance(fam, 0.0, 0.45)
    assert exits
    assert res.residual <= 1e-9
    assert res.eta[0] == pytest.approx(5.2053, abs=1e-4)
    assert res.value == pytest.approx(-1.5454, abs=1e-4)


def test_shooting_raises_when_every_trial_step_fails(disc, monkeypatch):
    calls = []

    def failing_after_first(*args, **kwargs):
        # the first shooting trace gives the residual and its Jacobian;
        # every damped trial after it fails
        calls.append(args)
        if len(calls) > 1:
            raise CollarExitError("trial left the collar")
        return _trace_tangent(*args, **kwargs)

    monkeypatch.setattr(renorm, "_trace_tangent", failing_after_first)
    with pytest.raises(ShootingError) as info:
        boundary_distance(disc, 0.0, 1.0)
    assert isinstance(info.value.__cause__, CollarExitError)
    assert len(calls) == 1 + 8


def test_shooting_doubles_a_first_guess_that_leaves_the_collar(perturbed,
                                                              monkeypatch):
    # the exact-hyperbolic first guess, eta near 2.04, leaves the collar
    # (rho_max 0.5); the doubled one is shallower and arrives.  The
    # connecting geodesic peaks at rho 0.490; the value is that of a solve
    # at tol 1e-12
    exits = []

    def recording(*args, **kwargs):
        try:
            return _trace_tangent(*args, **kwargs)
        except CollarExitError:
            exits.append(args[1].eta[0])
            raise

    monkeypatch.setattr(renorm, "_trace_tangent", recording)
    res = boundary_distance(perturbed, 0.6, 1.58)
    assert exits[0] == pytest.approx(2.0408, abs=1e-3)
    assert res.residual <= 1e-9
    assert res.trajectory.rho_peak()[1] < perturbed.rho_max
    assert res.eta[0] == pytest.approx(2.1375845, abs=1e-6)
    assert res.value == pytest.approx(0.0096680182, abs=1e-9)


def test_shooting_a_pair_whose_geodesic_leaves_the_collar_raises(perturbed):
    # the geodesic from 0.6 to 1.6 peaks above rho_max 0.5 between the
    # step ends of its traces, so no shot that would connect the pair
    # arrives
    with pytest.raises(ShootingError):
        boundary_distance(perturbed, 0.6, 1.6)


@pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
def test_shooting_returns_the_default_tol_trace_it_checked(disc, monkeypatch,
                                                           theta):
    # the shots carry the eta columns alone, at most one of them runs at
    # SHOOT_TOL, and the returned trajectory is the last plain trace, at
    # DEFAULT_TOL, whose miss is within tol
    shots, plain = [], []

    def recording_shot(*args, **kwargs):
        traj = _trace_tangent(*args, **kwargs)
        shots.append((args[2], traj.tangent.shape))
        return traj

    def recording_plain(*args, **kwargs):
        assert len(args) == 2 and not kwargs
        plain.append(trace_geodesic(*args))
        return plain[-1]

    monkeypatch.setattr(renorm, "_trace_tangent", recording_shot)
    monkeypatch.setattr(renorm, "trace_geodesic", recording_plain)
    res = boundary_distance(disc, 0.0, theta)
    assert res.residual <= 1e-9
    assert res.trajectory is plain[-1]
    assert res.value == pytest.approx(disc_distance(theta), abs=1e-9)
    assert all(shape == (2, 1) for _, shape in shots)
    assert sum(tol <= renorm.SHOOT_TOL for tol, _ in shots) <= 1
    assert res.iterations == len(shots) - 1 + len(plain)


def test_shooting_raises_when_every_first_guess_fails(disc, monkeypatch):
    etas = []

    def failing(*args, **kwargs):
        etas.append(args[1].eta[0])
        raise CollarExitError("guess left the collar")

    monkeypatch.setattr(renorm, "_trace_tangent", failing)
    with pytest.raises(ShootingError) as info:
        boundary_distance(disc, 0.0, 1.0, eta0=0.5)
    assert isinstance(info.value.__cause__, CollarExitError)
    # the guess and eight doublings
    assert etas == [0.5 * 2.0 ** k for k in range(9)]


@given(st.floats(0.6, 3.0))
@settings(max_examples=8, deadline=None)
def test_disc_distance_symmetric(theta):
    from ahx import disc_family
    fam = disc_family()
    d1 = boundary_distance(fam, 0.3, 0.3 + theta).value
    d2 = boundary_distance(fam, 0.3 + theta, 0.3).value
    assert d1 == pytest.approx(d2, abs=1e-7)


def test_perturbed_distance_symmetric(perturbed):
    d1 = boundary_distance(perturbed, 0.2, 0.8).value
    d2 = boundary_distance(perturbed, 0.8, 0.2).value
    assert d1 == pytest.approx(d2, abs=1e-7)


# ---------------------------------------------------------------------------
# conformal change of boundary representative


def test_conformal_shift_matches_boundary_values(disc):
    amp = 0.1

    def omega(y):
        return amp * math.sin(y)

    for z in ((0.0, 0.7), (1.2, 1.5), (3.0, -0.9)):
        traj = trace_geodesic(disc, z, tol=1e-12)
        y_in = z[0]
        y_out = float(traj.samples[-1][1].y[0])
        got = conformal_shift(traj, omega)
        assert got == pytest.approx(omega(y_in) + omega(y_out), abs=1e-6)


# ---------------------------------------------------------------------------
# variation under metric deformation


def quartic_path(scale):
    from ahx import radial_power_family

    def path(s):
        return radial_power_family(s * scale, 4)

    return path


def test_deformation_of_constant_path_vanishes(halfplane):
    dl, i2 = deformation_derivative(lambda s: halfplane, (0.0, 1.0))
    assert dl == pytest.approx(0.0, abs=1e-9)
    assert i2 == 0.0


def test_deformation_both_sides_linear_in_perturbation():
    dl1, i21 = deformation_derivative(quartic_path(0.1), (0.0, 1.0))
    dl2, i22 = deformation_derivative(quartic_path(0.2), (0.0, 1.0))
    assert dl2 == pytest.approx(2.0 * dl1, rel=1e-6)
    assert i22 == pytest.approx(2.0 * i21, rel=1e-6)


@pytest.mark.parametrize("eta", [0.5, 1.0, 2.0])
def test_deformation_variational_identity(eta):
    # first variation of the length at fixed incoming covector: half the
    # rank-2 transform of the metric derivative plus the outgoing-endpoint
    # motion paired against the outgoing momentum
    from ahx import scattering_map

    path = quartic_path(0.1)
    z = (0.0, eta)
    dl, i2 = deformation_derivative(path, z)

    fd = 1e-4
    out_p = scattering_map(path(fd), z, tol=1e-12)
    out_m = scattering_map(path(-fd), z, tol=1e-12)
    dy_out = (float(out_p.y[0]) - float(out_m.y[0])) / (2.0 * fd)
    eta_out = float(scattering_map(path(0.0), z, tol=1e-12).eta[0])

    assert dl == pytest.approx(0.5 * i2 + eta_out * dy_out, abs=2e-6)


# ---------------------------------------------------------------------------
# scattering from the distance gradient


def test_scattering_recovered_from_distance(disc):
    chk = scattering_from_distance_check(disc, 0.4, 2.1)
    assert chk.residual < 1e-4
    assert chk.eta_in_fd[0] == pytest.approx(chk.eta_out_fd[0], abs=1e-3)

"""Renormalized lengths, boundary distances, and their variations."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ahx import (FlowError, ShootingError, boundary_distance, conformal_shift,
                 deformation_derivative, mellin_length, perturbed_family,
                 renormalized_length, scattering_from_distance_check,
                 trace_geodesic)


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


def test_stalled_shooting_raises_typed_flow_error(disc):
    with pytest.raises(ShootingError):
        boundary_distance(disc, 0.0, 3.0, max_iter=1)
    assert issubclass(ShootingError, FlowError)


def test_disc_distance_shoots_the_connecting_geodesic(disc):
    res = boundary_distance(disc, 1.0, 2.5)
    end = res.trajectory.samples[-1][1]
    assert end.y[0] % (2.0 * math.pi) == pytest.approx(2.5, abs=1e-7)


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

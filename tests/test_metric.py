"""Metric families: evaluation, curvature oracles, validation, round trips."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ahx import (MetricError, TrigPoly, christoffel_symbols, disc_family,
                 eval_metric, gauss_curvature, halfplane_family, make_family,
                 perturbed_family, product_family, taylor1d_family)

Y0 = np.array([0.0])


# ---------------------------------------------------------------------------
# evaluation basics


def test_halfplane_is_flat_boundary(halfplane):
    ev = eval_metric(halfplane, 0.7, 1.3)
    assert ev.h_mat[0, 0] == 1.0
    assert ev.dh_drho_mat[0, 0] == 0.0
    assert ev.eta_normsq(np.array([2.0])) == 4.0


def test_disc_profile_values(disc):
    for rho in (0.0, 0.5, 1.0, 1.9):
        want = (1.0 - 0.25 * rho * rho) ** 2
        assert eval_metric(disc, rho, 0.3).h_mat[0, 0] == pytest.approx(
            want, abs=1e-15)


def test_perturbed_profile_matches_closed_form(jet_family):
    for rho in (0.0, 0.1, 0.3, 0.49):
        for y in (0.0, 1.1, 4.0):
            want = math.exp(2.0 * rho * (0.1 * math.cos(y) + 0.05 * rho))
            got = eval_metric(jet_family, rho, y).h_mat[0, 0]
            assert got == pytest.approx(want, rel=1e-14)


def test_eta_normsq_uses_inverse_metric(jet_family):
    rho, y = 0.3, 0.7
    h = eval_metric(jet_family, rho, y).h_mat[0, 0]
    got = jet_family.eta_normsq(rho, np.array([y]), np.array([1.7]))
    assert got == pytest.approx(1.7 ** 2 / h, rel=1e-14)


def test_first_derivatives_match_finite_differences(perturbed):
    rho, y, eps = 0.23, 0.9, 1e-6
    ev = eval_metric(perturbed, rho, y)
    fd_r = (eval_metric(perturbed, rho + eps, y).h_mat
            - eval_metric(perturbed, rho - eps, y).h_mat) / (2 * eps)
    fd_y = (eval_metric(perturbed, rho, y + eps).h_mat
            - eval_metric(perturbed, rho, y - eps).h_mat) / (2 * eps)
    assert ev.dh_drho_mat[0, 0] == pytest.approx(fd_r[0, 0], abs=1e-8)
    assert ev.dh_dy_mats[0, 0, 0] == pytest.approx(fd_y[0, 0], abs=1e-8)


# ---------------------------------------------------------------------------
# curvature


def test_halfplane_curvature_is_minus_one(halfplane):
    for rho in (0.05, 0.5, 2.0, 10.0):
        assert gauss_curvature(halfplane, rho, 0.0) == pytest.approx(
            -1.0, abs=1e-12)


def test_disc_curvature_is_minus_one(disc):
    # differencing error grows toward the centre where h -> 0
    for rho in (0.05, 0.5, 1.0, 1.7, 1.95):
        assert gauss_curvature(disc, rho, 1.0) == pytest.approx(
            -1.0, abs=1e-7)


def test_exponential_profile_curvature_closed_form():
    # h = e^{2 phi}, phi = rho (a + b rho) with constant a, b; then
    # K = -1 + rho phi' - rho^2 (phi'' + phi'^2), phi' = a + 2 b rho.
    a, b = 0.3, 0.1
    fam = perturbed_family(a_cos=[a], b_cos=[b])
    for rho in (0.05, 0.2, 0.35, 0.49):
        phi_p = a + 2.0 * b * rho
        phi_pp = 2.0 * b
        want = -1.0 + rho * phi_p - rho * rho * (phi_pp + phi_p * phi_p)
        assert gauss_curvature(fam, rho, 2.0) == pytest.approx(want, abs=1e-7)


def test_bump_raises_curvature_inside_band(bump_family):
    base = perturbed_family(rho_max=0.7)
    inside = gauss_curvature(bump_family, 0.375, 0.0)
    outside = gauss_curvature(bump_family, 0.1, 0.0)
    assert gauss_curvature(base, 0.375, 0.0) == pytest.approx(-1.0, abs=1e-9)
    assert outside == pytest.approx(-1.0, abs=1e-9)
    assert inside > 5.0  # strongly positive band


# ---------------------------------------------------------------------------
# Christoffel symbols


def test_christoffel_matches_geodesic_structure(halfplane):
    G = christoffel_symbols(halfplane, 0.5, 0.0)
    inv_rho = 2.0
    assert G[0, 0, 0] == pytest.approx(-inv_rho)
    assert G[0, 1, 1] == pytest.approx(inv_rho)   # h/rho with h = 1
    assert G[1, 0, 1] == pytest.approx(-inv_rho)
    assert G[1, 1, 0] == pytest.approx(-inv_rho)
    assert G[1, 1, 1] == 0.0


def test_christoffel_metric_compatibility(perturbed):
    # nabla g = 0: d_c g_ab = G^d_ca g_db + G^d_cb g_ad
    rho, y, eps = 0.3, 0.8, 1e-6

    def g_mat(r, yy):
        ev = eval_metric(perturbed, r, yy)
        out = np.zeros((2, 2))
        out[0, 0] = 1.0 / r ** 2
        out[1, 1] = ev.h_mat[0, 0] / r ** 2
        return out

    G = christoffel_symbols(perturbed, rho, y)
    g = g_mat(rho, y)
    dg = np.empty((2, 2, 2))
    dg[0] = (g_mat(rho + eps, y) - g_mat(rho - eps, y)) / (2 * eps)
    dg[1] = (g_mat(rho, y + eps) - g_mat(rho, y - eps)) / (2 * eps)
    for c in range(2):
        want = np.einsum("da,db->ab", G[:, c, :], g) \
            + np.einsum("db,ad->ab", G[:, c, :], g)
        assert np.allclose(dg[c], want, atol=1e-6)


# ---------------------------------------------------------------------------
# domains and validation


def test_domain_limits_enforced(disc, jet_family):
    with pytest.raises(MetricError):
        eval_metric(disc, 2.0, 0.0)        # open at the centre
    eval_metric(disc, 2.0 - 1e-9, 0.0)     # but approachable
    with pytest.raises(MetricError):
        eval_metric(jet_family, 0.5 + 1e-9, 0.0)
    eval_metric(jet_family, 0.5, 0.0)      # closed collar end
    with pytest.raises(MetricError):
        eval_metric(disc, -0.1, 0.0)


def test_curvature_needs_interior_point(halfplane):
    with pytest.raises(MetricError):
        gauss_curvature(halfplane, 0.0, 0.0)
    with pytest.raises(MetricError):
        christoffel_symbols(halfplane, 0.0, 0.0)


def test_degenerate_taylor_profile_rejected():
    with pytest.raises(MetricError):
        taylor1d_family(1.0, -8.0, 0.0, rho_max=0.25)  # h crosses zero
    with pytest.raises(MetricError):
        taylor1d_family(-1.0, 0.0, 0.0)


def test_bump_band_must_be_ordered():
    with pytest.raises(MetricError):
        perturbed_family(bump={"amplitude": 1.0, "rho_lo": 0.4,
                               "rho_hi": 0.3})


# ---------------------------------------------------------------------------
# spec round trips


@pytest.mark.parametrize("builder", [
    lambda: halfplane_family(),
    lambda: disc_family(),
    lambda: perturbed_family(a_cos=[0.0, 0.1], b_cos=[0.05]),
    lambda: perturbed_family(bump={"amplitude": 0.5, "rho_lo": 0.2,
                                   "rho_hi": 0.4}),
    lambda: taylor1d_family(1.2, 0.3, -0.1),
])
def test_spec_round_trip(builder):
    fam = builder()
    clone = make_family(fam.spec())
    rng = np.random.default_rng(0)
    for _ in range(8):
        rho = float(rng.uniform(0.0, min(fam.rho_max, 2.0) * 0.99))
        y = np.array([float(rng.uniform(0.0, 6.0))])
        ev, ev_clone = eval_metric(fam, rho, y), eval_metric(clone, rho, y)
        assert np.allclose(ev.h_mat, ev_clone.h_mat, rtol=1e-15)
        assert np.allclose(ev.dh_drho_mat, ev_clone.dh_drho_mat,
                           rtol=1e-15)


def test_make_family_rejects_unknown_kind():
    with pytest.raises(MetricError):
        make_family({"family": "klein-bottle"})
    with pytest.raises(MetricError):
        make_family({"no": "family key"})


# ---------------------------------------------------------------------------
# product families (n = 2)


def test_product_family_block_structure():
    f1 = perturbed_family(a_cos=[0.1])
    f2 = perturbed_family(a_cos=[0.0, 0.2])
    prod = product_family(f1, f2)
    assert prod.n == 2
    y = np.array([0.5, 1.5])
    h = eval_metric(prod, 0.2, y).h_mat
    assert h[0, 1] == 0.0 and h[1, 0] == 0.0
    assert h[0, 0] == pytest.approx(eval_metric(f1, 0.2, y[:1]).h_mat[0, 0])
    assert h[1, 1] == pytest.approx(eval_metric(f2, 0.2, y[1:]).h_mat[0, 0])
    clone = make_family(prod.spec())
    assert np.allclose(eval_metric(clone, 0.2, y).h_mat, h)


def test_product_rejects_mixed_charts():
    with pytest.raises(MetricError):
        product_family(halfplane_family(), disc_family())


# ---------------------------------------------------------------------------
# trig polynomial helper


@given(st.floats(-10.0, 10.0))
@settings(max_examples=25, deadline=None)
def test_trigpoly_eval_and_derivative(y):
    p = TrigPoly(cos_coeffs=[0.2, -0.3], sin_coeffs=[0.0, 0.5, 0.1])
    want = 0.2 - 0.3 * math.cos(y) + 0.5 * math.sin(y) \
        + 0.1 * math.sin(2.0 * y)
    assert p(y) == pytest.approx(want, abs=1e-12)
    eps = 1e-6
    assert p.deriv(y) == pytest.approx((p(y + eps) - p(y - eps)) / (2 * eps),
                                       abs=1e-7)

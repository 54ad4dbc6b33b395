"""Metric families: evaluation, curvature oracles, validation, round trips."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ahx import (MetricError, TrigPoly, christoffel_symbols, disc_family,
                 eval_metric, gauss_curvature, halfplane_family, make_family,
                 perturbed_family, product_family, radial_power_family,
                 taylor1d_family)
from ahx.metric import _family

Y0 = np.array([0.0])


# ---------------------------------------------------------------------------
# evaluation basics


def test_halfplane_is_flat_boundary(halfplane):
    ev = eval_metric(halfplane, 0.7, 1.3)
    assert ev.h_mat[0, 0] == 1.0
    assert ev.dh_drho_mat[0, 0] == 0.0


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
    assert ev.dh_drho_mat[0, 0] == pytest.approx(fd_r[0, 0], abs=1e-8)


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


def test_disc_curvature_is_minus_one_in_closed_form(disc):
    rhos = np.linspace(1e-3, 1.95, 400)
    err = max(abs(gauss_curvature(disc, r, 0.4) + 1.0) for r in rhos)
    assert err <= 1e-12


def test_exponential_profile_curvature_exact():
    # the closed form of test_exponential_profile_curvature_closed_form
    a, b = 0.3, 0.1
    fam = perturbed_family(a_cos=[a], b_cos=[b])
    for rho in np.linspace(0.01, 0.5, 50):
        phi_p = a + 2.0 * b * rho
        want = -1.0 + rho * phi_p - rho * rho * (2.0 * b + phi_p * phi_p)
        assert abs(gauss_curvature(fam, rho, 2.0) - want) <= 1e-14


def test_bump_curvature_matches_richardson_difference(bump_family):
    # d2h/drho2 from central differences of dh/drho at steps e and e/2,
    # Richardson-extrapolated, with the stencil clear of the bump's corners
    # at rho 0.3 and 0.45
    prof, e = bump_family.profiles[0], 1e-4

    def diff(rho, y, s):
        return (prof(rho + s, y)[1] - prof(rho - s, y)[1]) / (2.0 * s)

    rhos = np.concatenate((np.linspace(0.05, 0.28, 8),
                           np.linspace(0.31, 0.44, 10),
                           np.linspace(0.47, 0.69, 8)))
    for rho in rhos:
        for y in (0.0, 1.3, 4.0):
            h, dh = prof(rho, y)[:2]
            d2h = (4.0 * diff(rho, y, e / 2) - diff(rho, y, e)) / 3.0
            want = -1.0 + rho * dh / (2.0 * h) \
                - rho * rho * (d2h / (2.0 * h) - dh * dh / (4.0 * h * h))
            assert abs(gauss_curvature(bump_family, rho, y) - want) < 1e-8


def test_curvature_makes_one_profile_call(bump_family):
    calls = []

    def counted(rho, y):
        calls.append(rho)
        return bump_family.profiles[0](rho, y)

    fam = _family([counted], bump_family.chart, bump_family.rho_max,
                  "counted", {})
    calls.clear()
    assert gauss_curvature(fam, 0.37, 1.0) == \
        gauss_curvature(bump_family, 0.37, 1.0)
    assert calls == [0.37]


def test_curvature_of_arrays_is_the_curvature_of_floats():
    # one path: arrays of rho and y give the floats' values, bit for bit
    fam = perturbed_family(a_cos=[0.0, 0.1], b_cos=[0.02], rho_max=0.7,
                           bump={"amplitude": 1.0, "rho_lo": 0.3,
                                 "rho_hi": 0.45})
    rho, y = np.linspace(0.05, 0.69, 37), np.linspace(0.0, 6.0, 37)
    k = gauss_curvature(fam, rho, y)
    assert k.shape == (37,)
    assert k.tobytes() == np.array(
        [gauss_curvature(fam, r, v) for r, v in zip(rho, y)]).tobytes()


def test_breaks_are_the_bump_edges(halfplane, disc, perturbed, bump_family):
    assert bump_family.breaks == (0.3, 0.45)
    assert make_family(bump_family.spec()).breaks == (0.3, 0.45)
    for fam in (halfplane, disc, perturbed, radial_power_family(0.1, 2),
                taylor1d_family(1.0), product_family(halfplane, halfplane)):
        assert fam.breaks == ()


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
        eval_metric(jet_family, 0.5, 0.0)  # every collar is open at rho_max
    eval_metric(jet_family, 0.5 - 1e-9, 0.0)
    with pytest.raises(MetricError):
        eval_metric(disc, -0.1, 0.0)


@pytest.mark.parametrize("builder", [
    perturbed_family, lambda: taylor1d_family(1.0),
    lambda: halfplane_family(rho_max=3.0),
    lambda: product_family(perturbed_family(), perturbed_family(rho_max=0.4))],
    ids=["perturbed", "taylor1d", "half-plane", "product"])
def test_every_family_has_the_domain_below_rho_max(builder):
    fam = builder()
    y = np.zeros(fam.n)
    with pytest.raises(MetricError, match=r"outside \[0, "):
        eval_metric(fam, fam.rho_max, y)
    with pytest.raises(MetricError):
        christoffel_symbols(fam, np.array([0.1, fam.rho_max]),
                            np.full((2, fam.n), 0.0))
    eval_metric(fam, fam.rho_max * (1.0 - 1e-12), y)


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


@pytest.mark.parametrize("builder", [
    lambda: radial_power_family(0.1, 1),
    lambda: radial_power_family(0.1, 2),
    lambda: perturbed_family(bump={"amplitude": 0.2, "rho_lo": 0.15,
                                   "rho_hi": 0.35}, rho_max=0.7),
    lambda: perturbed_family(bump={"amplitude": 1.0, "rho_lo": 0.3,
                                   "rho_hi": 0.45}, rho_max=0.7),
])
def test_shipped_families_pass_validation(builder):
    # the first bump's d2h/drho2 has a corner on a grid point (rho_hi 0.35)
    fam = builder()
    assert make_family(fam.spec()).spec() == fam.spec()


@pytest.mark.parametrize("base", [disc_family, lambda: perturbed_family(
    a_cos=[0.0, 0.1], b_cos=[0.05],
    bump={"amplitude": 0.5, "rho_lo": 0.2, "rho_hi": 0.4})])
def test_second_derivative_off_by_one_percent_rejected(base):
    """A 1% error in dh_drho, dh_dy or d2h_drho2 is refused with that
    row's own message; d2h_drho2's tolerance allows for bump corners."""
    fam = base()
    prof = fam.profiles[0]
    _family([prof], fam.chart, fam.rho_max, "exact", {})
    for row, name in ((1, "dh_drho"), (2, "dh_dy"), (3, "d2h_drho2")):
        if base is disc_family and name == "dh_dy":
            continue    # the disc's dh_dy is 0, which 1% leaves exact

        def off(rho, y, row=row):
            out = list(prof(rho, y))
            out[row] = 1.01 * out[row]
            return tuple(out)

        with pytest.raises(MetricError, match=f"^{name} inconsistent"):
            _family([off], fam.chart, fam.rho_max, "off", {})


@pytest.mark.parametrize("base", [
    lambda: perturbed_family(a_cos=[0.0, 0.1], b_cos=[0.02],
                             b_sin=[0.0, 0.03]),
    lambda: product_family(disc_family(), perturbed_family(
        a_cos=[0.0, 0.1], b_cos=[0.05],
        bump={"amplitude": 0.5, "rho_lo": 0.2, "rho_hi": 0.4}))],
    ids=["perturbed", "product"])
def test_mixed_and_tangential_second_derivatives_off_by_one_percent_rejected(
        base):
    """A 1% error in d2h_drho_dy or d2h_dy2 of any one factor is refused
    with that row's own message."""
    fam = base()
    _family(fam.profiles, fam.chart, fam.rho_max, "exact", {})
    for row, name in ((4, "d2h_drho_dy"), (5, "d2h_dy2")):
        prof = fam.profiles[-1]

        def off(rho, y, row=row):
            out = list(prof(rho, y))
            out[row] = 1.01 * out[row]
            return tuple(out)

        with pytest.raises(MetricError, match=f"^{name} inconsistent"):
            _family(fam.profiles[:-1] + (off,), fam.chart, fam.rho_max,
                    "off", {})


def test_tangential_second_derivatives_match_richardson_differences(
        perturbed):
    # d2h/dy2 and d2h/drho dy from central differences of dh/dy and dh/drho
    # in y at steps e and e/2, Richardson-extrapolated (measured: 1.8e-13)
    e = 1e-3
    bumped = perturbed_family(a_cos=[0.0, 0.1], b_cos=[0.05], rho_max=0.7,
                              bump={"amplitude": 1.0, "rho_lo": 0.3,
                                    "rho_hi": 0.45})
    for fam in (perturbed, bumped):
        prof = fam.profiles[0]

        def diff(rho, y, s, row):
            return (prof(rho, y + s)[row] - prof(rho, y - s)[row]) / (2.0 * s)

        for rho in (0.05, 0.2, 0.37, 0.49):
            for y in (0.0, 1.3, 4.0, 5.5):
                out = prof(rho, y)
                for row, want_row in ((2, 5), (1, 4)):
                    fd = (4.0 * diff(rho, y, e / 2, row)
                          - diff(rho, y, e, row)) / 3.0
                    assert abs(out[want_row] - fd) <= 1e-10 * max(
                        1.0, abs(fd))


def test_diag_broadcasts_to_six_rows():
    fam = product_family(perturbed_family(a_cos=[0.1]),
                         perturbed_family(bump={"amplitude": 0.5,
                                                "rho_lo": 0.2,
                                                "rho_hi": 0.4}))
    rho = np.linspace(0.05, 0.45, 5)[:, None]
    y = np.random.default_rng(1).uniform(0.0, 6.0, (1, 3, 2))
    out = fam.diag(rho, y)
    assert out.shape == (6, 5, 3, 2)
    for k, prof in enumerate(fam.profiles):
        for i, v in enumerate(prof(rho[2, 0], y[0, 1, k])):
            assert out[i, 2, 1, k] == v


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


BUMP = {"amplitude": 0.5, "rho_lo": 0.2, "rho_hi": 0.4}


@pytest.mark.parametrize("spec, key", [
    ({"family": "perturbed", "params": {"a_coss": [0.0, 0.3]}}, "a_coss"),
    ({"family": "disc-normal", "params": {"rho_max": 1.0}}, "rho_max"),
    ({"family": "perturbed", "params": {"bump": {**BUMP, "width": 0.1}}},
     "width"),
    ({"family": "radial-power", "params": {"amp": 0.1}}, "power"),
    ({"family": "product"}, "factors"),
    ({"family": "product", "params": {"factors": [{"family": "half-plane"}]}},
     "factors"),
    ({"family": "half-plane", "parms": {"rho_max": 1.0}}, "parms"),
    # a half-plane chart is the whole line: it has no bounds to set
    ({"family": "half-plane", "params": {"y_bounds": [[-1.0, 1.0]]}},
     "y_bounds"),
], ids=["typo", "disc-rho_max", "bump-key", "missing", "no-factors",
        "one-factor", "spec-key", "y_bounds"])
def test_make_family_refuses_keys_no_constructor_takes(spec, key):
    with pytest.raises(MetricError, match=key):
        make_family(spec)


@pytest.mark.parametrize("power", [2.5, True, "2", math.nan, math.inf, 0, -2])
def test_radial_power_must_be_whole(power):
    # a fraction or a bool must not round silently to a whole power
    with pytest.raises(MetricError, match="power"):
        make_family({"family": "radial-power",
                     "params": {"amp": 0.1, "power": power}})


def test_whole_float_radial_power_builds_the_integer_power():
    two = radial_power_family(0.1, 2)
    assert radial_power_family(0.1, 2.0).spec() == two.spec()
    assert two.spec()["params"]["power"] == 2
    assert radial_power_family(0.1, 2.0).profiles[0](0.5, 0.0) \
        == two.profiles[0](0.5, 0.0)


def test_spec_params_are_the_constructor_keywords():
    """A spec without params builds the constructor's defaults."""
    assert make_family({"family": "taylor1d", "params": {"h0": 1.2}}).spec() \
        == taylor1d_family(1.2).spec()
    assert make_family({"family": "perturbed"}).spec() \
        == perturbed_family().spec()
    fam = make_family({"family": "perturbed", "params": {"bump": BUMP}})
    assert fam.spec() == perturbed_family(bump=BUMP).spec()


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
    val, der, der2 = p.jet(y)
    assert val == pytest.approx(want, abs=1e-12)
    eps = 1e-6
    assert der == pytest.approx((p.jet(y + eps)[0]
                                 - p.jet(y - eps)[0]) / (2 * eps),
                                abs=1e-7)
    assert der2 == pytest.approx((p.jet(y + eps)[1]
                                  - p.jet(y - eps)[1]) / (2 * eps),
                                 abs=1e-7)
    # arrays give the floats' values, bit for bit
    arr = p.jet(np.array([y, y]))
    assert all(np.all(a == v) for a, v in zip(arr, (val, der, der2)))

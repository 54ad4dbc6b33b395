"""Boundary-jet recovery from renormalized-length tables.

The study family h = exp(2 rho (0.1 cos y + 0.05 rho)) has its radial jet
in closed form (see conftest.jet_truth), giving exact targets for both
recovery routes.  On the flat half-plane every table entry is exactly
2 log(2 delta), so the whole pipeline must return the identity metric with
zero slope to solver precision.
"""
import json
import math

import numpy as np
import pytest

from ahx import (CollarExitError, FlowError, MetricError, halfplane_family,
                 product_family, renormalized_length, taylor1d_family,
                 trace_geodesic)
from ahx import metric, recover
from ahx.recover import (
    DELTA_GRID,
    LengthSampleSet,
    RecoveryError,
    recover_first_jet,
    recover_h0,
    recover_jet_fit,
    synthesize_samples,
)
from conftest import jet_truth

RING_POINTS = 8


def ring(npts):
    return np.linspace(0.0, 2.0 * math.pi, npts, endpoint=False)


def subset(s, sl):
    """Same sample set restricted to a slice of the delta grid."""
    return LengthSampleSet(y0=s.y0, directions=s.directions,
                           deltas=s.deltas[sl], lengths=s.lengths[:, sl])


@pytest.fixture(scope="module")
def ring_sets(jet_family):
    """Length tables at eight boundary points of the study family."""
    return [synthesize_samples(jet_family, float(y), [[1.0]])
            for y in ring(RING_POINTS)]


@pytest.fixture(scope="module")
def hp_sets(halfplane):
    """Length tables at three points of the flat model."""
    return [synthesize_samples(halfplane, float(y), [[1.0]])
            for y in ring(3)]


# ---------------------------------------------------------------------------
# boundary metric at a point


def test_flat_model_recovers_identity(hp_sets):
    rec = recover_h0(hp_sets[0])
    assert rec.h0[0, 0] == pytest.approx(1.0, abs=1e-8)
    assert rec.norms[0] == pytest.approx(1.0, abs=1e-8)
    assert rec.fit_residual < 1e-8


def test_direction_scaling_is_homogeneous(halfplane):
    samples = synthesize_samples(halfplane, 0.0, [[1.0], [2.0], [-1.0]])
    rec = recover_h0(samples)
    assert rec.h0[0, 0] == pytest.approx(1.0, abs=1e-8)
    assert np.allclose(rec.norms, [1.0, 2.0, 1.0], atol=1e-8)


def test_study_family_h0(ring_sets):
    for s in ring_sets:
        rec = recover_h0(s)
        assert rec.h0[0, 0] == pytest.approx(1.0, abs=1e-4)


# ---------------------------------------------------------------------------
# first radial derivative (asymptotic route)


def test_flat_model_first_jet_is_zero(hp_sets):
    jet = recover_first_jet(hp_sets)
    assert np.max(np.abs(jet.h0 - 1.0)) < 1e-8
    assert np.max(np.abs(jet.drho_h)) < 1e-6


def test_first_jet_reads_no_other_point(ring_sets):
    """Each point's jet comes from its own table alone."""
    together = recover_first_jet(ring_sets)
    for i, s in enumerate(ring_sets):
        alone = recover_first_jet([s])
        for name in ("y0s", "h0", "drho_h", "fit_residuals"):
            assert (getattr(alone, name)[0].tobytes()
                    == getattr(together, name)[i].tobytes())


def test_study_family_first_jet(ring_sets):
    jet = recover_first_jet(ring_sets)
    for i, y in enumerate(ring(RING_POINTS)):
        _, dh, _ = jet_truth(float(y))
        assert jet.h0[i, 0, 0] == pytest.approx(1.0, abs=1e-4)
        assert jet.drho_h[i, 0, 0] == pytest.approx(dh, abs=5e-4)


def test_deeper_delta_grids_do_not_degrade(ring_sets):
    """Error of the slope extraction improves with the grid depth."""
    worst = []
    for hi in (4, 5, 6, 7):
        jet = recover_first_jet([subset(s, slice(0, hi)) for s in ring_sets])
        errs = [abs(jet.drho_h[i, 0, 0] - jet_truth(float(y))[1])
                for i, y in enumerate(ring(RING_POINTS))]
        worst.append(max(errs))
    assert worst[0] < 1e-4
    for shallow, deep in zip(worst, worst[1:]):
        assert deep <= shallow * 1.05


def test_noise_degrades_gracefully(ring_sets):
    rng = np.random.default_rng(42)
    noisy = [LengthSampleSet(
        y0=s.y0, directions=s.directions, deltas=s.deltas,
        lengths=s.lengths + rng.uniform(-1e-6, 1e-6, s.lengths.shape))
        for s in ring_sets]
    jet = recover_first_jet(noisy)
    for i, y in enumerate(ring(RING_POINTS)):
        assert jet.h0[i, 0, 0] == pytest.approx(1.0, abs=1e-4)
        assert jet.drho_h[i, 0, 0] == pytest.approx(jet_truth(float(y))[1],
                                                    abs=1e-3)


def test_deep_interior_bump_is_invisible(bump_family, hp_sets):
    """The tables only see the collar the short geodesics sweep.

    The bump family differs from the flat model only on rho > 0.3, beyond
    the reach of every delta in the grid, so tables and recovered jets
    must coincide with the flat ones.
    """
    bump_sets = [synthesize_samples(bump_family, float(y), [[1.0]])
                 for y in ring(3)]
    for sb, sf in zip(bump_sets, hp_sets):
        assert np.max(np.abs(sb.lengths - sf.lengths)) < 1e-9
    jet = recover_first_jet(bump_sets)
    assert np.max(np.abs(jet.h0 - 1.0)) < 1e-8
    assert np.max(np.abs(jet.drho_h)) < 1e-6


# ---------------------------------------------------------------------------
# forward model of the fitting route

MODEL_DIRS = np.array([[1.0], [-1.0], [2.0]])


def traced_model_lengths(params, dirs=MODEL_DIRS, deltas=DELTA_GRID):
    fam = taylor1d_family(*params, rho_max=0.35)
    return np.array([[renormalized_length(
        trace_geodesic(fam, (0.0, om[0] / d))).value for d in deltas]
        for om in dirs])


def test_flat_model_lengths_are_closed_form():
    deltas = np.asarray(DELTA_GRID)
    got = recover._forward_lengths(MODEL_DIRS, deltas, (1.0, 0.0, 0.0))
    want = 2.0 * np.log(2.0 * deltas / np.abs(MODEL_DIRS))
    assert np.max(np.abs(got - want)) < 1e-13


@pytest.mark.parametrize("params", [(1.0, 0.2, 0.24), (1.3, -0.5, 0.4),
                                    (0.8, 0.3, -2.0), (1.0, -0.6, -1.5)])
def test_model_lengths_match_traced_lengths(params):
    got = recover._forward_lengths(MODEL_DIRS, np.asarray(DELTA_GRID),
                                   params)
    assert np.max(np.abs(got - traced_model_lengths(params))) <= 1e-9


@pytest.mark.parametrize("params, error", [
    ((1.0, 0.0, 40.0), CollarExitError),   # turns at rho = 0.447 for eta 5
    ((1.0, 0.0, 60.0), CollarExitError),   # never turns for eta 5
    ((1.0, -10.0, 0.0), MetricError),      # h = 0 at rho = 0.1
])
def test_model_without_a_collar_geodesic_scores_1e3(params, error):
    # the trace of the largest-delta geodesic fails the same way
    with pytest.raises(error):
        traced_model_lengths(params, dirs=[[1.0]], deltas=[0.2])
    samp = LengthSampleSet(y0=np.array([0.0]), directions=MODEL_DIRS,
                           deltas=np.asarray(DELTA_GRID),
                           lengths=np.zeros((3, len(DELTA_GRID))))
    assert np.array_equal(recover._model_misfit(samp, np.array(params)),
                          np.full(3 * len(DELTA_GRID), 1e3))


# ---------------------------------------------------------------------------
# forward-model fitting route


def test_fit_route_traces_no_geodesic(ring_sets, monkeypatch):
    def no_trace(*args, **kwargs):
        raise AssertionError("recover_jet_fit traced a geodesic")

    monkeypatch.setattr(recover, "trace_geodesic", no_trace)
    jet = recover_jet_fit([ring_sets[0]])
    assert jet.fit_status[0] in (1, 2, 3, 4)


def test_fit_route_builds_no_family(ring_sets, monkeypatch):
    def no_family(fam):
        raise AssertionError("recover_jet_fit built a metric family")

    monkeypatch.setattr(metric, "_validate_family", no_family)
    jet = recover_jet_fit([ring_sets[0]])
    assert jet.order == 2 and jet.fit_status[0] in (1, 2, 3, 4)


def traced_fit(samp):
    """LM fit of the taylor1d model whose lengths come from traces."""
    from scipy.optimize import least_squares

    def misfit(p):
        try:
            sim = traced_model_lengths(p, samp.directions, samp.deltas)
        except (MetricError, FlowError):
            return np.full(samp.lengths.size, 1e3)
        return (sim - samp.lengths).ravel()

    # the traces' integration noise needs a step far above sqrt(eps)
    return least_squares(misfit, np.array([1.0, 0.0, 0.0]), method="lm",
                         diff_step=1e-6).x


@pytest.mark.parametrize("index", [0, RING_POINTS // 2], ids=["y=0", "y=pi"])
def test_fit_route_agrees_with_a_traced_model_fit(ring_sets, index):
    jet = recover_jet_fit([ring_sets[index]])
    h0, dh, d2h = traced_fit(ring_sets[index])
    assert jet.h0[0, 0, 0] == pytest.approx(h0, abs=1e-6)
    assert jet.drho_h[0, 0, 0] == pytest.approx(dh, abs=1e-5)
    assert jet.d2rho_h[0, 0, 0] == pytest.approx(d2h, abs=1e-4)


def test_fit_route_flat_model(hp_sets):
    jet = recover_jet_fit([hp_sets[0]])
    assert jet.h0[0, 0, 0] == pytest.approx(1.0, abs=1e-6)
    assert abs(jet.drho_h[0, 0, 0]) < 1e-4
    assert abs(jet.d2rho_h[0, 0, 0]) < 1e-2
    assert jet.jacobian_sv.shape == (1, 3)
    assert np.all(jet.unresolved[0] == 0.0)


def test_fit_route_reports_solver_cost(hp_sets):
    jet = recover_jet_fit([hp_sets[0]])
    assert jet.fit_nfev[0] >= 1
    assert 1 <= jet.fit_status[0] <= 4
    out = json.loads(jet.to_json())
    assert out["fit_nfev"] == jet.fit_nfev.tolist()
    assert out["fit_status"] == jet.fit_status.tolist()
    asym = recover_first_jet([hp_sets[0]])
    assert asym.fit_nfev is None and asym.fit_status is None
    assert "fit_nfev" not in json.loads(asym.to_json())


def test_fit_route_study_family(ring_sets):
    # y = 0 is a tangentially symmetric point, where the radial Taylor
    # model introduces no second-order bias
    jet = recover_jet_fit([ring_sets[0]])
    h0, dh, d2h = jet_truth(0.0)
    assert jet.h0[0, 0, 0] == pytest.approx(h0, abs=1e-4)
    assert jet.drho_h[0, 0, 0] == pytest.approx(dh, abs=1e-3)
    assert jet.d2rho_h[0, 0, 0] == pytest.approx(d2h, abs=5e-2)


def test_fit_route_flags_unresolvable_grid(ring_sets):
    """A narrow small-delta grid cannot pin the second derivative.

    The final-Jacobian singular values must expose this and the near-null
    direction must point along the second-derivative coefficient.
    """
    narrow = subset(ring_sets[0], slice(4, 7))
    jet = recover_jet_fit([narrow])
    sv = jet.jacobian_sv[0]
    assert sv[-1] / sv[0] < 1e-4
    flag = jet.unresolved[0]
    assert np.any(flag != 0.0)
    assert abs(flag[2]) > 0.9


# ---------------------------------------------------------------------------
# validation and serialization


def _fake_set(deltas, lengths, y0=0.0):
    return LengthSampleSet(y0=np.array([y0]), directions=np.array([[1.0]]),
                           deltas=np.asarray(deltas, dtype=float),
                           lengths=np.asarray(lengths, dtype=float))


def test_sample_set_validation_errors():
    with pytest.raises(RecoveryError, match="decreasing"):
        _fake_set([0.1, 0.2, 0.4], [[0.0, 0.0, 0.0]]).validate()
    with pytest.raises(RecoveryError, match="shape"):
        _fake_set([0.2, 0.1], [[0.0, 0.0, 0.0]]).validate()
    with pytest.raises(RecoveryError, match="incomplete"):
        _fake_set([0.4, 0.2, 0.1], [[0.0, np.nan, 0.0]]).validate()
    with pytest.raises(RecoveryError, match="positive"):
        _fake_set([0.2, 0.1, -0.1], [[0.0, 0.0, 0.0]]).validate()


def test_synthesis_guards(halfplane):
    with pytest.raises(RecoveryError, match="at least 3"):
        synthesize_samples(halfplane, 0.0, [[1.0]], deltas=(0.2, 0.1))
    with pytest.raises(RecoveryError, match="safe scale"):
        synthesize_samples(halfplane, 0.0, [[1.0]], deltas=(0.5, 0.25, 0.125))
    with pytest.raises(RecoveryError, match="nonzero"):
        synthesize_samples(halfplane, 0.0, [[1.0], [0.0]])


def test_synthesis_refuses_directions_of_the_wrong_length(halfplane):
    # a direction is a covector at y0: it has one component per boundary
    # coordinate, and a longer one used to end in numpy's matmul error
    with pytest.raises(RecoveryError, match="need 1 components, got 2"):
        synthesize_samples(halfplane, 0.0, [[1.0, 2.0]])
    fam2 = product_family(halfplane, halfplane)
    with pytest.raises(RecoveryError, match="need 2 components, got 1"):
        synthesize_samples(fam2, [0.0, 0.0], [[1.0]])


def test_synthesis_refuses_non_positive_deltas(halfplane, monkeypatch):
    with pytest.raises(RecoveryError, match="deltas must be positive"):
        synthesize_samples(halfplane, 0.0, [[1.0]], deltas=(0.2, 0.1, 0.0))

    def no_trace(*args, **kwargs):
        raise AssertionError("synthesize_samples traced a geodesic")

    monkeypatch.setattr(recover, "trace_geodesic", no_trace)
    with pytest.raises(RecoveryError, match="deltas must be positive"):
        synthesize_samples(halfplane, 0.0, [[1.0]], deltas=(0.2, 0.1, -0.05))


def test_synthesis_refuses_negative_noise_before_tracing(halfplane,
                                                       monkeypatch):
    def no_trace(*args, **kwargs):
        raise AssertionError("synthesize_samples traced a geodesic")

    monkeypatch.setattr(recover, "trace_geodesic", no_trace)
    with pytest.raises(RecoveryError, match="noise"):
        synthesize_samples(halfplane, 0.0, [[1.0]], noise=-1e-3)


@pytest.mark.parametrize("route", [recover_first_jet, recover_jet_fit],
                         ids=["asymptotic", "fit"])
def test_no_sample_sets_is_an_error(route):
    with pytest.raises(RecoveryError, match="no sample sets"):
        route([])


@pytest.mark.parametrize("route", [recover_first_jet, recover_jet_fit],
                         ids=["asymptotic", "fit"])
def test_every_sample_set_must_be_one_dimensional(halfplane, hp_sets, route):
    # a two-dimensional set after a one-dimensional one is refused before
    # any extraction or fit starts
    space = product_family(halfplane, halfplane)
    plane_set = synthesize_samples(space, [0.0, 0.0],
                                   [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    with pytest.raises(NotImplementedError, match="one boundary dimension"):
        route([hp_sets[0], plane_set])


def test_json_round_trips(ring_sets):
    jet = recover_first_jet(ring_sets)
    out = json.loads(jet.to_json())
    assert np.allclose(out["drho_h"], jet.drho_h)
    assert out["order"] == 1

"""The package's numpy-only numerics, pinned to scipy, and its scipy-free
import.

The DOP853 tableau, the Brent root finder and the Gauss rules are compared
with scipy's, which is the reference here only: the tableau, the roots and
the Gauss nodes bit for bit, the Gauss-Jacobi weights to a few ulps.
``import ahx`` and the main CLI commands must leave scipy unloaded.
"""
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate._ivp import dop853_coefficients
from scipy.optimize import brentq as scipy_brentq
from scipy.special import roots_jacobi, roots_legendre

from ahx import (_brent, _dop853_tableau, conjugate_points, flow,
                 grazing_eta, jacobi, jacobi_system, quadrature,
                 trace_geodesic, xray)
from ahx.renorm import DEFAULT_LAMBDA_GRID

ROOT = Path(__file__).resolve().parents[1]


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _ulps(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b)
                        / np.spacing(np.maximum(np.abs(a), np.abs(b)))))


# ---------------------------------------------------------------------------
# DOP853 tableau


def test_dop853_tableau_is_scipys():
    for name in ("A", "B", "C", "D", "E3", "E5"):
        assert _same_bits(getattr(_dop853_tableau, name),
                          getattr(dop853_coefficients, name)), name
    for name in ("N_STAGES", "N_STAGES_EXTENDED", "INTERPOLATOR_POWER"):
        assert getattr(_dop853_tableau, name) == \
            getattr(dop853_coefficients, name), name


# ---------------------------------------------------------------------------
# Brent root finder


@pytest.fixture
def brackets(monkeypatch):
    """Every Brent call of flow and xray, also solved by scipy's brentq on
    the same function, bracket and tolerances: a list of (a, b, ours,
    scipy's)."""
    calls = []

    def both(f, a, b, **kw):
        ours = _brent.brentq(f, a, b, **kw)
        calls.append((a, b, ours, scipy_brentq(f, a, b, **kw)))
        return ours

    for mod in (flow, xray):
        monkeypatch.setattr(mod, "brentq", both)
    return calls


def _assert_scipys_roots(calls):
    gaps = [_ulps(ours, ref) for _, _, ours, ref in calls]
    assert all(_same_bits(ours, ref) for _, _, ours, ref in calls), \
        f"ulp gaps {gaps}"


@pytest.mark.parametrize("tol", [1e-8, 1e-12])
def test_arrival_search_is_scipys_brentq(disc, halfplane, perturbed,
                                         brackets, tol):
    zs = [(0.3, 1.1), (0.0, -0.7), (1.0, 3.0), (2.5, -7.5), (4.0, 12.0)]
    for fam in (disc, halfplane, perturbed):
        for z in zs[2:] if fam is perturbed else zs:
            trace_geodesic(fam, z, tol=tol)
    assert len(brackets) == 13
    _assert_scipys_roots(brackets)


def test_overshoot_bracket_is_scipys_brentq(halfplane, brackets,
                                            monkeypatch):
    # When the first step from the boundary overshoots the whole arc, the
    # arrival is bracketed from the interior maximum of rho.  At tol 1e-8
    # or 1e-12 that first step stays far shorter than the arc, so a
    # whole-arc first step, which tol 1e-2 accepts, forces the branch.
    tau = trace_geodesic(halfplane, (0.3, 1.0)).tau_plus
    monkeypatch.setattr(flow._Dop853, "_initial_step",
                        lambda self: 1.05 * tau)
    traj = trace_geodesic(halfplane, (0.3, 1.0), tol=1e-2)
    assert traj.stats.n_rejected == 0
    assert len(brackets) == 2     # the reference trace's, then the branch's
    lo, hi, _, _ = brackets[-1]
    assert 0.4 * tau < lo < 0.6 * tau < tau < hi
    _assert_scipys_roots(brackets)


def test_conjugate_point_brackets_are_scipys_brentq(bump_family, brackets):
    # the Jacobi layer's roots are Newton's (jacobi._newton): the crossings
    # of the bump's edges on a dense output, and the conjugate zeros of a
    # field, against scipy's brentq on the same functions and brackets
    found, crossings = [], 0
    for eta in (3.0, 3.1, 3.2, -3.2):
        traj = trace_geodesic(bump_family, (0.0, eta))
        system = jacobi_system(bump_family, traj)
        zeros = conjugate_points(system, 18.0, t0=-6.0)
        field = jacobi.jacobi_solve(system, 0.0, 1.0, (-6.0, 12.0))
        y = field.ys[:, 0]
        i = np.flatnonzero(np.sign(y[1:-1]) * np.sign(y[2:]) < 0.0) + 1
        assert len(zeros) == i.size
        for t, a, b in zip(zeros, field.ts[i], field.ts[i + 1]):
            ref = scipy_brentq(lambda t: field.at(t)[0], a, b, xtol=1e-15)
            assert abs(t - ref) < 1e-12
        found += zeros
        sol = traj._sol
        for level, tau in zip(*jacobi._crossings(sol, bump_family.breaks)):
            j = np.searchsorted(sol.ts, tau) - 1
            ref = scipy_brentq(lambda s: sol.batch([s])[0, 0] - level,
                               sol.ts[j], sol.ts[j + 1], xtol=1e-15)
            assert abs(tau - ref) < 1e-12
            crossings += 1
    # each trace's arrival and its apex (the root of xi_b that anchors t =
    # 0) are Brent's; each trace crosses the bump's edge rho_lo on both
    # sides of its apex, and each field has one conjugate zero
    assert len(found) == 4 and crossings == 8 and len(brackets) == 8
    _assert_scipys_roots(brackets)


def test_grazing_eta_is_scipys_brentq(disc, perturbed, bump_family,
                                      brackets):
    for fam, rho in ((disc, 0.3), (perturbed, 0.2), (bump_family, 0.45)):
        grazing_eta(fam, rho)
    # each outer iterate runs 16 inner searches, once for each solver
    assert len(brackets) > 100
    _assert_scipys_roots(brackets)


def _outcome(solver, *args, **kw):
    try:
        return solver(*args, **kw).hex()
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("args, kw", [
    ((lambda x: x ** 3 - 2.0, 2.0, 3.0), {}),             # same signs
    ((lambda x: x ** 3 - 2.0, -1.0, -3.0), {}),
    ((lambda x: math.nan, 0.0, 1.0), {}),
    ((lambda x: x, -1.0, 1.0), {"xtol": 0.0}),
    ((lambda x: x, -1.0, 1.0), {"rtol": 1e-16}),
    ((lambda x: x - 0.25, 0.25, 1.0), {}),                # a root at an end
    ((lambda x: math.cos(x) - x, 0.0, 2.0), {}),
])
def test_brent_port_fails_as_scipy_does(args, kw):
    assert _outcome(_brent.brentq, *args, **kw) == \
        _outcome(scipy_brentq, *args, **kw)


@pytest.mark.parametrize("f, a, b, maxiter", [
    (lambda x: math.cos(x) - x, 0.0, 2.0, 3),
    (lambda x: math.tanh(50.0 * (x - 0.3)), -1.0, 2.0, 5),
])
def test_brent_port_stops_where_scipy_does(monkeypatch, f, a, b, maxiter):
    # too few iterations to converge: the same RuntimeError as scipy's
    monkeypatch.setattr(_brent, "MAXITER", maxiter)
    outcome = _outcome(_brent.brentq, f, a, b)
    assert outcome[0] is RuntimeError
    assert outcome == _outcome(scipy_brentq, f, a, b, maxiter=maxiter)


# ---------------------------------------------------------------------------
# Gauss rules


# every rule size the library's defaults use
@pytest.mark.parametrize("n", [4, 8, 10, 12, 16, 24, 60])
def test_gauss_legendre_rule_is_scipys(n):
    x, w = quadrature._gl_rule(n)
    xs, ws = roots_legendre(n)
    assert _same_bits(x, xs) and _same_bits(w, ws)


@pytest.mark.parametrize("lam", DEFAULT_LAMBDA_GRID)
def test_gauss_jacobi_rule_matches_scipys(lam):
    # The nodes are scipy's.  The weights are normalized to the weight's
    # integral 2**(beta+1) / (beta+1), where scipy evaluates
    # 2**(beta+1) B(1, beta+1) from Gamma values; they differ by <= 4 ulps.
    x, w = quadrature._gj_rule(lam - 1.0)
    xs, ws = roots_jacobi(24, 0.0, lam - 1.0)
    assert _same_bits(x, xs)
    assert _ulps(w, ws) <= 4.0


# ---------------------------------------------------------------------------
# scipy stays unloaded


def _scipy_modules_after(code):
    """scipy modules loaded in a fresh interpreter after running code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\nprint(sorted(m for m in "
         "sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=env, check=True, cwd=ROOT)
    return out.stdout.strip().splitlines()[-1]


def test_import_ahx_loads_no_scipy():
    assert _scipy_modules_after("import ahx") == "[]"


def test_cli_commands_load_no_scipy(tmp_path):
    # every shipped config; the recover one takes the asymptotic route, as
    # only the LM fit route of recover and gauge_normalize import scipy
    configs = sorted((ROOT / "scripts" / "configs").glob("*.json"))
    runs = [(cfg.stem.split("_")[0], str(cfg), str(tmp_path / cfg.stem))
            for cfg in configs]
    assert len(runs) == 7
    code = ("from ahx.cli import main\n"
            f"for cmd, cfg, out in {runs!r}:\n"
            "    assert main([cmd, '--config', cfg, '--out', out]) == 0\n")
    assert _scipy_modules_after(code) == "[]"

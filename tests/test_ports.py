"""The package's numpy-only numerics, pinned to scipy, and its scipy-free
import.

scipy is the reference here only.  The DOP853 tableau and the Gauss nodes
are scipy's bit for bit, and the Gauss-Jacobi weights to a few ulps.  The
package's roots, all by one batched Newton's method (``flow._newton``), are
scipy's ``brentq`` roots of the same functions on the same brackets, to
1e-13 in tau and 1e-12 in t and |eta|.  ``import ahx`` and the main CLI
commands must leave scipy unloaded.
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

from ahx import (_dop853_tableau, conjugate_points, flow,
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
# roots: the package's batched Newton against scipy's brentq


@pytest.fixture
def arrivals(monkeypatch):
    """(arrival step, located arrival time) of every trace that retakes its
    arrival step: the step the tracing driver's stepper rewinds, and the
    time it aims the retake at."""
    calls = []
    step, rewind = flow._Dop853.step, flow._Dop853.rewind

    def stepped(self):
        self.last = step(self)
        return self.last

    def rewound(self, t_bound):
        calls.append((self.last, t_bound))
        rewind(self, t_bound)

    monkeypatch.setattr(flow._Dop853, "step", stepped)
    monkeypatch.setattr(flow._Dop853, "rewind", rewound)
    return calls


def _on_step(st, k):
    """State component k on the dense output of one step, a function of
    tau."""
    return lambda t: float(flow._horner(st.F[:, k], st.y_old[k],
                                        (t - st.t_old) / st.h))


def _brentq_turn(st, k):
    """scipy's root of xi_b (component k) on a step where it turns sign."""
    return scipy_brentq(_on_step(st, k), st.t_old, st.t, xtol=1e-15)


def _brentq_arrival(st, n):
    """scipy's root of rho on an arrival step, bracketed from the step's
    turning point when xi_b changes sign on it, else from its start."""
    xi = _on_step(st, 1 + n)
    lo = _brentq_turn(st, 1 + n) if xi(st.t_old) > 0.0 > xi(st.t) \
        else st.t_old
    return scipy_brentq(_on_step(st, 0), lo, st.t, xtol=1e-15)


def _assert_apex_is_brentqs(traj):
    tau = traj.rho_peak()[0]
    sol = traj._sol
    st = sol.steps[int(np.searchsorted(sol.ts, tau)) - 1]
    assert abs(tau - _brentq_turn(st, 1 + traj.n)) < 1e-13


@pytest.mark.parametrize("tol", [1e-8, 1e-12])
def test_arrival_search_is_scipys_brentq(disc, halfplane, perturbed,
                                         arrivals, tol):
    zs = [(0.3, 1.1), (0.0, -0.7), (1.0, 3.0), (2.5, -7.5), (4.0, 12.0)]
    for fam in (disc, halfplane, perturbed):
        for z in zs[2:] if fam is perturbed else zs:
            _assert_apex_is_brentqs(trace_geodesic(fam, z, tol=tol))
    assert len(arrivals) == 13
    for st, tau in arrivals:
        assert abs(tau - _brentq_arrival(st, 1)) < 1e-13


def test_overshoot_bracket_is_scipys_brentq(halfplane, arrivals,
                                            monkeypatch):
    # When the first step from the boundary overshoots the whole arc, the
    # arrival is bracketed from the step's turning point.  At tol 1e-8 or
    # 1e-12 that first step stays far shorter than the arc, so a whole-arc
    # first step, which tol 1e-2 accepts, forces the branch.
    tau = trace_geodesic(halfplane, (0.3, 1.0)).tau_plus
    monkeypatch.setattr(flow._Dop853, "_initial_step",
                        lambda self: 1.05 * tau)
    traj = trace_geodesic(halfplane, (0.3, 1.0), tol=1e-2)
    assert traj.stats.n_rejected == 0
    assert len(arrivals) == 2     # the reference trace's, then the branch's
    st, tau_star = arrivals[-1]
    assert st.t_old == 0.0
    assert 0.4 * tau < _brentq_turn(st, 2) < 0.6 * tau < tau < st.t
    assert abs(tau_star - _brentq_arrival(st, 1)) < 1e-13
    _assert_apex_is_brentqs(traj)


def test_conjugate_point_brackets_are_scipys_brentq(bump_family, arrivals):
    # the arrival, the apex and the crossings of the bump's edges on a
    # trace, and the conjugate zeros of a field, against scipy's brentq on
    # the same functions and brackets
    found, crossings = [], 0
    for eta in (3.0, 3.1, 3.2, -3.2):
        traj = trace_geodesic(bump_family, (0.0, eta))
        _assert_apex_is_brentqs(traj)
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
        for level, tau in zip(*flow._crossings(sol, bump_family.breaks, 2,
                                               traj._turns)):
            j = np.searchsorted(sol.ts, tau) - 1
            ref = scipy_brentq(lambda s: sol.batch([s])[0, 0] - level,
                               sol.ts[j], sol.ts[j + 1], xtol=1e-15)
            assert abs(tau - ref) < 1e-12
            crossings += 1
    # each trace crosses the bump's edge rho_lo on both sides of its apex,
    # and each field has one conjugate zero
    assert len(found) == 4 and crossings == 8 and len(arrivals) == 4
    for st, tau in arrivals:
        assert abs(tau - _brentq_arrival(st, 1)) < 1e-13


def test_grazing_eta_is_scipys_brentq(disc, halfplane, perturbed,
                                      bump_family):
    # the definition: the outer root in |eta| of the deepest turning point
    # over 16 boundary positions, each an inner root in rho of rho |eta| =
    # sqrt(h(rho, y)), or the collar's top when that has no root
    for fam, rho in ((disc, 0.3), (perturbed, 0.2), (bump_family, 0.45)):
        top = min(fam.rho_max * 0.999, 1e3)

        def deepest(eta):
            depths = []
            for yv in np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False):
                def fn(r):
                    return r * eta - math.sqrt(fam.profiles[0](r, yv)[0])
                depths.append(top if fn(top) <= 0.0 else
                              scipy_brentq(fn, 1e-12, top, xtol=1e-15))
            return max(depths) - rho

        ref = scipy_brentq(deepest, 1e-3, 1e3, xtol=1e-15)
        assert abs(grazing_eta(fam, rho) - ref) < 1e-12
    # no |eta| in [1e-3, 1e3] reaches these depths
    for fam, rho in ((halfplane, 1e-4), (disc, 2.0), (disc, 0.0)):
        with pytest.raises(ValueError):
            grazing_eta(fam, rho)


def test_newton_root_does_not_depend_on_its_batch(disc):
    # every Newton bracket of these traces (arrival, turning points, the
    # crossings of many levels), among them the arrival brackets of |eta|
    # = 1e16, where tau_plus is about 3e-16: each root is the same, bit for
    # bit, alone as in its own batch or in one batch of all of them
    calls = []
    newton = flow._newton

    def recorded(step, x, lo, hi):
        roots = newton(step, x, lo, hi)
        calls.append((step, x, lo, hi, roots))
        return roots

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flow, "_newton", recorded)
        for tol in (1e-8, 1e-12):
            trace_geodesic(disc, (0.3, 1e16), tol=tol)
        traj = trace_geodesic(disc, (0.3, 1.1), tol=1e-8)
        traj.quad_nodes(0.0, traj.tau_plus,
                        rho_breaks=np.linspace(0.02, 0.5, 9))
    assert any(hi[0] < 1e-15 for _, _, _, hi, _ in calls)
    owner = np.concatenate([np.full(x.size, c)
                            for c, (_, x, _, _, _) in enumerate(calls)])
    local = np.concatenate([np.arange(x.size) for _, x, _, _, _ in calls])
    x, lo, hi, roots = (np.concatenate([c[k] for c in calls])
                        for k in range(1, 5))

    def together(t, i):
        out = np.empty(t.size)
        for c, (step, *_) in enumerate(calls):
            own = owner[i] == c
            if own.any():
                out[own] = step(t[own], local[i[own]])
        return out

    assert _same_bits(flow._newton(together, x, lo, hi), roots)
    for p in range(x.size):
        step = calls[owner[p]][0]
        alone = flow._newton(lambda t, i, q=local[p]: step(t, i + q),
                             x[[p]], lo[[p]], hi[[p]])
        assert _same_bits(alone, roots[[p]])
    assert x.size > 20


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

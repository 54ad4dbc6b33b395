"""The four seeded workloads of the ahx benchmark.

Each workload turns ``--seed`` into concrete inputs (covectors, boundary
pairs, sample points, configs) and hands only those to the public ``ahx``
API.  Inputs are stratified: the seed moves each input inside a fixed
stratum, so the work per pass stays nearly the same from seed to seed and
run-to-run spread measures the program, not the draw.

Fields, weights and bump profiles are numpy expressions in ``y[..., 0]``,
so they give the same values whether the program evaluates them one point
at a time or on arrays.  The boundary metric is read through
``eval_metric`` only.

A workload has:

* ``setup(api)``: families, fields, configs and one warm-up trace; run
  several times, timed, and reported as ``setup_s``;
* ``reference()``: closed-form or interior-side oracles, untimed;
* ``run_pass(api, rec)``: one timed pass over every item;
* ``final_checks(rec)``: checks made once per run, outside the timed passes.
"""
from __future__ import annotations

import copy
import json
import math
import os
import shutil
from pathlib import Path

import numpy as np

from ahx import SymmetricTensorField, eval_metric
from ahx.cli import read_csv
from ahx.quadrature import gauss_nodes

TWO_PI = 2.0 * math.pi

# Perturbed fixture and collar families of the test suite (tests/conftest.py).
PERTURBED = dict(a_cos=[0.0, 0.1], b_cos=[0.02], b_sin=[0.0, 0.03])
JET = dict(a_cos=[0.0, 0.1], b_cos=[0.05])
BUMP = dict(bump={"amplitude": 1.0, "rho_lo": 0.3, "rho_hi": 0.45},
            rho_max=0.7)


def jet_truth(y0):
    """Radial jet of the JET family h = exp(2 rho (0.1 cos y + 0.05 rho))."""
    a = 0.1 * math.cos(y0)
    return 1.0, 2.0 * a, 4.0 * a * a + 0.2


def poly_bump(t):
    """C2 bump on [0, 1], vanishing to third order at both ends, peak 1.

    ``ahx.quadrature.poly_bump`` with numpy operations, so it takes arrays.
    """
    t = np.asarray(t, dtype=float)
    return np.where((t > 0.0) & (t < 1.0), (4.0 * t * (1.0 - t)) ** 3, 0.0)


def _y0(y):
    return np.asarray(y, dtype=float)[..., 0]


# ---------------------------------------------------------------------------
# fields (criteria 6 and 8)

BUMP_SUPPORT = (0.3, 0.45)


def gaussian_bump(rho, y):
    """Rank-0 weight-1 Gaussian bump supported in rho in [0.3, 0.45]."""
    lo, hi = BUMP_SUPPORT
    return (np.exp(-((rho - 0.375) / 0.06) ** 2)
            * poly_bump((rho - lo) / (hi - lo)) * (1.0 + 0.3 * np.cos(_y0(y))))


def potential_a(rho, y):
    return rho * rho * np.exp(-rho) * (1.0 + 0.3 * np.cos(_y0(y)))


def potential_c(rho, y):
    yv = _y0(y)
    return np.stack([rho * rho * np.cos(yv),
                     rho * rho * (1.0 + 0.5 * np.sin(yv))], axis=-1)


def reference_1(rho, y):
    q = potential_a(rho, y)
    return np.stack([np.zeros_like(q), q], axis=-1)


def reference_2(rho, y):
    q = potential_a(rho, y)
    z = np.zeros_like(q)
    return np.stack([np.stack([z, z], axis=-1), np.stack([z, q], axis=-1)],
                    axis=-2)


# Santalo rule resolution and the tolerance matched to it.  The boundary sum
# is spectrally exact in y (the field has harmonics 0 and 1 only and the
# disc is rotation invariant), so the error comes from the eta panels; the
# tolerance sits above the error measured at each resolution (see META.json).
SANTALO = {False: dict(ny=4, n_panel=8, tol=2e-3),
           True: dict(ny=2, n_panel=2, tol=3e-1)}


class Workload:
    """Defaults shared by the workloads; see the module docstring."""

    name = ""
    layers = ()           # ahx modules the workload's calls load
    checks = ()           # names of the checks every run must make
    trajectories = ()     # trajectories of the last pass, for layer samples
    warmup = ()           # trajectories traced during setup

    def reference(self):
        pass

    def final_checks(self, rec):
        pass

    def close(self):
        pass


# ---------------------------------------------------------------------------


class SantaloGrid(Workload):
    """Many independent loose-tolerance traces, each followed by a transform.

    Covectors are the Santalo boundary rule: a periodic y grid with a seeded
    offset times panel-Gauss eta nodes aligned at +-grazing_eta(disc, 0.3).
    One seeded covector per third of the eta nodes also gets the rank-1 and
    rank-2 potentials of criterion 8 and their scale fields.
    """

    name = "santalo-grid"
    layers = ("metric", "flow", "xray")
    checks = ("santalo_sum", "potential_kernel")
    TRACE_TOL = 1e-8
    POTENTIAL_TOL = 1e-6
    KEPT_TRAJECTORIES = 8     # enough for the layer samples of a traced run

    def __init__(self, seed, tiny, root):
        rng = np.random.default_rng([seed, 1])
        res = SANTALO[tiny]
        self.ny, self.n_panel, self.sum_tol = (res["ny"], res["n_panel"],
                                               res["tol"])
        self.ys = (np.arange(self.ny) + rng.uniform()) * TWO_PI / self.ny
        n_eta = 4 * self.n_panel
        thirds = np.array_split(np.arange(n_eta), 1 if tiny else 3)
        self.potential_nodes = {(int(rng.integers(self.ny)),
                                 int(rng.choice(part))) for part in thirds}

    def setup(self, api):
        self.disc = api.disc_family()
        self.field = SymmetricTensorField(rank=0, weight=1,
                                          components=gaussian_bump)
        q_a = SymmetricTensorField(rank=0, weight=2, components=potential_a)
        q_c = SymmetricTensorField(rank=1, weight=2, components=potential_c)
        self.potentials = [
            (api.sym_derivative(q_a, self.disc),
             SymmetricTensorField(rank=1, weight=2, components=reference_1)),
            (api.sym_derivative(q_c, self.disc),
             SymmetricTensorField(rank=2, weight=2, components=reference_2)),
        ]
        eta_hi = api.grazing_eta(self.disc, BUMP_SUPPORT[0])
        edges = np.array([-1.0, -0.5, 0.0, 0.5, 1.0]) * eta_hi
        nodes = [gauss_nodes(a, b, self.n_panel)
                 for a, b in zip(edges[:-1], edges[1:])]
        self.etas = np.concatenate([x for x, _ in nodes])
        self.eta_w = np.concatenate([w for _, w in nodes])
        self.warmup = [api.trace_geodesic(self.disc, (float(self.ys[0]), 1.0),
                                          tol=self.TRACE_TOL)]

    def reference(self):
        """Interior side of Santalo's formula: 2 pi int f sqrt(h) / rho^2."""
        xr, wr = gauss_nodes(*BUMP_SUPPORT, 60)
        ys = np.linspace(0.0, TWO_PI, 16, endpoint=False)
        acc = 0.0
        for rho, w in zip(xr, wr):
            h = np.array([eval_metric(self.disc, rho, [yv]).h_mat[0, 0]
                          for yv in ys])
            f = gaussian_bump(rho, ys[:, None])
            acc += w * float(np.sum(f * np.sqrt(h))) / rho ** 2
        self.interior = TWO_PI * acc * TWO_PI / ys.size

    def run_pass(self, api, rec):
        total = [0.0]
        self.trajectories = []
        wy = TWO_PI / self.ny

        def item(i, j):
            traj = api.trace_geodesic(
                self.disc, (float(self.ys[i]), float(self.etas[j])),
                tol=self.TRACE_TOL)
            total[0] += wy * self.eta_w[j] * api.xray_transform(self.field,
                                                                traj)
            if len(self.trajectories) < self.KEPT_TRAJECTORIES:
                self.trajectories.append(traj)
            if (i, j) in self.potential_nodes:
                for dq, ref in self.potentials:
                    err = api.xray_potential(dq, traj)
                    scale = max(1.0, abs(api.xray_reference(ref, traj)))
                    rec.check("potential_kernel", err / scale,
                              self.POTENTIAL_TOL)

        for i in range(self.ny):
            for j in range(self.etas.size):
                rec.run_item("santalo.covector", item, i, j)

        def boundary_sum():
            rec.check("santalo_sum",
                      (total[0] - self.interior) / self.interior, self.sum_tol)

        rec.run_item("santalo.sum", boundary_sum)


class InverseSolve(Workload):
    """Sequential solvers at tol 1e-12, each trace depending on the last.

    Disc pairs take one separation near each of 0.75, 1.65 and 2.55 (inside
    [0.3, 3.0]) at a seeded boundary point; the perturbed pair has
    separation near 0.6 (at most 0.85, inside the collar).  Each pair runs
    the shooting distance, both length routes on the returned trajectory
    and the scattering Jacobian at the returned covector.  Jet recovery runs
    the asymptotic route on a 4-point periodic grid with a seeded offset and
    the Levenberg-Marquardt fit at y = 0 or y = pi, the tangentially
    symmetric points where criterion 11 checks it.
    """

    name = "inverse-solve"
    layers = ("metric", "flow", "renorm", "recover")
    checks = ("disc_distance", "mellin_residue", "length_routes",
              "symplecticity", "jet_h0", "jet_dh", "fit_dh", "fit_d2h")
    # (family, separation, boundary point or None for anywhere); the seed
    # moves each by up to JITTER
    PAIRS = (("disc", 0.75, None), ("disc", 1.65, None), ("disc", 2.55, None),
             ("perturbed", 0.6, 1.0))
    JITTER = 0.1
    N_JET = 4

    def __init__(self, seed, tiny, root):
        rng = np.random.default_rng([seed, 2])
        self.pairs = []
        for kind, sep, y in self.PAIRS[1:2] if tiny else self.PAIRS:
            y = rng.uniform(0, TWO_PI) if y is None else \
                y + rng.uniform(-self.JITTER, self.JITTER)
            self.pairs.append(
                (kind, y, y + sep + rng.uniform(-self.JITTER, self.JITTER)))
        self.jet_ys = (np.arange(self.N_JET) + rng.uniform()) \
            * TWO_PI / self.N_JET
        self.fit_y = math.pi * int(rng.integers(2))

    def setup(self, api):
        self.families = {"disc": api.disc_family(),
                         "perturbed": api.perturbed_family(**PERTURBED)}
        self.jet = api.perturbed_family(**JET)
        self.warmup = [api.trace_geodesic(self.families["disc"], (0.0, 1.0),
                                          tol=1e-12)]

    def run_pass(self, api, rec):
        self.trajectories = []

        def pair(kind, ym, yp):
            fam = self.families[kind]
            res = api.boundary_distance(fam, ym, yp)
            self.trajectories.append(res.trajectory)
            if kind == "disc":
                want = 2.0 * math.log(2.0 * math.sin((yp - ym) / 2.0))
                rec.check("disc_distance", res.value - want, 1e-6)
            length = api.renormalized_length(res.trajectory)
            mellin = api.mellin_length(res.trajectory)
            rec.check("mellin_residue", mellin.residue - 2.0, 1e-4)
            rec.check("length_routes", mellin.value - length.value, 1e-6)
            jac = api.scattering_jacobian(fam, (ym, float(res.eta[0])))
            rec.check("symplecticity", jac.det - 1.0, 1e-6)

        for kind, ym, yp in self.pairs:
            rec.run_item("inverse.pair", pair, kind, ym, yp)

        sets = []

        def synth(y0):
            sets.append(api.synthesize_samples(self.jet, y0, [[1.0]]))

        for y0 in self.jet_ys:
            rec.run_item("inverse.synth", synth, float(y0))

        def first_jet():
            jet = api.recover_first_jet(sets)
            for i, y0 in enumerate(self.jet_ys):
                h0, dh, _ = jet_truth(float(y0))
                rec.check("jet_h0", jet.h0[i, 0, 0] - h0, 1e-4)
                rec.check("jet_dh", jet.drho_h[i, 0, 0] - dh, 5e-3)

        rec.run_item("inverse.first_jet", first_jet)

        def fit():
            samples = api.synthesize_samples(self.jet, self.fit_y, [[1.0]])
            est = api.recover_jet_fit([samples])
            _, dh, d2h = jet_truth(self.fit_y)
            rec.check("fit_dh", est.drho_h[0, 0, 0] - dh, 1e-3)
            rec.check("fit_d2h", est.d2rho_h[0, 0, 0] - d2h, 5e-2)

        rec.run_item("inverse.fit", fit)


class JacobiSweep(Workload):
    """A few trajectories, each read many times through dense output.

    Covectors on the perturbed fixture and on the bump family, each a fixed
    stratum centre moved by the seed.  The perturbed fixture has no
    conjugate points (criterion 12); the bump family may.
    """

    name = "jacobi-sweep"
    layers = ("metric", "flow", "jacobi")
    checks = ("wronskian", "decay_nu", "conjugate_free")
    # (family, y, eta): perturbed covectors of criterion 12 and bump
    # covectors across its positive-curvature band; the seed moves y by up
    # to Y_JITTER and eta by up to ETA_JITTER
    STRATA = (("perturbed", 0.7, 2.6), ("perturbed", 2.0, 3.0),
              ("perturbed", 4.0, 3.8), ("bump", 1.0, 2.2),
              ("bump", 3.0, 3.2), ("bump", 5.0, 4.2))
    Y_JITTER = 0.15
    ETA_JITTER = 0.05
    WRONSKIAN_T = 8.0

    def __init__(self, seed, tiny, root):
        rng = np.random.default_rng([seed, 3])
        strata = (self.STRATA[1], self.STRATA[4]) if tiny else self.STRATA
        self.covectors = [
            (kind, (y + rng.uniform(-self.Y_JITTER, self.Y_JITTER),
                    eta + rng.uniform(-self.ETA_JITTER, self.ETA_JITTER)))
            for kind, y, eta in strata]

    def setup(self, api):
        self.families = {"perturbed": api.perturbed_family(**PERTURBED),
                         "bump": api.perturbed_family(**BUMP)}
        self.warmup = [api.trace_geodesic(self.families["perturbed"],
                                          (0.0, 3.0), tol=1e-10)]

    def run_pass(self, api, rec):
        self.trajectories = []
        ts = np.linspace(0.0, self.WRONSKIAN_T, 33)

        def item(kind, z):
            fam = self.families[kind]
            traj = api.trace_geodesic(fam, z, tol=1e-10)
            self.trajectories.append(traj)
            system = api.jacobi_system(fam, traj)
            frame = api.stable_unstable(system, T_asym=25.0)
            conj = api.conjugate_points(system, 12.0)
            fit = api.decay_fit(frame)
            # continue the unstable solution past the anchor; with the
            # stable one it spans the Jacobi fields on [0, WRONSKIAN_T]
            unstable = api.jacobi_solve(system, *frame.unstable_sol.at(0.0),
                                        (0.0, self.WRONSKIAN_T))
            w = api.wronskian(frame.stable_sol, unstable, ts)
            rec.check("wronskian", np.max(np.abs(w - w[0])) / abs(w[0]), 1e-6)
            rec.check("decay_nu", fit.nu - 1.0, 1e-3)
            if kind == "perturbed":
                rec.check_true("conjugate_free", len(conj) == 0)

        for kind, z in self.covectors:
            rec.run_item("jacobi.covector", item, kind, z)


class CliConfigs(Workload):
    """The seven shipped configs, through ``ahx.cli.main`` in process.

    Each config gets a seeded offset on its y values and pairs, except
    ``diagnose``: its eta = 2 covectors graze the collar edge rho = 0.5 and
    which of them trace changes under any shift of y, so an offset would
    change the work of a pass from seed to seed.  Every timed pass runs all
    seven with ``--jobs 2``; once per run, outside the timed passes, the
    same configs run with ``--jobs 1`` and the outputs must be
    byte-identical.
    """

    name = "cli-configs"
    layers = ("cli", "metric", "flow", "xray", "renorm", "recover", "jacobi")
    checks = ("exit_code", "row_status", "halfplane_scatter",
              "halfplane_length", "mellin_residue", "disc_distance", "jet_h0",
              "jet_dh", "conjugate_free", "decay_nu", "jobs_identical")
    MAX_OFFSET = 0.25
    FIXED = ("diagnose",)

    def __init__(self, seed, tiny, root):
        rng = np.random.default_rng([seed, 4])
        self.work = Path(root) / ".bench_work" / f"{self.name}-{os.getpid()}"
        self.configs = {}
        configs = Path(root) / "scripts" / "configs"
        for path in sorted(configs.glob("*.json")):
            cmd = path.stem.split("_")[0]
            raw = json.loads(path.read_text())
            off = rng.uniform(0.0, self.MAX_OFFSET)
            self.configs[cmd] = _offset_config(
                raw, 0.0 if cmd in self.FIXED else off, tiny)

    def setup(self, api):
        cfg_dir = self.work / "configs"
        cfg_dir.mkdir(parents=True, exist_ok=True)
        self.paths = {}
        for cmd, raw in self.configs.items():
            self.paths[cmd] = cfg_dir / f"{cmd}.json"
            self.paths[cmd].write_text(json.dumps(raw, indent=1))
        rc = api.cli["trace"](["trace", "--config", str(self.paths["trace"]),
                               "--out", str(self.work / "warmup")])
        if rc != 0:
            raise RuntimeError(f"warm-up trace exited with {rc}")

    def _invoke(self, main, cmd, jobs):
        out = self.work / f"jobs{jobs}"
        return main([cmd, "--config", str(self.paths[cmd]), "--out",
                     str(out), "--jobs", str(jobs)]), out

    def run_pass(self, api, rec):
        def item(cmd):
            rc, out = self._invoke(api.cli[cmd], cmd, 2)
            rec.check_true("exit_code", rc == 0)
            _check_outputs(cmd, out, rec)

        for cmd in self.configs:
            rec.run_item(f"cli.{cmd}", item, cmd)

    def final_checks(self, rec):
        from ahx.cli import main

        def serial():
            for cmd in self.configs:
                rc, _ = self._invoke(main, cmd, 1)
                rec.check_true("exit_code", rc == 0)
            rec.check_true("jobs_identical",
                           _same_tree(self.work / "jobs1",
                                      self.work / "jobs2"))

        rec.run_item("cli.jobs_compare", serial)

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()    # kept while another run uses it
        except OSError:
            pass


def _offset_config(raw, off, tiny):
    """Shift every boundary position of a config by ``off``; ``tiny`` keeps
    the last two grid values per axis (the diagnose rows that stay in the
    collar), the first two pairs and points, and every other y0."""
    raw = copy.deepcopy(raw)
    keep = slice(0, 2) if tiny else slice(None)
    if "grid" in raw:
        last = slice(-2, None) if tiny else slice(None)
        raw["grid"]["y"] = [v + off for v in raw["grid"]["y"]][last]
        raw["grid"]["eta"] = raw["grid"]["eta"][last]
    if "points" in raw:
        raw["points"] = [[p[0] + off, p[1]] for p in raw["points"]][keep]
    if "pairs" in raw:
        raw["pairs"] = [[a + off, b + off] for a, b in raw["pairs"]][keep]
    if "y0s" in raw:
        raw["y0s"] = [v + off for v in raw["y0s"]][::2 if tiny else 1]
    if "z" in raw:
        raw["z"]["y"] += off
    return raw


def _fold(d):
    """Boundary separation on the circle, in [0, pi]."""
    d = abs(d) % TWO_PI
    return min(d, TWO_PI - d)


def _check_outputs(cmd, out, rec):
    """Row statuses and, where a criterion has a closed form, the values."""
    if cmd == "diagnose":
        rep = json.loads((out / "diagnose.json").read_text())
        rec.check_true("row_status", rep["n_geodesics"] > 0)
        rec.check_true("conjugate_free", rep["conjugate_count"] == 0)
        rec.check("decay_nu", rep["nu_fit"] - 1.0, 1e-3)
        return
    _, rows = read_csv(out / f"{cmd}.csv")
    rec.check_true("row_status", rows and all(r.get("status", "ok") == "ok"
                                              for r in rows))
    for r in rows:
        if cmd == "scatter":
            y, eta = float(r["y"]), float(r["eta"])
            rec.check("halfplane_scatter", float(r["y_out"]) - (y + 2 / eta),
                      1e-8)
        elif cmd == "length":
            want = 2.0 * math.log(2.0 / abs(float(r["eta"])))
            rec.check("halfplane_length", float(r["length_reg"]) - want, 1e-6)
            rec.check("halfplane_length",
                      float(r["length_mellin"]) - want, 1e-6)
            rec.check("mellin_residue", float(r["residue"]) - 2.0, 1e-4)
        elif cmd == "distance":
            theta = _fold(float(r["y_plus"]) - float(r["y_minus"]))
            want = 2.0 * math.log(2.0 * math.sin(theta / 2.0))
            rec.check("disc_distance", float(r["distance"]) - want, 1e-6)
        elif cmd == "recover" and r["route"] == "asymptotic":
            h0, dh, _ = jet_truth(float(r["y0"]))
            rec.check("jet_h0", float(r["h0"]) - h0, 1e-4)
            rec.check("jet_dh", float(r["drho_h"]) - dh, 5e-3)


def _same_tree(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.iterdir())
    return (names == sorted(p.name for p in b.iterdir())
            and all((a / n).read_bytes() == (b / n).read_bytes()
                    for n in names))


WORKLOADS = {w.name: w for w in (SantaloGrid, InverseSolve, JacobiSweep,
                                 CliConfigs)}

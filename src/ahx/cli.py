"""Configuration-driven command line front end.

Usage: ``ahx <command> --config <file> [--out <dir>] [--jobs N]``.

Configs are JSON documents with a ``metric`` spec (see
:func:`ahx.metric.make_family`), command-specific parameters, and an
optional ``seed``.  Outputs are CSV (RFC 4180 payload preceded by one
``# config_hash=...`` comment line), JSON, and plain SVG line charts.
Runs are deterministic for a fixed config and seed.

Exit codes: 0 success, 1 flow or metric failure (e.g. a geodesic leaving
the collar), 2 trapped/slow geodesic, 3 configuration error (including a
metric whose boundary is not 1-dimensional).
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import multiprocessing
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Sequence

import numpy as np

from .metric import BoundaryMetricFamily, MetricError, make_family
from .flow import (FlowError, TrappedOrSlowError, scattering_map,
                   trace_geodesic)
from .renorm import boundary_distance, mellin_length, renormalized_length
from .xray import SymmetricTensorField, xray_transform
from .jacobi import simplicity_check
from .quadrature import poly_bump
from .recover import (recover_first_jet, recover_h0, recover_jet_fit,
                      synthesize_samples)

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "config_hash",
           "read_csv", "main"]


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed experiment configuration: metric spec, parameters, seed."""

    metric: dict
    params: dict
    seed: int = 0
    raw: dict = field(default_factory=dict, repr=False)

    def family(self) -> BoundaryMetricFamily:
        try:
            fam = make_family(self.metric)
        except (MetricError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad metric spec: {exc}") from exc
        if fam.n != 1:
            # the row readers and writers hold one y and one eta per row
            raise ConfigError("the CLI handles 1-dimensional boundaries, "
                              f"got n={fam.n}")
        return fam

    def opt(self, key, default=None):
        return self.params.get(key, default)

    def require(self, key):
        if key not in self.params:
            raise ConfigError(f"config is missing required key {key!r}")
        return self.params[key]

    def tolerance(self, key: str, default: float) -> float:
        val = float(self.params.get(key, default))
        if val <= 0.0:
            raise ConfigError(f"{key} must be positive, got {val}")
        return val


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "metric" not in doc:
        raise ConfigError("config must be a JSON object with a 'metric' key")
    params = {k: v for k, v in doc.items() if k not in ("metric", "seed")}
    seed = doc.get("seed", 0)
    if not isinstance(seed, int):
        raise ConfigError("seed must be an integer")
    return ExperimentConfig(metric=doc["metric"], params=params, seed=seed,
                            raw=doc)


def config_hash(cfg: ExperimentConfig) -> str:
    blob = json.dumps(cfg.raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# output helpers


def _fmt(val) -> str:
    if isinstance(val, float):
        return format(val, ".17g")
    return str(val)


def write_csv(path: Path, fieldnames: Sequence[str], rows: Sequence[dict],
              cfg_hash: str) -> None:
    buf = io.StringIO()
    buf.write(f"# config_hash={cfg_hash}\r\n")
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\r\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _fmt(row.get(k, "")) for k in fieldnames})
    path.write_text(buf.getvalue(), encoding="utf-8", newline="")


def read_csv(path) -> tuple:
    """Bundled reader: skips # comment lines, returns (fields, row dicts)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    reader = csv.DictReader(lines)
    return reader.fieldnames, list(reader)


def write_json(path: Path, payload: str) -> None:
    path.write_text(payload + "\n", encoding="utf-8")


def write_svg(path: Path, xs: Sequence[float], ys: Sequence[float],
              cfg_hash: str, width: int = 640, height: int = 480,
              pad: int = 40) -> None:
    """Minimal static SVG polyline chart of ys against xs."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    pts = []
    for x, y in zip(xs, ys):
        px = pad + (x - x_lo) / x_span * (width - 2 * pad)
        py = height - pad - (y - y_lo) / y_span * (height - 2 * pad)
        pts.append(f"{px:.2f},{py:.2f}")
    body = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}">\n'
        f'<!-- config_hash={cfg_hash} -->\n'
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
        f'<polyline fill="none" stroke="black" stroke-width="1.5" '
        f'points="{" ".join(pts)}"/>\n'
        "</svg>\n"
    )
    path.write_text(body, encoding="utf-8")


# ---------------------------------------------------------------------------
# worker-pool plumbing (fork-based so families need not be pickled)

_POOL_WORKER: Optional[Callable] = None


def _pool_call(row):
    return _POOL_WORKER(row)


def _map_rows(worker: Callable, rows: Sequence, jobs: int) -> List:
    global _POOL_WORKER
    if jobs <= 1 or len(rows) <= 1:
        return [worker(r) for r in rows]
    _POOL_WORKER = worker
    try:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes=min(jobs, len(rows))) as pool:
            return pool.map(_pool_call, rows)
    finally:
        _POOL_WORKER = None


# ---------------------------------------------------------------------------
# commands


def _covector_rows(cfg: ExperimentConfig) -> List[tuple]:
    if "points" in cfg.params:
        pts = cfg.params["points"]
        rows = [(float(p[0]), float(p[1])) for p in pts]
    elif "grid" in cfg.params:
        grid = cfg.params["grid"]
        ys = [float(v) for v in grid["y"]]
        etas = [float(v) for v in grid["eta"]]
        rows = [(y, e) for y in ys for e in etas]
    else:
        raise ConfigError("need 'points' or 'grid' in config")
    for _, eta in rows:
        if eta == 0.0:
            raise ConfigError("boundary covectors need nonzero eta")
    return rows


def cmd_trace(cfg: ExperimentConfig, out: Path, jobs: int) -> int:
    fam = cfg.family()
    z = cfg.require("z")
    try:
        y0, eta0 = float(z["y"]), float(z["eta"])
    except (TypeError, KeyError) as exc:
        raise ConfigError(f"bad 'z' entry: {exc}") from exc
    tol = cfg.tolerance("tol", 1e-10)
    t_max = cfg.tolerance("t_max", 60.0)
    n_samples = int(cfg.opt("samples", 200))
    if n_samples < 2:
        raise ConfigError("samples must be at least 2")
    traj = trace_geodesic(fam, (y0, eta0), tol=tol, t_max=t_max)
    taus = np.linspace(0.0, traj.tau_plus, n_samples)
    h = config_hash(cfg)
    names = (["tau", "rho"] + [f"y{i}" for i in range(fam.n)] + ["xi_b"]
             + [f"eta{i}" for i in range(fam.n)] + ["t"])
    rows = []
    for tau, t_acc in zip(taus, traj.arclength_at(taus)):
        p = traj.state_at(float(tau))
        row = {"tau": float(tau), "rho": p.rho, "xi_b": p.xi_b,
               "t": float(t_acc)}
        for i in range(fam.n):
            row[f"y{i}"] = float(p.y[i])
            row[f"eta{i}"] = float(p.eta[i])
        rows.append(row)
    write_csv(out / "trace.csv", names, rows, h)
    if cfg.opt("svg", False):
        ys = [r["y0"] for r in rows]
        rhos = [r["rho"] for r in rows]
        write_svg(out / "trace.svg", ys, rhos, h)
    return 0


def cmd_scatter(cfg: ExperimentConfig, out: Path, jobs: int) -> int:
    fam = cfg.family()
    tol = cfg.tolerance("tol", 1e-10)
    rows = _covector_rows(cfg)

    def worker(z):
        y, eta = z
        try:
            res = scattering_map(fam, (y, eta), tol=tol)
            return {"y": y, "eta": eta, "y_out": float(res.y[0]),
                    "eta_out": float(res.eta[0]), "status": "ok"}
        except FlowError as exc:
            return {"y": y, "eta": eta, "y_out": "", "eta_out": "",
                    "status": type(exc).__name__}

    results = _map_rows(worker, rows, jobs)
    write_csv(out / "scatter.csv", ["y", "eta", "y_out", "eta_out", "status"],
              results, config_hash(cfg))
    return 0


def cmd_length(cfg: ExperimentConfig, out: Path, jobs: int) -> int:
    fam = cfg.family()
    tol = cfg.tolerance("tol", 1e-12)
    method = cfg.opt("method", "both")
    if method not in ("regularized", "mellin", "both"):
        raise ConfigError(f"unknown length method {method!r}")
    rows = _covector_rows(cfg)

    def worker(z):
        y, eta = z
        row = {"y": y, "eta": eta, "length_reg": "", "err_est": "",
               "length_mellin": "", "residue": "", "status": "ok"}
        try:
            traj = trace_geodesic(fam, (y, eta), tol=tol)
            if method in ("regularized", "both"):
                reg = renormalized_length(traj)
                row["length_reg"] = reg.value
                row["err_est"] = reg.err_est
            if method in ("mellin", "both"):
                mel = mellin_length(traj)
                row["length_mellin"] = mel.value
                row["residue"] = mel.residue
        except FlowError as exc:
            row["status"] = type(exc).__name__
        return row

    results = _map_rows(worker, rows, jobs)
    write_csv(out / "length.csv",
              ["y", "eta", "length_reg", "err_est", "length_mellin",
               "residue", "status"], results, config_hash(cfg))
    return 0


def cmd_distance(cfg: ExperimentConfig, out: Path, jobs: int) -> int:
    fam = cfg.family()
    tol = cfg.tolerance("tol", 1e-9)
    pairs = [(float(p[0]), float(p[1])) for p in cfg.require("pairs")]

    def worker(pair):
        ym, yp = pair
        try:
            res = boundary_distance(fam, ym, yp, tol=tol)
            return {"y_minus": ym, "y_plus": yp, "distance": res.value,
                    "eta_incoming": float(res.eta[0]),
                    "iterations": res.iterations, "status": "ok"}
        except (FlowError, ValueError) as exc:
            return {"y_minus": ym, "y_plus": yp, "distance": "",
                    "eta_incoming": "", "iterations": "",
                    "status": type(exc).__name__}

    results = _map_rows(worker, pairs, jobs)
    write_csv(out / "distance.csv",
              ["y_minus", "y_plus", "distance", "eta_incoming",
               "iterations", "status"], results, config_hash(cfg))
    return 0


def _field_from_spec(spec: dict) -> SymmetricTensorField:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("field spec must be a dict with a 'kind' key")
    kind = spec["kind"]
    p = spec.get("params", {})
    if kind == "bump":
        amp = float(p.get("amplitude", 1.0))
        lo = float(p.get("rho_lo", 0.1))
        hi = float(p.get("rho_hi", 0.4))
        cos_amp = float(p.get("cos_amp", 0.0))
        harmonic = int(p.get("harmonic", 1))
        if hi <= lo:
            raise ConfigError("field bump needs rho_hi > rho_lo")
        width = hi - lo

        def comp(rho, y):
            prof = amp * poly_bump((rho - lo) / width)
            return prof * (1.0 + cos_amp * math.cos(harmonic * float(y[0])))

        return SymmetricTensorField(rank=0, weight=1, components=comp)
    raise ConfigError(f"unknown field kind {kind!r}")


def cmd_xray(cfg: ExperimentConfig, out: Path, jobs: int) -> int:
    fam = cfg.family()
    tol = cfg.tolerance("tol", 1e-10)
    fld = _field_from_spec(cfg.require("field"))
    rows = _covector_rows(cfg)

    def worker(z):
        y, eta = z
        try:
            traj = trace_geodesic(fam, (y, eta), tol=tol)
            val = xray_transform(fld, traj)
            return {"y": y, "eta": eta, "integral": val, "status": "ok"}
        except FlowError as exc:
            return {"y": y, "eta": eta, "integral": "",
                    "status": type(exc).__name__}

    results = _map_rows(worker, rows, jobs)
    write_csv(out / "xray.csv", ["y", "eta", "integral", "status"],
              results, config_hash(cfg))
    return 0


def cmd_recover(cfg: ExperimentConfig, out: Path, jobs: int) -> int:
    fam = cfg.family()
    tol = cfg.tolerance("tol", 1e-12)
    y0s = [float(v) for v in cfg.require("y0s")]
    directions = cfg.opt("directions", [[1.0]])
    deltas = [float(d) for d in cfg.opt(
        "deltas", [0.2 / 2 ** k for k in range(7)])]
    if any(d <= 0.0 for d in deltas):
        raise ConfigError("deltas must be positive")
    noise = float(cfg.opt("noise", 0.0))
    if noise < 0.0:
        raise ConfigError("noise amplitude must be nonnegative")
    route = cfg.opt("route", "both")
    if route not in ("asymptotic", "fit", "both"):
        raise ConfigError(f"unknown recovery route {route!r}")
    period = cfg.opt("period", 2.0 * math.pi)

    def worker(y0):
        return synthesize_samples(fam, y0, directions, deltas, tol=tol,
                                  noise=noise, seed=cfg.seed)

    sets = _map_rows(worker, y0s, jobs)
    h = config_hash(cfg)
    rows = []
    if route in ("asymptotic", "both"):
        jet = recover_first_jet(sets, period=period)
        write_json(out / "recover_asymptotic.json", jet.to_json())
        for i, y0 in enumerate(y0s):
            rows.append({"y0": y0, "route": "asymptotic",
                         "h0": float(jet.h0[i, 0, 0]),
                         "drho_h": float(jet.drho_h[i, 0, 0]),
                         "d2rho_h": "",
                         "residual": float(jet.fit_residuals[i]),
                         "status": "ok"})
    if route in ("fit", "both"):
        jet = recover_jet_fit(sets)
        write_json(out / "recover_fit.json", jet.to_json())
        for i, y0 in enumerate(y0s):
            rows.append({"y0": y0, "route": "fit",
                         "h0": float(jet.h0[i, 0, 0]),
                         "drho_h": float(jet.drho_h[i, 0, 0]),
                         "d2rho_h": float(jet.d2rho_h[i, 0, 0]),
                         "residual": float(jet.fit_residuals[i]),
                         "status": "ok"})
    write_csv(out / "recover.csv",
              ["y0", "route", "h0", "drho_h", "d2rho_h", "residual",
               "status"], rows, h)
    return 0


def cmd_diagnose(cfg: ExperimentConfig, out: Path, jobs: int) -> int:
    fam = cfg.family()
    covs = _covector_rows(cfg)
    t_asym = cfg.tolerance("T_asym", 25.0)
    t_scan = cfg.tolerance("t_scan", 12.0)
    tol = cfg.tolerance("tol", 1e-10)
    report = simplicity_check(fam, covs, T_asym=t_asym, t_scan=t_scan,
                              trace_tol=tol)
    write_json(out / "diagnose.json", report.to_json())
    return 0


COMMANDS = {
    "trace": cmd_trace,
    "scatter": cmd_scatter,
    "length": cmd_length,
    "distance": cmd_distance,
    "xray": cmd_xray,
    "recover": cmd_recover,
    "diagnose": cmd_diagnose,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ahx",
        description="Geodesic-flow and X-ray-transform experiments for "
                    "asymptotically hyperbolic metrics in normal form.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=".")
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if not os.access(out, os.W_OK):
            raise ConfigError(f"output directory {out} is not writable")
        if args.jobs < 1:
            raise ConfigError("--jobs must be at least 1")
        return COMMANDS[args.command](cfg, out, args.jobs)
    except ConfigError as exc:
        print(f"ahx: config error: {exc}", file=sys.stderr)
        return 3
    except TrappedOrSlowError as exc:
        print(f"ahx: trapped or slow geodesic: {exc}", file=sys.stderr)
        return 2
    except (FlowError, MetricError) as exc:
        print(f"ahx: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Configuration-driven command line front end.

Usage: ``ahx <command> --config <file> [--out <dir>] [--jobs N]``.
``--jobs N`` evaluates rows in this process and at most N - 1 forked
children, never in more processes than the machine's CPUs
(``os.cpu_count()``) or the rows, with output byte-identical to a serial
run; if forking fails, this process evaluates the rows left.

On a y-invariant family (:attr:`ahx.metric.BoundaryMetricFamily.y_invariant`)
the geodesic entering at (y, eta) is the one entering at (y_a, eta) moved
by y - y_a, so ``scatter``, ``length`` and ``xray`` group their rows by
eta: each group is traced once, at its first row's y_a, and every row
reads the trace shifted by its y - y_a (``y_out`` moved and wrapped by the
chart, the same length, the field read at the shifted points).  The first
row of each eta keeps the bits of its own trace, and the other rows agree
with theirs to the trace tolerance.  On any other family each (y, eta) is
its own group.  A group that raises a FlowError gives its status to each
of its rows.

Configs are JSON documents with a ``metric`` spec (see
:func:`ahx.metric.make_family`: its ``params`` are the family
constructor's keywords), command-specific parameters, and an optional
``seed``.  Outputs are CSV (RFC 4180 payload preceded by one
``# config_hash=...`` comment line), JSON, and plain SVG line charts.
Runs are deterministic for a fixed config and seed.  The ``xray`` field is
a bump whose edges ``rho_lo`` and ``rho_hi`` are its breaks.

Every number in a config must be a finite JSON number.  Each command's
``tol`` defaults to the library's ``flow.DEFAULT_TOL`` (1e-12), except the
endpoint tolerance of ``distance`` (``renorm.ENDPOINT_TOL``, 1e-9).

Exit codes: 0 success, 1 flow or metric failure (e.g. a geodesic leaving
the collar) or a ``--jobs`` child that ended without returning its rows
(killed by a signal, say), 2 trapped/slow geodesic, 3 configuration error
(including a key at any level that the command does not read, such as a
metric or field parameter its constructor does not take, a config with both
``points`` and ``grid``, a metric whose boundary is not
1-dimensional, a covector with eta = 0, a negative ``seed``, a ``T_asym``
too small for the curvature to settle or so large that its seed
e^-T_asym is not a normal float, a ``t_scan`` so long that the conjugate
scan's field overflows, and a ``recover`` config the recovery rejects, such as a delta
above the safe scale, a negative ``noise``, no ``y0s`` or a direction with
more than one component).
"""
from __future__ import annotations

import argparse
import csv
import fcntl
import hashlib
import io
import itertools
import json
import math
import os
import pickle
import signal
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Sequence

import numpy as np

from .metric import BoundaryMetricFamily, MetricError, make_family
from .flow import (DEFAULT_T_MAX, DEFAULT_TOL, FlowError,
                   TrappedOrSlowError, _project_vec, trace_geodesic)
from .renorm import (ENDPOINT_TOL, boundary_distance, mellin_length,
                     renormalized_length)
from .xray import SymmetricTensorField, _shifted_transforms
from .jacobi import (T_ASYM, T_SCAN, AsymptoteError, diagnose_covector,
                     simplicity_report)
from .quadrature import poly_bump
from .recover import (DELTA_GRID, RecoveryError, recover_first_jet,
                      recover_jet_fit, synthesize_samples)

__all__ = ["ConfigError", "WorkerExitError", "ExperimentConfig",
           "load_config", "config_hash", "read_csv", "main"]


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


def _number(value) -> float:
    """A finite JSON number: strings, bools, NaN and Infinity are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a number")
    if not math.isfinite(value):
        raise ValueError(f"{value!r} is not finite")
    return float(value)


def _floats(values) -> List[float]:
    return [_number(v) for v in values]


def _float_pairs(pairs) -> List[tuple]:
    if any(len(p) != 2 for p in pairs):
        raise ValueError("every entry must have two numbers")
    return [(_number(p[0]), _number(p[1])) for p in pairs]


def _integer(value) -> int:
    """A JSON integer: floats and bools (a Python int) are refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{value!r} is not an integer")
    return value


def _boolean(value) -> bool:
    """A JSON bool: 0, 1 and strings are refused."""
    if not isinstance(value, bool):
        raise TypeError(f"{value!r} is not a boolean")
    return value


def _one_of(*choices) -> Callable:
    """A parser that accepts the given values and nothing else."""
    def parse(value):
        if value not in choices:
            raise ValueError(f"expected one of {choices}")
        return value
    return parse


def _fields(doc: dict, *keys) -> list:
    """The values of a JSON object that has exactly ``keys``."""
    if set(doc) != set(keys):
        raise ValueError(f"expected the keys {list(keys)}, got {sorted(doc)}")
    return [doc[k] for k in keys]


def _directions(value) -> np.ndarray:
    """One direction or a list of them, as rows of finite numbers."""
    rows = value if isinstance(value[0], list) else [value]
    return np.array([_floats(r) for r in rows])


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed experiment configuration: metric spec, parameters, seed.

    ``read`` records the parameters that :meth:`value` has read, so that a
    command can refuse the rest (:meth:`refuse_unread`)."""

    metric: dict
    params: dict
    seed: int = 0
    raw: dict = field(default_factory=dict, repr=False)
    read: set = field(default_factory=set, repr=False, compare=False)

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

    def value(self, key, parse: Callable, default=None):
        """``parse`` applied to the value under ``key``, or to ``default``
        when the key is absent (required if there is no default); a value
        that ``parse`` rejects is a ConfigError."""
        self.read.add(key)
        if default is None and key not in self.params:
            raise ConfigError(f"config is missing required key {key!r}")
        raw = self.params.get(key, default)
        try:
            return parse(raw)
        except ConfigError:
            raise
        except (AttributeError, IndexError, KeyError, OverflowError,
                TypeError, ValueError) as exc:
            raise ConfigError(f"bad {key!r} value {raw!r}: "
                              f"{type(exc).__name__}: {exc}") from exc

    def refuse_unread(self) -> None:
        """A ConfigError naming the parameters no :meth:`value` call read;
        a command calls it once it has read its parameters, before it runs
        a row or writes a file."""
        unread = sorted(set(self.params) - self.read)
        if unread:
            raise ConfigError(f"config keys {unread} are not read by this "
                              "command")

    def tolerance(self, key: str, default: float) -> float:
        val = self.value(key, _number, default)
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
    try:
        seed = _integer(doc.get("seed", 0))
    except TypeError as exc:
        raise ConfigError(f"seed must be an integer: {exc}") from None
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
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
              cfg_hash: str) -> None:
    """Minimal static SVG polyline chart of ys against xs, 640 x 480 pixels
    with a 40-pixel margin."""
    width, height, pad = 640, 480, 40
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
# row map over forked processes (fork, so families need not be pickled)


class WorkerExitError(RuntimeError):
    """A forked worker process ended without returning its rows."""


def _next_row(counter: int, n_rows: int, stop: bool = False) -> int:
    """The index of the next row not yet taken, from the 8-byte ``counter``
    file that the processes of a map share (``n_rows`` once every row is
    taken); ``stop`` marks every row taken.  A POSIX record lock, released
    by the kernel if its holder dies, serializes the processes."""
    fcntl.lockf(counter, fcntl.LOCK_EX)
    try:
        i = int.from_bytes(os.pread(counter, 8, 0), "little")
        nxt = n_rows if stop else min(i + 1, n_rows)
        os.pwrite(counter, nxt.to_bytes(8, "little"), 0)
        return i
    finally:
        fcntl.lockf(counter, fcntl.LOCK_UN)


def _take_rows(worker: Callable, rows: Sequence, counter: int) -> List:
    """(index, ok, result or exception) of each row this process takes
    from ``counter``, one at a time; a row that raises stops every process
    after its current row."""
    done = []
    while (i := _next_row(counter, len(rows))) < len(rows):
        try:
            done.append((i, True, worker(rows[i])))
        except Exception as exc:
            done.append((i, False, exc))
            _next_row(counter, len(rows), stop=True)
            break
    return done


def _child(worker: Callable, rows: Sequence, counter: int, pipe: int,
           siblings: dict) -> None:
    """Body of a forked child: take rows, pickle them into ``pipe`` and
    leave with ``os._exit``, so that none of the parent's exit handlers or
    buffered output runs twice."""
    status = 1
    try:
        for reader in siblings.values():
            reader.close()
        payload = pickle.dumps(_take_rows(worker, rows, counter))
        with open(pipe, "wb") as out:
            out.write(payload)
        status = 0
    finally:
        os._exit(status)


def _map_rows(worker: Callable, rows: Sequence, jobs: int) -> List:
    """``[worker(r) for r in rows]`` in this process and at most ``jobs - 1``
    forked children, never in more processes than the machine's CPUs
    (``os.cpu_count()``) or the rows.

    Every process takes rows one at a time, in index order, from a shared
    counter, so a slow row holds up only the process that runs it.  Each
    child pickles its ``(index, ok, result or exception)`` list into one
    pipe; the results come back in row order.  When rows raise, the
    exception of the lowest-index one is raised, as the serial map raises
    it: a raising row stops every process after its current row, and rows
    are taken in order, so every lower row has run.  If ``os.fork`` fails
    the map forks no more, and the processes it has (this one at least)
    take the rows left.  A child that ends without returning its rows (a
    signal, ``os._exit`` in a worker) is a :class:`WorkerExitError` naming
    its exit status.  Every child is reaped before this returns or raises.
    """
    jobs = min(jobs, len(rows), os.cpu_count() or 1)
    if jobs <= 1:
        return [worker(r) for r in rows]
    children = {}                   # pid -> read end of the child's pipe
    with tempfile.TemporaryFile() as counter_file:
        counter = counter_file.fileno()
        try:
            for _ in range(jobs - 1):
                r, w = os.pipe()
                try:
                    pid = os.fork()
                except OSError:
                    os.close(r)
                    os.close(w)
                    break
                if pid == 0:
                    os.close(r)
                    _child(worker, rows, counter, w, children)
                os.close(w)
                children[pid] = open(r, "rb")
            done = _take_rows(worker, rows, counter)
            for pid, reader in list(children.items()):
                payload = reader.read()
                reader.close()
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                del children[pid]
                if code != 0 or not payload:
                    how = (f"was killed by {signal.Signals(-code).name}"
                           if code < 0 else f"exited with status {code}")
                    raise WorkerExitError(f"worker process {pid} {how} "
                                          "before returning its rows")
                done += pickle.loads(payload)
        finally:
            for pid, reader in children.items():
                reader.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    done.sort()                     # by row index: no two are equal
    for _, ok, value in done:
        if not ok:
            raise value
    return [value for _, _, value in done]


# ---------------------------------------------------------------------------
# commands


def _covector_rows(cfg: ExperimentConfig) -> List[tuple]:
    if "points" in cfg.params and "grid" in cfg.params:
        raise ConfigError("give 'points' or 'grid', not both")
    if "points" in cfg.params:
        rows = cfg.value("points", _float_pairs)
    elif "grid" in cfg.params:
        rows = cfg.value("grid", lambda g: list(itertools.product(
            *map(_floats, _fields(g, "y", "eta")))))
    else:
        raise ConfigError("need 'points' or 'grid' in config")
    for _, eta in rows:
        if eta == 0.0:
            raise ConfigError("boundary covectors need nonzero eta")
    return rows


def _run_rows(cfg: ExperimentConfig, out: Path, jobs: int, name: str,
              inputs: Sequence[str], outputs: Sequence[str], rows: Sequence,
              key: Callable, compute: Callable) -> int:
    """Write ``<name>.csv`` with one line per row: the row's ``inputs``,
    the ``outputs`` columns that ``compute`` returns for it as a dict, and
    a ``status``, "ok" or the type name of the FlowError its group raised
    (its outputs then left empty).

    Rows with the same ``key(row)`` form a group, taken in the order of
    its first row; ``compute(group)`` gets the group's rows, first row
    first, and returns one dict per row, so a group is computed once in one
    process and its rows share its status.  The lines are written in row
    order.  A parameter of ``cfg`` that the command has not read by now is
    a ConfigError."""
    cfg.refuse_unread()
    groups = {}
    for i, row in enumerate(rows):
        groups.setdefault(key(row), []).append(i)

    def worker(idx):
        group = [rows[i] for i in idx]
        try:
            cols, status = compute(group), "ok"
        except FlowError as exc:
            cols, status = [{}] * len(group), type(exc).__name__
        return [{**dict(zip(inputs, row)), **c, "status": status}
                for row, c in zip(group, cols)]

    lines = [None] * len(rows)
    for idx, done in zip(groups.values(),
                         _map_rows(worker, list(groups.values()), jobs)):
        for i, line in zip(idx, done):
            lines[i] = line
    write_csv(out / f"{name}.csv", [*inputs, *outputs, "status"], lines,
              config_hash(cfg))
    return 0


def _covector_key(fam: BoundaryMetricFamily) -> Callable:
    """The group key of a (y, eta) row: eta on a y-invariant family, whose
    geodesic entering at (y, eta) is the one entering at (y_a, eta) moved
    by y - y_a, and the whole row otherwise."""
    return (lambda row: row[1]) if fam.y_invariant else (lambda row: row)


def _anchored(fam: BoundaryMetricFamily, tol: float, group: list):
    """The trace of a group's first covector (y_a, eta), and the shift
    y - y_a of each of its rows."""
    y_a, eta = group[0]
    return (trace_geodesic(fam, (y_a, eta), tol=tol),
            [y - y_a for y, _ in group])


def cmd_trace(cfg: ExperimentConfig, out: Path, jobs: int) -> int:
    fam = cfg.family()
    y0, eta0 = cfg.value("z", lambda z: tuple(
        map(_number, _fields(z, "y", "eta"))))
    if eta0 == 0.0:
        raise ConfigError("boundary covectors need nonzero eta")
    tol = cfg.tolerance("tol", DEFAULT_TOL)
    t_max = cfg.tolerance("t_max", DEFAULT_T_MAX)
    n_samples = cfg.value("samples", _integer, 200)
    if n_samples < 2:
        raise ConfigError("samples must be at least 2")
    svg = cfg.value("svg", _boolean, False)
    cfg.refuse_unread()
    traj = trace_geodesic(fam, (y0, eta0), tol=tol, t_max=t_max)
    taus = np.linspace(0.0, traj.tau_plus, n_samples)
    h = config_hash(cfg)
    n = fam.n
    rows = []
    # one read of the dense output, each row projected as state_at does
    for tau, t_acc, x in zip(taus.tolist(), traj.arclength_at(taus).tolist(),
                             traj.eval_many(taus)):
        p = _project_vec(fam, x, n).tolist()
        rows.append({"tau": tau, "rho": p[0], "y0": p[1], "xi_b": p[1 + n],
                     "eta0": p[2 + n], "t": t_acc})
    write_csv(out / "trace.csv", ["tau", "rho", "y0", "xi_b", "eta0", "t"],
              rows, h)
    if svg:
        write_svg(out / "trace.svg", [r["y0"] for r in rows],
                  [r["rho"] for r in rows], h)
    return 0


def cmd_scatter(cfg: ExperimentConfig, out: Path, jobs: int) -> int:
    fam = cfg.family()
    tol = cfg.tolerance("tol", DEFAULT_TOL)

    def compute(group):
        traj, dys = _anchored(fam, tol, group)
        end = traj.end
        return [{"y_out": float(fam.chart.wrap(end.y[0] + dy)),
                 "eta_out": float(end.eta[0])} for dy in dys]

    return _run_rows(cfg, out, jobs, "scatter", ["y", "eta"],
                     ["y_out", "eta_out"], _covector_rows(cfg),
                     _covector_key(fam), compute)


def cmd_length(cfg: ExperimentConfig, out: Path, jobs: int) -> int:
    fam = cfg.family()
    tol = cfg.tolerance("tol", DEFAULT_TOL)
    method = cfg.value("method", _one_of("regularized", "mellin", "both"),
                       "both")

    def compute(group):
        traj, dys = _anchored(fam, tol, group)
        cols = {}
        if method in ("regularized", "both"):
            reg = renormalized_length(traj)
            cols.update(length_reg=reg.value, err_est=reg.err_est)
        if method in ("mellin", "both"):
            mel = mellin_length(traj)
            cols.update(length_mellin=mel.value, residue=mel.residue)
        return [cols] * len(dys)

    return _run_rows(cfg, out, jobs, "length", ["y", "eta"],
                     ["length_reg", "err_est", "length_mellin", "residue"],
                     _covector_rows(cfg), _covector_key(fam), compute)


def cmd_distance(cfg: ExperimentConfig, out: Path, jobs: int) -> int:
    fam = cfg.family()
    tol = cfg.tolerance("tol", ENDPOINT_TOL)
    pairs = cfg.value("pairs", _float_pairs)
    for ym, yp in pairs:       # the separation test of boundary_distance
        if abs(fam.chart.wrapped_diff(yp, ym)) < 1e-12:
            raise ConfigError(f"distance pair {[ym, yp]} has equal endpoints")

    def compute(group):
        res = boundary_distance(fam, *group[0], tol=tol)
        return [{"distance": res.value, "eta_incoming": float(res.eta[0]),
                 "iterations": res.iterations}] * len(group)

    return _run_rows(cfg, out, jobs, "distance", ["y_minus", "y_plus"],
                     ["distance", "eta_incoming", "iterations"], pairs,
                     lambda pair: pair, compute)


def _bump_field(amplitude=1.0, rho_lo=0.1, rho_hi=0.4, cos_amp=0.0,
                harmonic=1) -> SymmetricTensorField:
    """The field amplitude poly_bump((rho - rho_lo) / (rho_hi - rho_lo))
    (1 + cos_amp cos(harmonic y)), with its edges as ``breaks``."""
    amp, lo, hi, cos_amp = map(_number, (amplitude, rho_lo, rho_hi, cos_amp))
    harmonic = _integer(harmonic)
    if hi <= lo:
        raise ConfigError("field bump needs rho_hi > rho_lo")
    width = hi - lo

    def comp(rho, y):
        prof = amp * poly_bump((rho - lo) / width)
        return prof * (1.0 + cos_amp * np.cos(harmonic * y[..., 0]))

    return SymmetricTensorField(rank=0, weight=1, components=comp,
                                breaks=(lo, hi))


def _field_from_spec(spec: dict) -> SymmetricTensorField:
    """The configured field.  ``kind`` is "bump" and ``params`` (default
    empty) are the keywords of :func:`_bump_field`; a key it does not take
    raises TypeError naming the key.  The field is read where geodesics go,
    on the metric's domain 0 <= rho < rho_max, and the bump's edges are its
    breaks."""
    if not isinstance(spec, dict) or "kind" not in spec \
            or not set(spec) <= {"kind", "params"}:
        raise ConfigError("field spec must be a dict with a 'kind' key "
                          "and optional 'params'")
    if spec["kind"] != "bump":
        raise ConfigError(f"unknown field kind {spec['kind']!r}")
    return _bump_field(**spec.get("params", {}))


def cmd_xray(cfg: ExperimentConfig, out: Path, jobs: int) -> int:
    fam = cfg.family()
    tol = cfg.tolerance("tol", DEFAULT_TOL)
    fld = cfg.value("field", _field_from_spec)

    def compute(group):
        traj, dys = _anchored(fam, tol, group)
        return [{"integral": v} for v in
                _shifted_transforms(fld, traj, np.array(dys)[:, None])]

    return _run_rows(cfg, out, jobs, "xray", ["y", "eta"], ["integral"],
                     _covector_rows(cfg), _covector_key(fam), compute)


def cmd_recover(cfg: ExperimentConfig, out: Path, jobs: int) -> int:
    fam = cfg.family()
    tol = cfg.tolerance("tol", DEFAULT_TOL)
    y0s = cfg.value("y0s", _floats)
    directions = cfg.value("directions", _directions, [[1.0]])
    deltas = cfg.value("deltas", _floats, DELTA_GRID)
    noise = cfg.value("noise", _number, 0.0)
    route = cfg.value("route", _one_of("asymptotic", "fit", "both"), "both")
    cfg.refuse_unread()

    def worker(y0):
        return synthesize_samples(fam, y0, directions, deltas, tol=tol,
                                  noise=noise, seed=cfg.seed)

    sets = _map_rows(worker, y0s, jobs)
    routes = {"asymptotic": recover_first_jet, "fit": recover_jet_fit}
    rows = []
    for name, solve in routes.items():
        if route not in (name, "both"):
            continue
        jet = solve(sets)
        write_json(out / f"recover_{name}.json", jet.to_json())
        d2 = jet.d2rho_h
        rows += [{"y0": y0, "route": name, "h0": float(jet.h0[i, 0, 0]),
                  "drho_h": float(jet.drho_h[i, 0, 0]),
                  "d2rho_h": "" if d2 is None else float(d2[i, 0, 0]),
                  "residual": float(jet.fit_residuals[i]), "status": "ok"}
                 for i, y0 in enumerate(y0s)]
    write_csv(out / "recover.csv",
              ["y0", "route", "h0", "drho_h", "d2rho_h", "residual",
               "status"], rows, config_hash(cfg))
    return 0


def cmd_diagnose(cfg: ExperimentConfig, out: Path, jobs: int) -> int:
    fam = cfg.family()
    covs = _covector_rows(cfg)
    t_asym = cfg.tolerance("T_asym", T_ASYM)
    t_scan = cfg.tolerance("t_scan", T_SCAN)
    tol = cfg.tolerance("tol", DEFAULT_TOL)
    cfg.refuse_unread()

    def worker(z):
        return diagnose_covector(fam, z, T_asym=t_asym, t_scan=t_scan,
                                 trace_tol=tol)

    report = simplicity_report(_map_rows(worker, covs, jobs))
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
    except (ConfigError, AsymptoteError, RecoveryError) as exc:
        print(f"ahx: config error: {exc}", file=sys.stderr)
        return 3
    except TrappedOrSlowError as exc:
        print(f"ahx: trapped or slow geodesic: {exc}", file=sys.stderr)
        return 2
    except (FlowError, MetricError, WorkerExitError) as exc:
        print(f"ahx: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

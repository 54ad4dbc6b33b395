"""Items, checks and outside-in spans of one benchmark run.

A ``Recorder`` times each workload item (wall and CPU) and keeps the
correctness checks made inside it.

Spans wrap the benchmark's calls into the ``ahx`` layers.  A span records
its name (``<module>.<function>``), an optional label, its start and end,
the index of the enclosing span, the item it belongs to and an optional
count taken from the call's public return value.  Spans stay in memory;
the per-layer metrics are computed from them when the run ends.
Nothing inside ``src/`` is instrumented, so the spans see only what the
public functions take and return.
"""
from __future__ import annotations

import functools
import importlib
import math
import resource
import statistics
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from types import SimpleNamespace
from typing import Callable, List, NamedTuple, Optional

# Public functions the workloads call, by layer (``ahx.<layer>`` module).
LAYER_FUNCTIONS = {
    "metric": ["disc_family", "perturbed_family", "eval_metric",
               "gauss_curvature"],
    "flow": ["trace_geodesic", "scattering_jacobian", "barX_eval"],
    "xray": ["grazing_eta", "sym_derivative", "xray_transform"],
    "renorm": ["boundary_distance", "renormalized_length", "mellin_length"],
    "recover": ["synthesize_samples", "recover_first_jet", "recover_jet_fit"],
    "jacobi": ["jacobi_system", "stable_unstable", "conjugate_points",
               "decay_fit", "jacobi_solve", "wronskian"],
}
CLI_COMMANDS = ("trace", "scatter", "length", "distance", "xray", "recover",
                "diagnose")

# Counts read from return values: accepted steps of a returned trajectory
# and Newton iterations of a shooting solve.
_COUNTS = {
    "flow.trace_geodesic": lambda traj: len(traj.samples) - 1,
    "renorm.boundary_distance": lambda res: res.iterations,
}


# Machine-speed probe.  On a shared machine all the code here slows down and
# speeds up together: per-second timings of ahx traces and of this probe
# correlate at 0.97, and their ratio varies 4% where each varies 15%.  So the
# benchmark reports times at a fixed machine speed, scaling each by
# PROBE_REF_S over the median probe time measured around it.  PROBE_REF_S is
# the probe's median on the 2-vCPU machine of bench/META.json.
PROBE_REF_S = 0.0145
PROBE_EVERY_S = 0.5


def machine_probe():
    """Wall and CPU seconds of one fixed DOP853 integration of a Kepler
    orbit, on numpy and scipy alone (no ahx code)."""
    import numpy as np
    from scipy.integrate import solve_ivp

    def kepler(t, s):
        r3 = (s[0] * s[0] + s[1] * s[1]) ** 1.5
        return np.array([s[2], s[3], -s[0] / r3, -s[1] / r3])

    t0, c0 = perf_counter(), cpu_seconds()
    solve_ivp(kepler, (0.0, 30.0), [1.0, 0.0, 0.0, 1.2], method="DOP853",
              rtol=1e-10, atol=1e-10, dense_output=True)
    return perf_counter() - t0, cpu_seconds() - c0


class Probe(NamedTuple):
    pass_id: Optional[int]
    wall: float
    cpu: float
    inner: bool                 # taken between items, inside the pass time
    end: float                  # perf_counter when it finished


def cpu_seconds():
    """CPU time of this process and of its reaped children (pool workers)."""
    return sum(u.ru_utime + u.ru_stime for u in (
        resource.getrusage(resource.RUSAGE_SELF),
        resource.getrusage(resource.RUSAGE_CHILDREN)))


class Item(NamedTuple):
    kind: str
    wall: float
    cpu: float
    ok: bool
    pass_id: Optional[int]      # None outside the timed passes
    start: float                # perf_counter when it started


class Recorder:
    """Items, their latency and the correctness checks of one run."""

    def __init__(self):
        self.items = []
        self.checks = {}          # name -> [count, failures, min margin]
        self.probes = []
        self.tracer = None        # set during traced passes
        self.pass_id = None       # set during timed passes
        self._failed = False
        self._last_probe = -math.inf

    def probe(self, inner=False):
        """Take one machine-speed probe for the current pass."""
        wall, cpu = machine_probe()
        self._last_probe = perf_counter()
        self.probes.append(Probe(self.pass_id, wall, cpu, inner,
                                 self._last_probe))

    def check(self, name, err, tol):
        """Record err < tol; margin is log10(tol / err)."""
        err = abs(float(err))
        ok = math.isfinite(err) and err < tol
        margin = math.log10(tol / max(err, 1e-300)) if ok else -math.inf
        self._record(name, ok, margin)

    def check_true(self, name, ok):
        """Record a pass/fail check without an error size."""
        self._record(name, bool(ok), None)

    def _record(self, name, ok, margin):
        entry = self.checks.setdefault(name, [0, 0, math.inf])
        entry[0] += 1
        if not ok:
            entry[1] += 1
            self._failed = True
        if margin is not None:
            entry[2] = min(entry[2], margin)

    def run_item(self, kind, fn, *args):
        """Run one item, timing it; an exception or a failed check inside
        marks it failed.  Inside a timed pass, a machine-speed probe runs
        first whenever PROBE_EVERY_S have passed since the last one."""
        if self.pass_id is not None and \
                perf_counter() - self._last_probe >= PROBE_EVERY_S:
            self.probe(inner=True)
        self._failed = False
        item_id = len(self.items)
        t0, c0 = perf_counter(), cpu_seconds()
        try:
            if self.tracer is not None:
                with self.tracer.item(item_id, kind):
                    fn(*args)
            else:
                fn(*args)
        except Exception as exc:  # noqa: BLE001 - a raising item fails
            traceback.print_exc()
            print(f"item {kind} raised {type(exc).__name__}: {exc}",
                  flush=True)
            self._failed = True
        self.items.append(Item(kind, perf_counter() - t0, cpu_seconds() - c0,
                               not self._failed, self.pass_id, t0))

    @property
    def failed(self):
        return sum(1 for it in self.items if not it.ok)


@dataclass
class Span:
    name: str
    label: Optional[str]
    start: float
    end: float
    parent: int
    item: Optional[int]
    ok: bool = True
    count: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one phase of a run."""

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._item: Optional[int] = None

    def _open(self, name, label):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, label, perf_counter(), 0.0, parent,
                               self._item))
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, span, ok):
        span.end = perf_counter()
        span.ok = ok
        self._stack.pop()

    @contextmanager
    def item(self, item_id: int, kind: str):
        """Span around one workload item; layer calls inside become its
        children and carry its id."""
        prev, self._item = self._item, item_id
        span = self._open("bench.item", kind)
        ok = False
        try:
            yield
            ok = True
        finally:
            self._close(span, ok)
            self._item = prev

    def wrap(self, name: str, fn: Callable, label: Optional[str] = None):
        count = _COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, label)
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                self._close(span, ok)
            if count is not None:
                span.count = count(out)
            return out

        return traced

    def self_times(self) -> List[float]:
        """Span durations minus the time their direct children cover."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own


def make_api(tracer: Optional[Tracer]) -> SimpleNamespace:
    """The public ``ahx`` functions the workloads call, wrapped in spans
    when a tracer is given and untouched otherwise.

    ``xray_potential`` and ``xray_reference`` are the same function as
    ``xray_transform`` under their own span labels, so the scalar transform,
    the potential kernels and their scale fields are timed apart.
    ``cli`` maps each command to ``ahx.cli.main``.
    """
    def bind(name, fn, label=None):
        return fn if tracer is None else tracer.wrap(name, fn, label)

    api = SimpleNamespace()
    for layer, names in LAYER_FUNCTIONS.items():
        module = importlib.import_module(f"ahx.{layer}")
        for fname in names:
            setattr(api, fname, bind(f"{layer}.{fname}",
                                     getattr(module, fname)))
    xray = importlib.import_module("ahx.xray").xray_transform
    api.xray_potential = bind("xray.xray_transform", xray, "potential")
    api.xray_reference = bind("xray.xray_transform", xray, "reference")
    main = importlib.import_module("ahx.cli").main
    api.cli = {cmd: bind("cli.main", main, cmd) for cmd in CLI_COMMANDS}
    return api


# ---------------------------------------------------------------------------
# per-layer metrics


def quantile(values, q):
    """Inclusive-method percentile q (0 < q < 1) of the values."""
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[
        int(round(q * 100)) - 1]


def _durations(spans, name, label=None):
    return [s.duration for s in spans
            if s.name == name and s.label == label and s.ok]


def _median_of(spans, name, label=None, scale=1e3):
    d = _durations(spans, name, label)
    return statistics.median(d) * scale if d else None


def _mean_count(spans, name):
    c = [s.count for s in spans if s.name == name and s.count is not None]
    return statistics.fmean(c) if c else None


def layer_metrics(tracer: Tracer,
                  pass_wall_s: Optional[float] = None) -> dict:
    """Per-layer figures of one traced phase; None where the phase made no
    call that yields the figure.

    Shares are self time of the layer's spans over ``pass_wall_s``, the
    wall time of the traced passes, so the benchmark's own work is the
    remainder; they are None when no pass time is given.
    """
    spans = tracer.spans
    own = tracer.self_times()

    def share(layer):
        t = sum(o for s, o in zip(spans, own)
                if s.name.startswith(layer + ".") and s.item is not None)
        return t / pass_wall_s if pass_wall_s else None

    traces = _durations(spans, "flow.trace_geodesic")
    families = (_durations(spans, "metric.disc_family")
                + _durations(spans, "metric.perturbed_family"))
    out = {
        "metric.eval_us": _median_of(spans, "metric.eval_metric", scale=1e6),
        "metric.curvature_us": _median_of(spans, "metric.gauss_curvature",
                                          scale=1e6),
        "metric.family_ms": (statistics.median(families) * 1e3
                             if families else None),
        "flow.trace_ms_p50": quantile(traces, 0.5) * 1e3 if traces else None,
        "flow.trace_ms_p90": quantile(traces, 0.9) * 1e3 if traces else None,
        "flow.steps_accepted": _mean_count(spans, "flow.trace_geodesic"),
        "flow.rhs_us": _median_of(spans, "flow.barX_eval", scale=1e6),
        "flow.self_share": share("flow"),
        "flow.fail": sum(1 for s in spans
                         if s.name.startswith("flow.") and not s.ok),
        "flow.scatjac_ms": _median_of(spans, "flow.scattering_jacobian"),
        "xray.transform_ms_p50": _median_of(spans, "xray.xray_transform"),
        "xray.potential_ms_p50": _median_of(spans, "xray.xray_transform",
                                            "potential"),
        "xray.self_share": share("xray"),
        "renorm.distance_ms_p50": _median_of(spans,
                                             "renorm.boundary_distance"),
        "renorm.newton_iters": _mean_count(spans, "renorm.boundary_distance"),
        "renorm.length_ms": _median_of(spans, "renorm.renormalized_length"),
        "renorm.mellin_ms": _median_of(spans, "renorm.mellin_length"),
        "recover.synth_ms": _median_of(spans, "recover.synthesize_samples"),
        "recover.first_jet_ms": _median_of(spans,
                                           "recover.recover_first_jet"),
        "recover.fit_s": _median_of(spans, "recover.recover_jet_fit",
                                    scale=1.0),
        "jacobi.system_ms": _median_of(spans, "jacobi.jacobi_system"),
        "jacobi.frame_ms": _median_of(spans, "jacobi.stable_unstable"),
        "jacobi.conj_ms": _median_of(spans, "jacobi.conjugate_points"),
        "jacobi.decay_ms": _median_of(spans, "jacobi.decay_fit"),
        "jacobi.self_share": share("jacobi"),
    }
    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}_s"] = _median_of(spans, "cli.main", cmd, scale=1.0)
    return out

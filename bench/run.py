"""Benchmark of the ahx geodesic-tomography pipeline.

Usage, from the repository root:

    python3 bench/run.py --workload santalo-grid --seed 1 --seconds 15

Runs one workload of ``bench/workloads.py`` on inputs made from ``--seed``:
sets it up several times, then repeats timed passes over its items for
``--seconds`` seconds and checks every output against its tolerance.  It
prints a readable report and, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` they are its per-layer metrics, from passes that record a span
around every call into ``ahx``, alternated with untraced passes so the
tracing overhead is measured in the same run.  ``--tiny`` runs one pass at
the smallest size, for the smoke test.

The package is imported from ``src/`` next to this directory; nothing needs
installing.  The exit code is 0 when every check passed, 1 when a check
failed and 2 when the package or the spec is missing.
"""
import argparse
import bisect
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import tracing

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
# Item percentiles are reported where a run holds at least this many items,
# so that at least ten lie beyond p90.
MIN_ITEMS = 100
# Probes on each side of an item that set its scale: single probes are
# noisy, and the machine's speed holds for about a second.
BRACKET = 2
SETUP_PROBES = 3
SAMPLE_TRAJECTORIES = 8
SAMPLE_STATES = 8
SAMPLED = ("metric.eval_us", "metric.curvature_us", "flow.rhs_us")
# Units of the end-to-end figures the report prints; BENCHMARK.json gates
# the ones that are never zero and have enough items on every workload.
# setup_s, wall_s and cpu_s are at the probe's reference machine speed; the
# *_raw_s figures are as measured and machine_speed is the median scale of
# the passes.
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "item_ms_p50": "ms",
             "item_ms_p90": "ms", "fail_frac": "frac",
             "tol_margin_digits": "digits", "peak_rss_mb": "MB",
             "setup_raw_s": "s", "wall_raw_s": "s", "cpu_raw_s": "s",
             "machine_speed": "x"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="one pass at the smallest size (smoke test)")
    return p.parse_args(argv)


def run_setup(w, api, repeats):
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        w.setup(api)
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Pass(NamedTuple):
    pass_id: int
    traced: bool
    wall: float
    cpu: float


def run_passes(w, rec, seconds, tiny, apis, tracer):
    """Timed passes until ``seconds`` have elapsed (one when tiny).

    ``apis`` alternates between untraced and traced bindings in trace mode.
    """
    passes = []
    start = perf_counter()
    while True:
        api = apis[len(passes) % len(apis)]
        traced = api is not apis[0]
        rec.tracer = tracer if traced else None
        rec.pass_id = len(passes)
        rec.probe()
        t0, c0 = perf_counter(), tracing.cpu_seconds()
        w.run_pass(api, rec)
        passes.append(Pass(rec.pass_id, traced, perf_counter() - t0,
                           tracing.cpu_seconds() - c0))
        rec.probe()
        if len(passes) >= len(apis) and (
                tiny or perf_counter() - start >= seconds):
            break
    rec.tracer = rec.pass_id = None
    return passes


def pass_scales(passes, probes, scaled=True):
    """Per pass, PROBE_REF_S over the median probe time of that pass (1.0
    when not scaled)."""
    return {p.pass_id: tracing.PROBE_REF_S / statistics.median(
        q.wall for q in probes if q.pass_id == p.pass_id) if scaled else 1.0
        for p in passes}


def item_scales(rec, ids):
    """Per item of the passes ``ids``: PROBE_REF_S over the mean time of
    the BRACKET probes just before and the BRACKET just after it."""
    probes = sorted((q for q in rec.probes if q.pass_id in ids),
                    key=lambda q: q.end)
    ends = [q.end for q in probes]
    scales = {}
    for k, it in enumerate(rec.items):
        if it.pass_id in ids:
            i = bisect.bisect_right(ends, it.start)
            j = bisect.bisect_left(ends, it.start + it.wall)
            near = probes[max(0, i - BRACKET):i] + probes[j:j + BRACKET]
            scales[k] = tracing.PROBE_REF_S / statistics.fmean(
                q.wall for q in near)
    return scales


def pass_time(passes, rec, field, scaled=True):
    """Time of one pass, taken item by item: each item's median over the
    passes, summed, plus the median time the passes spent between items.

    Every pass runs the same items in the same order, so this estimates the
    median pass; a second or two of slowdown on a shared machine moves it
    less than it moves whole passes.  Scaled times are at the probe's
    reference machine speed (see tracing.PROBE_REF_S): each item by the
    probes that bracket it, the time between items by its pass's median
    probe.  Probe time is left out.
    """
    ids = {p.pass_id for p in passes}
    pass_scale = pass_scales(passes, rec.probes, scaled)
    scale = item_scales(rec, ids) if scaled else {}
    by_pass = {p.pass_id: [] for p in passes}
    for k, it in enumerate(rec.items):
        if it.pass_id in ids:
            by_pass[it.pass_id].append(getattr(it, field) * scale.get(k, 1.0))
    between = []
    for p in passes:
        raw_items = sum(getattr(it, field) for it in rec.items
                        if it.pass_id == p.pass_id)
        inner = sum(getattr(q, field) for q in rec.probes
                    if q.pass_id == p.pass_id and q.inner)
        between.append((getattr(p, field) - inner - raw_items)
                       * pass_scale[p.pass_id])
    return sum(statistics.median(c) for c in zip(*by_pass.values())) \
        + statistics.median(between)


def sample_layers(trajectories, api):
    """Time single metric, curvature and flow-generator evaluations at
    states taken from the run's own trajectories."""
    for traj in trajectories[:SAMPLE_TRAJECTORIES]:
        fam = traj.family
        for i in range(SAMPLE_STATES):
            state = traj.state_at(traj.tau_plus * (i + 0.5) / SAMPLE_STATES)
            api.eval_metric(fam, state.rho, state.y)
            api.gauss_curvature(fam, state.rho, state.y)
            api.barX_eval(fam, state)


def end_to_end(rec, setup_raw_s, setup_probes, passes):
    plain = [p for p in passes if not p.traced]
    ids = {p.pass_id for p in plain}
    timed = [it.wall for it in rec.items if it.pass_id in ids]
    margins = [m for _, _, m in rec.checks.values() if math.isfinite(m)]
    out = {
        "setup_s": setup_raw_s * tracing.PROBE_REF_S
        / statistics.median(setup_probes),
        "wall_s": pass_time(plain, rec, "wall"),
        "cpu_s": pass_time(plain, rec, "cpu"),
        "setup_raw_s": setup_raw_s,
        "wall_raw_s": pass_time(plain, rec, "wall", scaled=False),
        "cpu_raw_s": pass_time(plain, rec, "cpu", scaled=False),
        "machine_speed": statistics.median(
            pass_scales(plain, rec.probes).values()),
        "fail_frac": rec.failed / len(rec.items),
        "tol_margin_digits": min(margins) if margins else None,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for name, q in (("item_ms_p50", 0.5), ("item_ms_p90", 0.9)):
        out[name] = (tracing.quantile(timed, q) * 1e3
                     if len(timed) >= MIN_ITEMS else None)
    return out


def per_layer(registry, w, rec, args, setup_tracer, pass_tracer, passes):
    """Per-layer figures.

    Shares and failures come from this workload's traced passes.  Unit
    costs come from them too where the workload loads the layer; for the
    other layers they come from one traced tiny pass of each other
    workload, so every layer has a figure in every traced run.  Metric and
    generator evaluations are timed at states of the run's trajectories.
    """
    comp_tracer = tracing.Tracer()
    comp_api = tracing.make_api(comp_tracer)
    trajectories = list(w.trajectories) + list(w.warmup)
    for name, cls in registry.items():
        if name == w.name:
            continue
        other = cls(args.seed, True, ROOT)
        try:
            other.setup(comp_api)
            other.reference()
            rec.tracer = comp_tracer
            other.run_pass(comp_api, rec)
        finally:
            rec.tracer = None
            other.close()
        trajectories += list(other.trajectories) + list(other.warmup)
    sample_tracer = tracing.Tracer()
    sample_layers(trajectories, tracing.make_api(sample_tracer))

    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    own = tracing.layer_metrics(pass_tracer, sum(p.wall for p in traced))
    setup = tracing.layer_metrics(setup_tracer)
    sampled = tracing.layer_metrics(sample_tracer)
    companions = tracing.layer_metrics(comp_tracer)
    merged = {}
    for key, value in own.items():
        if key.endswith("self_share") or key == "flow.fail":
            merged[key] = value
        elif key in SAMPLED:
            merged[key] = sampled[key]
        elif key == "metric.family_ms":
            merged[key] = (setup[key] if setup[key] is not None
                           else companions[key])
        else:
            merged[key] = value if value is not None else companions[key]
    merged["bench.trace_overhead_s"] = (pass_time(traced, rec, "wall")
                                        - pass_time(plain, rec, "wall"))
    return merged


def report(spec_metrics, values, units):
    """Readable lines for every metric, then the declared ones as a dict."""
    out = {}
    for name, value in values.items():
        shown = "n/a (too few items)" if value is None else f"{value:.6g}"
        print(f"  {name:26s} {shown} {units.get(name, '')}")
    for m in spec_metrics:
        value = values.get(m["name"])
        if value is None:
            raise RuntimeError(f"metric {m['name']} was not measured")
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def main(argv=None):
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "ahx" / "__init__.py").is_file() \
            or not spec_path.is_file():
        print(f"bench: {ROOT} holds no src/ahx package or no BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    # One BLAS/OpenMP thread, set before numpy loads, so the two pool
    # workers of ``--jobs 2`` use at most two cores.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    t0 = perf_counter()
    import ahx  # noqa: F401  (the import is part of setup_s)
    import_s = perf_counter() - t0
    import numpy
    import scipy
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace} tiny {args.tiny}")
    print(f"nproc {os.cpu_count()} python {platform.python_version()} "
          f"numpy {numpy.__version__} scipy {scipy.__version__}")

    w = workloads.WORKLOADS[args.workload](args.seed, args.tiny, ROOT)
    print(f"layers {' '.join(w.layers)}")
    rec = tracing.Recorder()
    plain_api = tracing.make_api(None)
    setup_tracer, pass_tracer = tracing.Tracer(), tracing.Tracer()
    try:
        setup_api = tracing.make_api(setup_tracer) if args.trace else \
            plain_api
        # the import runs before a probe can, so the set-up is scaled by
        # probes taken just after it and just after the set-ups
        setup_probes = [tracing.machine_probe()[0]
                        for _ in range(SETUP_PROBES)]
        setup_raw_s = import_s + run_setup(w, setup_api,
                                           1 if args.tiny else SETUP_REPEATS)
        setup_probes += [tracing.machine_probe()[0]
                         for _ in range(SETUP_PROBES)]
        w.reference()
        apis = [plain_api]
        if args.trace:
            apis.append(tracing.make_api(pass_tracer))
        passes = run_passes(w, rec, args.seconds, args.tiny, apis,
                            pass_tracer)
        w.final_checks(rec)
        e2e = end_to_end(rec, setup_raw_s, setup_probes, passes)
        layers = None
        if args.trace:
            layers = per_layer(workloads.WORKLOADS, w, rec, args,
                               setup_tracer, pass_tracer, passes)
    finally:
        w.close()

    n_traced = sum(p.traced for p in passes)
    print(f"passes {len(passes) - n_traced} untraced, {n_traced} traced; "
          f"items {len(rec.items)} attempted, {rec.failed} failed")
    print("  pass wall_s " + " ".join(
        f"{p.wall:.3f}{'t' if p.traced else ''}" for p in passes))
    kinds = {}
    for it in rec.items:
        kinds.setdefault(it.kind, []).append(it.wall)
    for kind, times in kinds.items():
        print(f"  item {kind:20s} n {len(times):5d} median_ms "
              f"{statistics.median(times) * 1e3:.1f}")
    for name, (count, failures, margin) in sorted(rec.checks.items()):
        shown = f"{margin:.3f}" if math.isfinite(margin) else "-"
        print(f"  check {name:20s} ran {count:5d} failed {failures:3d} "
              f"margin_digits {shown}")
    print("end-to-end:")
    metrics = report(spec["end_to_end"], e2e, E2E_UNITS)
    if args.trace:
        print("per-layer:")
        metrics = report(spec["per_layer"], layers,
                         {m["name"]: m["unit"] for m in spec["per_layer"]})
    missing = sorted(set(w.checks) - set(rec.checks))
    if missing:
        print(f"checks that never ran: {missing}")
    correct = rec.failed == 0 and not missing
    print(json.dumps({"correct": correct, "attempted": len(rec.items),
                      "failed": rec.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

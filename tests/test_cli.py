"""Command-line front end: exit codes, file formats, determinism.

Every command is run in-process through main(argv) against configs written
into tmp_path, and outputs are checked against the same closed-form model
values the library tests use (half-circle scattering y + 2/eta, lengths
2 log(2/eta), disc distances 2 log(2 sin(theta/2))).
"""
import errno
import json
import math
import os
import signal
import warnings
from pathlib import Path

import numpy as np
import pytest

from ahx import cli, renormalized_length, trace_geodesic, xray_transform
from ahx.cli import config_hash, load_config, main, read_csv
from ahx.flow import DEFAULT_T_MAX, DEFAULT_TOL
from ahx.quadrature import poly_bump
from ahx.xray import SymmetricTensorField

HEX = set("0123456789abcdef")
CONFIGS = sorted((Path(__file__).resolve().parents[1] / "scripts"
                  / "configs").glob("*.json"))


@pytest.fixture(autouse=True)
def no_child_left():
    """Every map reaps its forked workers, whether it returns or raises."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run(command, cfg_path, out_dir, *extra):
    return main([command, "--config", cfg_path, "--out", str(out_dir),
                 *extra])


# ---------------------------------------------------------------------------
# trace


def test_trace_outputs(tmp_path, halfplane):
    cfg = write_config(tmp_path, "c.json", {
        "metric": {"family": "half-plane"},
        "z": {"y": 0.0, "eta": 2.0},
        "samples": 100,
        "svg": True,
    })
    assert run("trace", cfg, tmp_path) == 0

    raw = (tmp_path / "trace.csv").read_bytes()
    assert raw.startswith(b"# config_hash=")
    assert b"\r\n" in raw
    head = raw.split(b"\r\n", 1)[0].decode()
    digest = head.split("=", 1)[1]
    assert len(digest) == 16 and set(digest) <= HEX

    fields, rows = read_csv(tmp_path / "trace.csv")
    assert fields == ["tau", "rho", "y0", "xi_b", "eta0", "t"]
    assert len(rows) == 100
    assert float(rows[0]["rho"]) == 0.0
    assert float(rows[-1]["y0"]) == pytest.approx(1.0, abs=1e-6)
    assert float(rows[-1]["rho"]) == pytest.approx(0.0, abs=1e-8)

    svg = (tmp_path / "trace.svg").read_text()
    assert f"config_hash={digest}" in svg
    assert "<polyline" in svg


def test_trace_arclength_column_closed_form(tmp_path):
    # half-plane rho = sin(eta tau)/eta: above the arclength gate the t
    # column advances by log(tan(eta tau2 / 2) / tan(eta tau1 / 2))
    eta = 2.0
    cfg = write_config(tmp_path, "c.json", {
        "metric": {"family": "half-plane"},
        "z": {"y": 0.0, "eta": eta},
        "samples": 100,
    })
    assert run("trace", cfg, tmp_path) == 0
    _, rows = read_csv(tmp_path / "trace.csv")
    above = [r for r in rows if float(r["rho"]) > 0.011]
    assert len(above) > 90
    tau1, t1 = float(above[0]["tau"]), float(above[0]["t"])
    for r in above:
        want = math.log(math.tan(0.5 * eta * float(r["tau"]))
                        / math.tan(0.5 * eta * tau1))
        assert float(r["t"]) - t1 == pytest.approx(want, abs=1e-8)


def test_trace_floats_round_trip_exactly(tmp_path, halfplane):
    cfg = write_config(tmp_path, "c.json", {
        "metric": {"family": "half-plane"},
        "z": {"y": 0.0, "eta": 2.0},
        "samples": 50,
    })
    assert run("trace", cfg, tmp_path) == 0
    _, rows = read_csv(tmp_path / "trace.csv")
    # the config sets no tol: the CLI traces at the library default
    traj = trace_geodesic(halfplane, (0.0, 2.0), tol=DEFAULT_TOL,
                          t_max=DEFAULT_T_MAX)
    taus = np.linspace(0.0, traj.tau_plus, 50)
    for k in (1, 17, 31, 48):
        state = traj.state_at(float(taus[k]))
        # .17g serialization must reproduce the doubles bit for bit
        assert float(rows[k]["rho"]) == state.rho
        assert float(rows[k]["y0"]) == float(state.y[0])
        assert float(rows[k]["xi_b"]) == state.xi_b


def test_trace_rows_are_state_at_bit_for_bit(tmp_path, perturbed):
    # the rows come from one batched read of the dense output, each row
    # projected onto the cosphere: the same doubles as state_at one tau at
    # a time
    cfg = write_config(tmp_path, "c.json", {
        "metric": {"family": "perturbed",
                   "params": {"a_cos": [0.0, 0.1], "b_cos": [0.02],
                              "b_sin": [0.0, 0.03]}},
        "z": {"y": 1.0, "eta": 3.0},
        "samples": 200,
    })
    assert run("trace", cfg, tmp_path) == 0
    _, rows = read_csv(tmp_path / "trace.csv")
    traj = trace_geodesic(perturbed, (1.0, 3.0), tol=DEFAULT_TOL,
                          t_max=DEFAULT_T_MAX)
    taus = np.linspace(0.0, traj.tau_plus, 200)
    assert len(rows) == 200
    for tau, row in zip(taus.tolist(), rows):
        p = traj.state_at(tau)
        assert [float(row[k]) for k in ("tau", "rho", "y0", "xi_b", "eta0")] \
            == [tau, p.rho, float(p.y[0]), p.xi_b, float(p.eta[0])]


# ---------------------------------------------------------------------------
# scatter


def scatter_config(tmp_path):
    return write_config(tmp_path, "scatter.json", {
        "metric": {"family": "half-plane"},
        "grid": {"y": [0.0, 1.0, -2.0], "eta": [0.5, 1.0, -1.0, 2.0]},
    })


def test_scatter_values_and_parallel_determinism(tmp_path):
    cfg = scatter_config(tmp_path)
    out1 = tmp_path / "serial"
    out2 = tmp_path / "parallel"
    out3 = tmp_path / "serial_again"
    assert run("scatter", cfg, out1) == 0
    assert run("scatter", cfg, out2, "--jobs", "4") == 0
    assert run("scatter", cfg, out3) == 0

    b1 = (out1 / "scatter.csv").read_bytes()
    assert b1 == (out2 / "scatter.csv").read_bytes()
    assert b1 == (out3 / "scatter.csv").read_bytes()

    _, rows = read_csv(out1 / "scatter.csv")
    assert len(rows) == 12
    for row in rows:
        assert row["status"] == "ok"
        y, eta = float(row["y"]), float(row["eta"])
        assert float(row["y_out"]) == pytest.approx(y + 2.0 / eta, abs=1e-8)
        assert float(row["eta_out"]) == pytest.approx(eta, abs=1e-8)


def test_scatter_records_per_row_failures(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "metric": {"family": "perturbed",
                   "params": {"a_cos": [0.0, 0.1], "b_cos": [0.02]}},
        "grid": {"y": [0.0], "eta": [1.0, 3.0]},
    })
    assert run("scatter", cfg, tmp_path) == 0
    _, rows = read_csv(tmp_path / "scatter.csv")
    # eta = 1 turns around outside this family's collar; eta = 3 stays in
    assert rows[0]["status"] == "CollarExitError"
    assert rows[0]["y_out"] == ""
    assert rows[1]["status"] == "ok"


# ---------------------------------------------------------------------------
# rows grouped by eta on y-invariant families


GROUPED = [
    ("scatter", {"metric": {"family": "half-plane"}, "tol": 1e-10,
                 "grid": {"y": [1.0, -2.0, 0.25], "eta": [0.5, -1.0, 2.0]}}),
    ("scatter", {"metric": {"family": "disc-normal"}, "tol": 1e-10,
                 "points": [[5.5, 1.0], [0.5, -2.0], [2.0, 1.0], [6.0, -2.0],
                            [3.0, 1.0]]}),
    ("length", {"metric": {"family": "half-plane"}, "tol": 1e-10,
                "method": "regularized",
                "points": [[0.0, 0.5], [2.0, 0.5], [-1.0, 1.0]]}),
    # not y-invariant: every row is traced
    ("scatter", {"metric": {"family": "perturbed",
                            "params": {"a_cos": [0.0, 0.1]}}, "tol": 1e-10,
                 "grid": {"y": [0.0, 2.0], "eta": [3.0, -4.0]}}),
    ("xray", {"metric": {"family": "disc-normal"}, "tol": 1e-10, "field": {
        "kind": "bump", "params": {"rho_lo": 0.1, "rho_hi": 0.6,
                                   "cos_amp": 0.4}},
        "grid": {"y": [0.0, 1.5, 3.0, 4.5], "eta": [0.5, 2.0]}}),
]


def traced_rows(command, payload, rows):
    """Each row's outputs from its own trace, as the commands computed them
    before they grouped rows by eta."""
    fam = cli.ExperimentConfig(payload["metric"], {}).family()
    fld = (cli._field_from_spec(payload["field"]) if "field" in payload
           else None)
    out = []
    for row in rows:
        traj = trace_geodesic(fam, (float(row["y"]), float(row["eta"])),
                              tol=payload["tol"])
        out.append({"scatter": lambda: [float(traj.z_out.y[0]),
                                        float(traj.z_out.eta[0])],
                    "length": lambda: [renormalized_length(traj).value],
                    "xray": lambda: [xray_transform(fld, traj)]}[command]())
    return out


@pytest.mark.parametrize("command, payload", GROUPED,
                         ids=[f"{c}-{p['metric']['family']}"
                              for c, p in GROUPED])
def test_grouped_rows_match_their_own_traces(tmp_path, command, payload):
    cfg = write_config(tmp_path, "c.json", payload)
    trees = []
    for jobs in ("1", "2", "4"):
        assert run(command, cfg, tmp_path / jobs, "--jobs", jobs) == 0
        trees.append((tmp_path / jobs / f"{command}.csv").read_bytes())
    assert trees[0] == trees[1] == trees[2]
    _, rows = read_csv(tmp_path / "1" / f"{command}.csv")
    cols = {"scatter": ["y_out", "eta_out"], "length": ["length_reg"],
            "xray": ["integral"]}[command]
    invariant = cli.ExperimentConfig(payload["metric"], {}).family() \
        .y_invariant
    seen = set()
    for row, want in zip(rows, traced_rows(command, payload, rows)):
        assert row["status"] == "ok"
        got = [float(row[c]) for c in cols]
        if row["eta"] not in seen or not invariant:
            # a traced row, such as the first of an eta: its trace's bits
            assert got == want
        else:
            # on the shipped grids at tol 1e-10: 2.9e-12 absolute
            # (scatter), 4.8e-10 relative (xray)
            assert got == pytest.approx(want, rel=5e-9, abs=5e-11)
        seen.add(row["eta"])
    assert len(seen) < len(rows)


def test_group_that_fails_gives_its_status_to_every_row(tmp_path):
    # y-invariant, so each eta is traced once; eta = 1 turns around
    # outside the collar rho < 0.5
    cfg = write_config(tmp_path, "c.json", {
        "metric": {"family": "perturbed",
                   "params": {"a_cos": [0.1], "b_cos": [0.02]}},
        "grid": {"y": [0.0, 1.0, 2.5], "eta": [1.0, 3.0]},
    })
    assert run("scatter", cfg, tmp_path) == 0
    _, rows = read_csv(tmp_path / "scatter.csv")
    assert [r["status"] for r in rows] == ["CollarExitError", "ok"] * 3
    assert all(r["y_out"] == "" for r in rows[::2])


# ---------------------------------------------------------------------------
# length and distance


def test_length_command(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "metric": {"family": "half-plane"},
        "points": [[0.0, 0.5], [0.0, 2.0]],
        "method": "both",
        "tol": 1e-12,
    })
    assert run("length", cfg, tmp_path) == 0
    _, rows = read_csv(tmp_path / "length.csv")
    for row in rows:
        eta = float(row["eta"])
        want = 2.0 * math.log(2.0 / eta)
        assert float(row["length_reg"]) == pytest.approx(want, abs=1e-6)
        assert float(row["length_mellin"]) == pytest.approx(want, abs=1e-6)
        assert float(row["residue"]) == pytest.approx(2.0, abs=1e-4)


def test_distance_command_disc_oracle(tmp_path):
    thetas = [2.0 * math.pi / 5.0, 4.0 * math.pi / 5.0, math.pi]
    cfg = write_config(tmp_path, "c.json", {
        "metric": {"family": "disc-normal"},
        "pairs": [[0.0, th] for th in thetas],
        "tol": 1e-9,
    })
    assert run("distance", cfg, tmp_path) == 0
    _, rows = read_csv(tmp_path / "distance.csv")
    for row, th in zip(rows, thetas):
        want = 2.0 * math.log(2.0 * math.sin(th / 2.0))
        assert float(row["distance"]) == pytest.approx(want, abs=1e-8)
        assert row["status"] == "ok"


# ---------------------------------------------------------------------------
# xray, recover, diagnose


def test_xray_command_matches_library(tmp_path, disc):
    spec = {"amplitude": 1.0, "rho_lo": 0.1, "rho_hi": 0.4, "cos_amp": 0.3}
    cfg = write_config(tmp_path, "c.json", {
        "metric": {"family": "disc-normal"},
        "field": {"kind": "bump", "params": spec},
        "points": [[0.5, 1.0], [0.0, 2.0]],
    })
    assert run("xray", cfg, tmp_path) == 0
    width = spec["rho_hi"] - spec["rho_lo"]

    def comp(rho, y):
        prof = spec["amplitude"] * poly_bump((rho - spec["rho_lo"]) / width)
        return prof * (1.0 + spec["cos_amp"] * np.cos(y[..., 0]))

    # the bump is not smooth at the edges of its support
    fld = SymmetricTensorField(rank=0, weight=1, components=comp,
                               breaks=(spec["rho_lo"], spec["rho_hi"]))
    _, rows = read_csv(tmp_path / "xray.csv")
    for row in rows:
        traj = trace_geodesic(disc, (float(row["y"]), float(row["eta"])),
                              tol=DEFAULT_TOL)
        want = xray_transform(fld, traj)
        assert float(row["integral"]) == pytest.approx(want, rel=1e-12)
        assert float(row["integral"]) > 0.0


def test_recover_command(tmp_path):
    third = 2.0 * math.pi / 3.0
    cfg = write_config(tmp_path, "c.json", {
        "metric": {"family": "half-plane"},
        "y0s": [0.0, third, 2.0 * third],
        "route": "asymptotic",
    })
    assert run("recover", cfg, tmp_path) == 0
    _, rows = read_csv(tmp_path / "recover.csv")
    assert len(rows) == 3
    for row in rows:
        assert float(row["h0"]) == pytest.approx(1.0, abs=1e-8)
        assert abs(float(row["drho_h"])) < 1e-6
    payload = json.loads((tmp_path / "recover_asymptotic.json").read_text())
    assert np.max(np.abs(np.asarray(payload["drho_h"]))) < 1e-6


def test_diagnose_command(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "metric": {"family": "half-plane"},
        "grid": {"y": [0.0], "eta": [1.0, 2.0]},
    })
    assert run("diagnose", cfg, tmp_path) == 0
    payload = json.loads((tmp_path / "diagnose.json").read_text())
    assert payload["n_geodesics"] == 2
    assert payload["trace_failures"] == 0
    assert payload["conjugate_count"] == 0
    assert payload["min_angle_deg"] == pytest.approx(90.0, abs=1e-6)
    assert payload["nu_fit"] == pytest.approx(1.0, abs=1e-6)


def test_diagnose_with_every_trace_failed_writes_null_fits(tmp_path):
    # eta 0.5 leaves the perturbed collar on every row: with no geodesic
    # diagnosed, the angle and the fits are null, not the Infinity that
    # JSON (RFC 8259) does not have, and C_fit is not the 0 of perfect decay
    cfg = write_config(tmp_path, "c.json", {
        "metric": {"family": "perturbed"},
        "grid": {"y": [0.0, 1.0], "eta": [0.5]},
        "tol": 1e-10,
    })
    assert run("diagnose", cfg, tmp_path) == 0

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    payload = json.loads((tmp_path / "diagnose.json").read_text(),
                         parse_constant=refuse)
    assert payload == {"min_angle_deg": None, "conjugate_count": 0,
                       "nu_fit": None, "C_fit": None, "trace_failures": 2,
                       "n_geodesics": 0}


def test_jobs_never_fork_more_workers_than_cpus(monkeypatch):
    # os.fork records each call and fails as on a machine out of process
    # ids, so no process starts: --jobs 64 on 49 rows of a 2-CPU machine
    # makes one attempt, 1 row none, and the parent evaluates every row
    calls = []

    def fork():
        calls.append(len(calls))
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    rows = list(range(49))
    assert cli._map_rows(lambda r: r * r, rows, 64) == [r * r for r in rows]
    assert len(calls) == 1
    assert cli._map_rows(lambda r: -r, rows[1:2], 64) == [-1]
    assert len(calls) == 1


def test_lowest_failing_row_is_raised():
    # rows 13 and 5 raise; every process finishes its current row, so the
    # map raises row 5's error, as a serial run would
    def worker(r):
        if r in (5, 13):
            raise ValueError(f"row {r}")
        return r

    for jobs in (1, 2):
        with pytest.raises(ValueError, match="^row 5$"):
            cli._map_rows(worker, list(range(20)), jobs)


@pytest.fixture
def deadline():
    """A TimeoutError in a test still running after 60 s, where a map that
    waits for a dead child would hang."""
    def expire(signum, frame):
        raise TimeoutError("still running after 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def dying_in_the_child(fn, die):
    """``fn`` in this process, once the forked child has ended: the child
    calls ``die`` on the first row it takes, so it takes one whatever the
    scheduling."""
    parent = os.getpid()

    def worker(*args, **kwargs):
        if os.getpid() != parent:
            die()
        os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)
        return fn(*args, **kwargs)

    return worker


@pytest.mark.parametrize("die, status", [
    (lambda: os._exit(7), "exited with status 7"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "killed by SIGKILL")],
    ids=["exit", "signal"])
def test_worker_that_dies_raises_with_its_exit_status(deadline, monkeypatch,
                                                      die, status):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    with pytest.raises(cli.WorkerExitError, match=status):
        cli._map_rows(dying_in_the_child(lambda r: r, die), list(range(6)),
                      2)


def test_worker_that_dies_exits_1(deadline, tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "metric": {"family": "half-plane"},
        "points": [[0.0, 1.0], [1.0, 1.0], [2.0, 1.0]],
    })
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(cli, "diagnose_covector", dying_in_the_child(
        cli.diagnose_covector, lambda: os._exit(9)))
    assert run("diagnose", cfg, tmp_path, "--jobs", "2") == 1
    err = capsys.readouterr().err
    assert err.startswith("ahx: worker process ")
    assert "exited with status 9" in err and "Traceback" not in err
    assert not (tmp_path / "diagnose.json").exists()


def test_diagnose_parallel_determinism(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "metric": {"family": "perturbed",
                   "params": {"a_cos": [0.0, 0.1], "b_cos": [0.02]}},
        "points": [[0.0, 3.0], [1.5, 3.5]],
    })
    out1 = tmp_path / "serial"
    out2 = tmp_path / "parallel"
    assert run("diagnose", cfg, out1) == 0
    assert run("diagnose", cfg, out2, "--jobs", "2") == 0
    b1 = (out1 / "diagnose.json").read_bytes()
    assert b1 == (out2 / "diagnose.json").read_bytes()
    payload = json.loads(b1)
    assert payload["n_geodesics"] == 2
    assert payload["trace_failures"] == 0


def test_diagnose_scan_beyond_T_asym_maps_its_range(tmp_path):
    # the orbit is mapped to max(T_asym, t_scan) + 2, so the scan fits
    cfg = write_config(tmp_path, "c.json", {
        "metric": {"family": "half-plane"},
        "points": [[0.0, 1.0]],
        "T_asym": 10.0,
        "t_scan": 12.5,
    })
    assert run("diagnose", cfg, tmp_path) == 0
    payload = json.loads((tmp_path / "diagnose.json").read_text())
    assert payload["conjugate_count"] == 0
    assert payload["n_geodesics"] == 1


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_diagnose_unsettled_seeding_time_exits_3(tmp_path, capsys, jobs):
    # at t = 3 the perturbed curvature has not settled to -1; at t = 800
    # the seed e^-800 underflows below the normal floats
    for t_asym, why in ((3.0, "asymptote"), (800.0, "underflows")):
        cfg = write_config(tmp_path, "c.json", {
            "metric": {"family": "perturbed",
                       "params": {"a_cos": [0.0, 0.1], "b_cos": [0.02]}},
            "points": [[0.0, 3.0], [1.5, 3.5]],
            "T_asym": t_asym,
            "t_scan": 4.0,
        })
        assert run("diagnose", cfg, tmp_path, "--jobs", jobs) == 3
        err = capsys.readouterr().err
        assert "T_asym" in err and why in err
        assert not (tmp_path / "diagnose.json").exists()


def test_recover_rejected_in_a_worker_exits_3(tmp_path, capsys):
    # two y0s, so --jobs 2 synthesizes the tables in worker processes
    cfg = write_config(tmp_path, "c.json", {
        "metric": {"family": "half-plane"},
        "y0s": [0.0, 1.0],
        "deltas": [0.5, 0.25, 0.125],
    })
    assert run("recover", cfg, tmp_path, "--jobs", "2") == 3
    assert "safe scale" in capsys.readouterr().err
    assert not (tmp_path / "recover.csv").exists()


def test_recover_error_at_jobs_2_is_the_serial_error(tmp_path, capsys):
    # on this family the safe scale depends on y0 (0.133 at y0 = 0, 0.147
    # at y0 = 1) and both lie below the default largest delta 0.2: both
    # rows raise, and every --jobs reports the first row's error
    for y0s in ([0.0, 1.0], [1.0, 0.0]):
        cfg = write_config(tmp_path, "c.json", {
            "metric": {"family": "perturbed",
                       "params": {"a_cos": [4.0, 1.0]}},
            "y0s": y0s,
        })
        errs = []
        for jobs in ("1", "2"):
            assert run("recover", cfg, tmp_path, "--jobs", jobs) == 3
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1]
        scale = {0.0: "0.133333", 1.0: "0.146833"}[y0s[0]]
        assert f"safe scale {scale} " in errs[0]
        assert not (tmp_path / "recover.csv").exists()


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_shipped_config_jobs_2_writes_the_serial_bytes(tmp_path, config):
    trees = []
    for jobs in ("1", "2"):
        out = tmp_path / jobs
        assert run(config.stem.split("_")[0], str(config), out, "--jobs",
                   jobs) == 0
        trees.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert trees[0] and trees[0] == trees[1]


# ---------------------------------------------------------------------------
# exit codes


def test_trapped_geodesic_exits_2(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "metric": {"family": "half-plane"},
        "z": {"y": 0.0, "eta": 1e-5},
        "t_max": 5.0,
    })
    assert run("trace", cfg, tmp_path) == 2


def test_collar_exit_exits_1(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "metric": {"family": "perturbed",
                   "params": {"a_cos": [0.0, 0.1], "b_cos": [0.02]}},
        "z": {"y": 0.0, "eta": 0.5},
    })
    assert run("trace", cfg, tmp_path) == 1


HALF = {"family": "half-plane"}
DISC = {"family": "disc-normal"}


# each case is (command, config)
@pytest.mark.parametrize("payload", [
    ("trace", {"metric": {"family": "nonesuch"},
               "z": {"y": 0.0, "eta": 1.0}}),            # unknown family
    ("trace", {"metric": HALF}),                          # missing z
    ("scatter", {"metric": HALF,
                 "grid": {"y": [0.0], "eta": [0.0]}}),    # grazing covector
    ("trace", {"metric": HALF, "z": {"y": 0.0, "eta": 1.0},
               "samples": 1}),                            # degenerate sampling
    ("scatter", {"metric": {"family": "product",
                            "params": {"factors": [HALF, HALF]}},
                 "grid": {"y": [0.0], "eta": [1.0]}}),    # n = 2 metric
    # malformed values
    ("scatter", {"metric": HALF, "grid": {"y": [0.0]}}),
    ("scatter", {"metric": HALF, "points": [["a", 1.0]]}),
    ("distance", {"metric": DISC, "pairs": [[0.0]]}),
    ("scatter", {"metric": HALF, "points": [[0.0, 1.0, 7.0]]}),
    ("distance", {"metric": DISC, "pairs": [[0.0, 1.0, 2.0]]}),
    ("trace", {"metric": HALF, "z": {"y": 0.0, "eta": 1.0},
               "samples": "many"}),
    ("scatter", {"metric": HALF, "points": [[0.0, 1.0]], "tol": "tight"}),
    ("xray", {"metric": DISC, "points": [[0.0, 1.0]],
              "field": {"kind": "bump", "params": {"amplitude": "x"}}}),
    ("recover", {"metric": HALF, "y0s": [0.0], "directions": [["x"]]}),
    # integers are not truncated, and a bool is not an integer
    ("trace", {"metric": HALF, "z": {"y": 0.0, "eta": 1.0},
               "samples": 2.9}),
    ("xray", {"metric": DISC, "points": [[0.0, 1.0]],
              "field": {"kind": "bump", "params": {"harmonic": 1.5}}}),
    ("trace", {"metric": HALF, "z": {"y": 0.0, "eta": 1.0}, "seed": True}),
    # endpoints that coincide on the circle
    ("distance", {"metric": DISC, "pairs": [[0.0, 6.283185307179586]]}),
    # non-finite numbers (json reads NaN and Infinity)
    ("scatter", {"metric": HALF, "points": [[0.0, math.nan]]}),
    ("scatter", {"metric": HALF, "grid": {"y": [0.0], "eta": [math.inf]}}),
    ("trace", {"metric": HALF, "z": {"y": math.nan, "eta": 1.0}}),
    ("distance", {"metric": DISC, "pairs": [[0.0, math.nan]]}),
    ("trace", {"metric": HALF, "z": {"y": 0.0, "eta": 1.0},
               "tol": math.nan}),
    ("trace", {"metric": HALF, "z": {"y": 0.0, "eta": 1.0},
               "t_max": math.inf}),
    # a flag is a JSON bool
    ("trace", {"metric": HALF, "z": {"y": 0.0, "eta": 1.0}, "svg": "no"}),
    # length tables the recovery rejects
    ("recover", {"metric": HALF, "y0s": [0.0], "deltas": [0.2, 0.1]}),
    ("recover", {"metric": HALF, "y0s": [0.0],
                 "deltas": [0.5, 0.25, 0.125]}),      # above the safe scale
    ("recover", {"metric": HALF, "y0s": []}),
    ("recover", {"metric": HALF, "y0s": [0.0], "directions": [[0.0]]}),
    ("recover", {"metric": HALF, "y0s": [0.0],
                 "directions": [[1.0, 2.0]]}),      # two components, n = 1
    ("recover", {"metric": HALF, "y0s": [0.0], "seed": -1, "noise": 1e-6}),
    ("recover", {"metric": HALF, "y0s": [0.0], "noise": -1e-3}),
    ("recover", {"metric": HALF, "y0s": [0.0],
                 "deltas": [0.2, 0.1, -0.05]}),
    # the radial ray eta = 0 never returns to the boundary
    ("trace", {"metric": HALF, "z": {"y": 0.0, "eta": 0.0}}),
])
def test_config_errors_exit_3(tmp_path, payload):
    command, config = payload
    cfg = write_config(tmp_path, "c.json", config)
    assert run(command, cfg, tmp_path) == 3


@pytest.mark.parametrize("command, config, key", [
    ("scatter", {"metric": {"family": "perturbed",
                            "params": {"a_coss": [0.0, 0.3]}},
                 "points": [[0.0, 2.0]]}, "a_coss"),
    ("scatter", {"metric": {"family": "disc-normal",
                            "params": {"rho_max": 1.0}},
                 "points": [[0.0, 2.0]]}, "rho_max"),
    ("xray", {"metric": DISC, "points": [[0.0, 1.0]],
              "field": {"kind": "bump", "params": {"rho_loo": 0.2}}},
     "rho_loo"),
    ("scatter", {"metric": HALF, "points": [[0.0, 1.0]],
                 "grid": {"y": [0.0], "eta": [2.0]}}, "not both"),
    # a misspelled tol must not leave the rows at the default 1e-12
    ("scatter", {"metric": HALF, "points": [[0.0, 1.0]], "tols": 1e-3},
     "tols"),
    ("trace", {"metric": HALF, "z": {"y": 0.0, "eta": 1.0}, "sample": 20},
     "sample"),
    ("trace", {"metric": HALF, "z": {"y": 0.0, "eta": 1.0, "tol": 1e-3}},
     "tol"),
    ("scatter", {"metric": HALF, "grid": {"y": [0.0], "eta": [2.0],
                                          "etas": [1.0]}}, "etas"),
    ("scatter", {"metric": {"family": "half-plane",
                            "params": {"y_bounds": [[-1.0, 1.0]]}},
                 "points": [[0.0, 1.0]]}, "y_bounds"),
], ids=["metric-param", "disc-rho_max", "field-param", "points-and-grid",
        "row-command-key", "trace-key", "z-key", "grid-key", "y_bounds"])
def test_unknown_or_conflicting_keys_exit_3(tmp_path, capsys, command, config,
                                            key):
    cfg = write_config(tmp_path, "c.json", config)
    assert run(command, cfg, tmp_path) == 3
    assert key in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


def test_diagnose_scan_overflow_exits_3(tmp_path, capsys):
    # the scan's field grows like e^t: at t_scan 400 the sign test sees
    # values near 1e173 and must not overflow; at 800 the field overflows
    def config(t_scan):
        return write_config(tmp_path, "c.json", {
            "metric": HALF, "points": [[0.0, 1.0]], "t_scan": t_scan})

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("diagnose", config(400.0), tmp_path) == 0
    assert capsys.readouterr().err == ""
    assert json.loads((tmp_path / "diagnose.json").read_text())[
        "conjugate_count"] == 0
    (tmp_path / "diagnose.json").unlink()
    assert run("diagnose", config(800.0), tmp_path) == 3
    assert "t_max=800" in capsys.readouterr().err
    assert not (tmp_path / "diagnose.json").exists()


# one small config per command that takes a tol; each sets no tol
DEFAULT_TOL_CONFIGS = {
    "trace": {"metric": HALF, "z": {"y": 0.0, "eta": 2.0}, "samples": 20},
    "scatter": {"metric": DISC, "points": [[0.0, 1.0], [1.0, 2.0]]},
    "length": {"metric": DISC, "points": [[0.5, 1.5]]},
    "xray": {"metric": DISC, "points": [[0.5, 1.0]],
             "field": {"kind": "bump", "params": {"cos_amp": 0.3}}},
    "recover": {"metric": HALF, "y0s": [0.0, 2.0, 4.0],
                "route": "asymptotic"},
    "diagnose": {"metric": DISC, "points": [[0.0, 1.5]]},
}


@pytest.mark.parametrize("command", sorted(DEFAULT_TOL_CONFIGS))
def test_tol_defaults_to_the_library_default(tmp_path, command):
    config = DEFAULT_TOL_CONFIGS[command]
    outputs = []
    for name, payload in (("default", config),
                          ("explicit", {**config, "tol": DEFAULT_TOL})):
        out = tmp_path / name
        assert run(command, write_config(tmp_path, f"{name}.json", payload),
                   out) == 0
        files = {}
        for path in sorted(out.iterdir()):
            text = path.read_bytes()
            # the two configs differ, and so do their config_hash lines
            files[path.name] = (text.split(b"\r\n", 1)[1]
                                if path.suffix == ".csv" else text)
        outputs.append(files)
    assert outputs[0] and outputs[0] == outputs[1]


def test_malformed_and_missing_config_exit_3(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json", encoding="utf-8")
    assert run("trace", str(bad), tmp_path) == 3
    assert run("trace", str(tmp_path / "absent.json"), tmp_path) == 3


def test_bad_jobs_value_exits_3(tmp_path):
    cfg = scatter_config(tmp_path)
    assert main(["scatter", "--config", cfg, "--out", str(tmp_path),
                 "--jobs", "0"]) == 3


def test_bad_length_method_exits_3(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "metric": {"family": "half-plane"},
        "points": [[0.0, 1.0]],
        "method": "bogus",
    })
    assert run("length", cfg, tmp_path) == 3


# ---------------------------------------------------------------------------
# config hashing


def test_config_hash_is_canonical(tmp_path):
    p1 = tmp_path / "a.json"
    p1.write_text('{"metric": {"family": "half-plane"}, '
                  '"z": {"y": 0.0, "eta": 2.0}}', encoding="utf-8")
    p2 = tmp_path / "b.json"
    p2.write_text('{\n  "z": {"eta": 2.0, "y": 0.0},\n'
                  '  "metric": {"family": "half-plane"}\n}', encoding="utf-8")
    h1 = config_hash(load_config(p1))
    h2 = config_hash(load_config(p2))
    assert h1 == h2
    p3 = tmp_path / "c.json"
    p3.write_text('{"metric": {"family": "half-plane"}, '
                  '"z": {"y": 0.0, "eta": 2.5}}', encoding="utf-8")
    assert config_hash(load_config(p3)) != h1

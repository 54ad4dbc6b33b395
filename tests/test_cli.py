"""Command-line front end: exit codes, file formats, determinism.

Every command is run in-process through main(argv) against configs written
into tmp_path, and outputs are checked against the same closed-form model
values the library tests use (half-circle scattering y + 2/eta, lengths
2 log(2/eta), disc distances 2 log(2 sin(theta/2))).
"""
import json
import math

import numpy as np
import pytest

from ahx import trace_geodesic, xray_transform
from ahx.cli import config_hash, load_config, main, read_csv
from ahx.flow import DEFAULT_T_MAX, DEFAULT_TOL
from ahx.quadrature import poly_bump
from ahx.xray import SymmetricTensorField

HEX = set("0123456789abcdef")


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

    fld = SymmetricTensorField(rank=0, weight=1, components=comp)
    _, rows = read_csv(tmp_path / "xray.csv")
    for row in rows:
        traj = trace_geodesic(disc, (float(row["y"]), float(row["eta"])),
                              tol=DEFAULT_TOL)
        # the command cuts the quadrature at the edges of the support
        want = xray_transform(fld, traj,
                              rho_breaks=(spec["rho_lo"], spec["rho_hi"]))
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
    # the seed's atol SOLVE_TOL e^-800 underflows to 0
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
    # the radial ray eta = 0 never returns to the boundary
    ("trace", {"metric": HALF, "z": {"y": 0.0, "eta": 0.0}}),
])
def test_config_errors_exit_3(tmp_path, payload):
    command, config = payload
    cfg = write_config(tmp_path, "c.json", config)
    assert run(command, cfg, tmp_path) == 3


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

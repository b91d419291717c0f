import csv
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from sbdsim import cli
from sbdsim.cli import main
from sbdsim.config import initial_configuration, load_config, replica_rng
from sbdsim.dynamics import ModelSpec, Snapshot, run
from sbdsim.geometry import Torus, sample_poisson
from sbdsim.kernels import ImmigrationField, gaussian, triangular


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_config(path, data):
    path.write_text(json.dumps(data, indent=2))
    return str(path)


def surgailis_config(replicas=8, seed=3):
    return {
        "model": {"variant": "migration", "m": 0.0, "b": {"constant": 0.5}},
        "torus": {"L": 20.0, "d": 1},
        "init": {"poisson": 1.0},
        "schedule": {"t_end": 2.0, "snapshot_times": [1.0, 2.0], "burn_in": 0.0},
        "replicas": replicas,
        "seed": seed,
    }


def bp_config():
    return {
        "model": {
            "variant": "bolker_pacala",
            "a_plus": {"family": "gaussian", "params": {"weight": 1.0, "sigma": 1.0}, "dim": 1},
            "a_minus": {"family": "triangular", "params": {"height": 1.0, "radius": 1.0}, "dim": 1},
            "m": 0.0,
        },
        "torus": {"L": 20.0, "d": 1},
        "init": {"poisson": 1.0},
        "schedule": {"t_end": 1.0},
        "replicas": 2,
        "seed": 1,
        "certificate": {"omega": 1.0, "trials": 3000, "size_max": 20},
    }


# -- simulate ------------------------------------------------------------------


def test_simulate_surgailis_end_to_end(tmp_path):
    cfg_path = write_config(tmp_path / "cfg.json", surgailis_config(replicas=30))
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tool"]["name"] == "sbdsim"
    assert len(manifest["replica_traces"]) == 30
    for rel in manifest["replica_traces"]:
        assert (out / rel / "events.csv").exists()
        assert (out / rel / "snapshots.csv").exists()

    report = json.loads((out / "report.json").read_text())
    check = report["checks"]["surgailis_density"]
    assert check["passed"]
    # the t = 2 entry compares against density 1 + 0.5 t = 2
    by_time = {row["time"]: row for row in check["rows"]}
    assert by_time[2.0]["expected"] == pytest.approx(2.0)
    assert abs(by_time[2.0]["observed"] - 2.0) <= 3.0 * by_time[2.0]["se"] + 1e-12


def test_simulate_is_byte_deterministic(tmp_path):
    cfg_path = write_config(tmp_path / "cfg.json", surgailis_config(replicas=2))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg_path, "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", cfg_path, "--out", str(out_b)]) == 0
    for rel in ("replicas/r0000", "replicas/r0001"):
        for name in ("events.csv", "snapshots.csv"):
            assert (out_a / rel / name).read_bytes() == (out_b / rel / name).read_bytes()


def test_simulate_seed_override_changes_trace(tmp_path):
    cfg_path = write_config(tmp_path / "cfg.json", surgailis_config(replicas=1))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg_path, "--out", str(out_a)]) == 0
    assert (
        main(["simulate", "--config", cfg_path, "--out", str(out_b), "--seed", "99"]) == 0
    )
    a = (out_a / "replicas/r0000/events.csv").read_bytes()
    b = (out_b / "replicas/r0000/events.csv").read_bytes()
    assert a != b


def test_simulate_zero_replicas_is_usage_error(tmp_path):
    cfg = surgailis_config()
    cfg["replicas"] = 0
    cfg_path = write_config(tmp_path / "cfg.json", cfg)
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "command, flag, value, field",
    [
        ("simulate", "--replicas", "0", "replicas"),
        ("certify", "--seed", "-1", "seed"),
        ("verify", "--seed", "-1", "seed"),
    ],
)
def test_overrides_meet_the_config_checks(tmp_path, capsys, command, flag, value, field):
    cfg_path = write_config(tmp_path / "cfg.json", bp_config())
    out = tmp_path / "o"
    assert main([command, "--config", cfg_path, "--out", str(out), flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: config error at {field}: ")
    assert not out.exists()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_simulate_needs_at_least_one_worker(tmp_path, capsys, workers):
    cfg_path = write_config(tmp_path / "cfg.json", bp_config())
    out = tmp_path / "o"
    argv = ["simulate", "--config", cfg_path, "--out", str(out), "--workers", workers]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"usage error: --workers must be at least 1, got {workers}\n"
    assert not out.exists()


def test_workers_give_the_same_run(tmp_path, monkeypatch):
    # replicas in two worker processes write the same files as in one; the
    # manifests differ only in the output directory, which --out gives
    # relative to the working directory and the manifest records as absolute
    monkeypatch.chdir(tmp_path)
    config = str(CONFIGS / "competition_1d.json")
    for workers in ("1", "2"):
        argv = ["simulate", "--config", config, "--replicas", "3", "--out", f"w{workers}"]
        assert main(argv + ["--workers", workers]) == 0
    one, two = tmp_path / "w1", tmp_path / "w2"
    for i in range(3):
        for name in ("events.csv", "snapshots.csv"):
            rel = f"replicas/r{i:04d}/{name}"
            assert (one / rel).read_bytes() == (two / rel).read_bytes()
    assert (one / "report.json").read_bytes() == (two / "report.json").read_bytes()
    manifests = [json.loads((d / "manifest.json").read_text()) for d in (one, two)]
    assert [m["config"]["output"].pop("dir") for m in manifests] == [str(one), str(two)]
    assert manifests[0] == manifests[1]


def test_simulate_missing_config_is_usage_error(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2


def test_simulate_invalid_field_reports_path(tmp_path, capsys):
    cfg = surgailis_config()
    cfg["torus"]["L"] = -5.0
    cfg_path = write_config(tmp_path / "cfg.json", cfg)
    assert main(["simulate", "--config", cfg_path]) == 2
    err = capsys.readouterr().err
    assert "torus.L" in err


def test_simulate_on_a_torus_narrower_than_a_kernel_is_usage_error(tmp_path, capsys):
    # the gaussian a+ (sigma 1) reaches beyond 5 = L/2; certify and verify
    # never use the torus and still accept the config
    cfg = bp_config()
    cfg["torus"]["L"] = 10.0
    cfg_path = write_config(tmp_path / "cfg.json", cfg)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "usage error" in err and "torus.L" in err and "kernel too wide" in err
    assert not out.exists()  # rejected before any replica ran
    for command in ("certify", "verify"):
        out = tmp_path / command
        assert main([command, "--config", cfg_path, "--out", str(out)]) == 0


def reference_events_csv(events, dim) -> bytes:
    """events.csv as formatted one ``Event`` at a time, from its fields."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["t", "kind"] + [f"x{i + 1}" for i in range(dim)] + ["parent_id"])
    for ev in events:
        row = [repr(ev.time), ev.kind]
        row += [repr(float(c)) for c in np.atleast_1d(ev.position)]
        row.append("" if ev.parent is None else str(ev.parent))
        writer.writerow(row)
    return buf.getvalue().encode()


@pytest.mark.parametrize("chunk", [cli.CSV_CHUNK, 7])
@pytest.mark.parametrize("dim", [1, 2])
def test_events_csv_from_columns_matches_per_event_formatting(
    tmp_path, monkeypatch, dim, chunk
):
    monkeypatch.setattr(cli, "CSV_CHUNK", chunk)
    runs = {
        "bolker_pacala": ModelSpec(
            "bolker_pacala",
            a_plus=gaussian(1.5, 0.5, dim),
            a_minus=gaussian(0.5, 0.5, dim),
            m=0.5,
        ),
        "migration": ModelSpec(
            "migration",
            a_minus=triangular(0.5, 1.0, dim),
            m=0.5,
            b=ImmigrationField(constant=2.0),
        ),
    }
    for name, spec in runs.items():
        rng = np.random.default_rng(dim)
        conf = sample_poisson(Torus(8.0, dim), 2.0, rng)
        events = run(spec, conf, t_end=1.0, rng=rng).events
        assert len(events) > 2 * 7
        path = tmp_path / f"{name}.csv"
        cli._write_events_csv(path, events, dim)
        assert path.read_bytes() == reference_events_csv(events, dim)
    # a log with no events writes the header alone
    empty = run(runs["migration"], sample_poisson(Torus(8.0, dim), 0.0, rng), 0.0, rng)
    cli._write_events_csv(path, empty.events, dim)
    assert path.read_bytes() == reference_events_csv([], dim)


def reference_snapshots_csv(snapshots, dim) -> bytes:
    """snapshots.csv as formatted one numpy scalar at a time."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["t", "id"] + [f"x{i + 1}" for i in range(dim)])
    for snap in snapshots:
        for pid, pos in zip(snap.ids, snap.positions):
            writer.writerow([repr(snap.time), int(pid)] + [repr(float(c)) for c in pos])
    return buf.getvalue().encode()


@pytest.mark.parametrize("chunk", [cli.CSV_CHUNK, 7])
@pytest.mark.parametrize("dim", [1, 2])
def test_snapshots_csv_from_columns_matches_per_scalar_formatting(
    tmp_path, monkeypatch, dim, chunk
):
    monkeypatch.setattr(cli, "CSV_CHUNK", chunk)
    spec = ModelSpec(
        "migration",
        a_minus=triangular(0.5, 1.0, dim),
        m=0.5,
        b=ImmigrationField(constant=2.0),
    )
    rng = np.random.default_rng(dim)
    conf = sample_poisson(Torus(8.0, dim), 4.0, rng)
    snapshots = run(spec, conf, 1.0, rng, snapshot_times=(0.0, 0.5, 1.0)).snapshots
    assert min(snap.size for snap in snapshots) > 2 * 7
    # an empty snapshot writes no rows
    empty = Snapshot(0.25, np.array([], dtype=int), np.empty((0, dim)))
    snapshots = [snapshots[0], empty] + snapshots[1:]
    path = tmp_path / "snapshots.csv"
    cli._write_snapshots_csv(path, snapshots, dim)
    assert path.read_bytes() == reference_snapshots_csv(snapshots, dim)


def test_simulate_explosion_guard_exit_code(tmp_path):
    cfg = {
        "model": {
            "variant": "bolker_pacala",
            "a_plus": {"family": "triangular", "params": {"height": 3.0, "radius": 0.5}, "dim": 1},
            "m": 0.0,
        },
        "torus": {"L": 10.0, "d": 1},
        "init": {"poisson": 2.0},
        "schedule": {"t_end": 50.0},
        "replicas": 1,
        "seed": 0,
        "guard": {"max_population": 60},
    }
    cfg_path = write_config(tmp_path / "cfg.json", cfg)
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 4


def test_manifest_roundtrip_reproduces_run(tmp_path):
    cfg_path = write_config(tmp_path / "cfg.json", surgailis_config(replicas=2))
    out_a = tmp_path / "a"
    assert main(["simulate", "--config", cfg_path, "--out", str(out_a)]) == 0
    # the manifest doubles as a config: rerun from it and compare traces
    out_b = tmp_path / "b"
    manifest_path = out_a / "manifest.json"
    assert main(["simulate", "--config", str(manifest_path), "--out", str(out_b)]) == 0
    a = (out_a / "replicas/r0000/events.csv").read_bytes()
    b = (out_b / "replicas/r0000/events.csv").read_bytes()
    assert a == b


def test_manifest_rerun_without_out_writes_back_to_its_directory(tmp_path, monkeypatch):
    # output.dir starts at the config's directory, reached here by a path
    # relative to the working directory; the manifest records it absolute,
    # so a rerun from the manifest alone writes to the same directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfgs").mkdir()
    data = {**surgailis_config(replicas=2), "output": {"dir": "run"}}
    write_config(tmp_path / "cfgs" / "cfg.json", data)
    assert main(["simulate", "--config", "cfgs/cfg.json"]) == 0
    first = (tmp_path / "cfgs/run/replicas/r0000/events.csv").read_bytes()
    assert main(["simulate", "--config", "cfgs/run/manifest.json"]) == 0
    assert list(tmp_path.rglob("manifest.json")) == [tmp_path / "cfgs/run/manifest.json"]
    assert (tmp_path / "cfgs/run/replicas/r0000/events.csv").read_bytes() == first


def test_seed_and_replicas_flags_write_the_manifest_of_the_edited_file(tmp_path):
    # --seed 3 --replicas 2 is the config with those two keys edited
    out = tmp_path / "out"
    configs = []
    for name, edit in (("flags.json", {}), ("edited.json", {"seed": 3, "replicas": 2})):
        data = {**bp_config(), "replicas": 5, "seed": 8, **edit}
        argv = ["simulate", "--config", write_config(tmp_path / name, data)]
        flags = ["--seed", "3", "--replicas", "2"] if not edit else []
        assert main(argv + flags + ["--out", str(out)]) == 0
        configs.append(json.loads((out / "manifest.json").read_text())["config"])
    assert configs[0] == configs[1]
    assert (configs[0]["seed"], configs[0]["replicas"]) == (3, 2)


@pytest.mark.parametrize(
    "init, path, message",
    [
        ({"points": [[1.0, 2.0, 3.0]]}, "init.points", "expected rows of 2 finite numbers"),
        ({"points": [[1.0, "x"]]}, "init.points", "could not convert"),
        ({"points": [[1.0, float("nan")]]}, "init.points", "finite"),
        ({"csv": "missing.csv"}, "init.csv", "cannot read points"),
    ],
    ids=["columns", "non-numeric", "non-finite", "missing csv"],
)
def test_bad_initial_points_are_usage_errors(tmp_path, capsys, init, path, message):
    data = bp_config()
    for kernel in ("a_plus", "a_minus"):
        data["model"][kernel]["dim"] = 2
    data.update(torus={"L": 10.0, "d": 2}, init=init)
    cfg_path = write_config(tmp_path / "cfg.json", data)
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: config error at {path}: ") and message in err
    assert not out.exists()


def test_manifest_records_each_replica_s_clamps(tmp_path):
    # the grid-field migration run whose triangular a- leaves rounding
    # residues below zero: the manifest lists each replica's clamps and
    # largest clamped residue, as the run's trace reports them, and a rerun
    # from the manifest repeats them and the events
    grid = [[0.2, 1.0, 0.5, 0.0], [0.3, 0.1, 0.9, 0.4], [1.0, 0.2, 0.2, 0.7]]
    cfg = {
        "model": {
            "variant": "migration",
            "a_minus": {
                "family": "triangular",
                "params": {"height": 0.3, "radius": 1.0},
                "dim": 2,
            },
            "m": 0.2,
            "b": {"grid": grid + [[0.0, 0.6, 0.3, 0.8]]},
        },
        "torus": {"L": 12.0, "d": 2},
        "init": {"poisson": 1.0},
        "schedule": {"t_end": 20.0},
        "replicas": 2,
        "seed": 0,
    }
    cfg_path = write_config(tmp_path / "cfg.json", cfg)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg_path, "--out", str(out_a)]) == 0
    manifest = json.loads((out_a / "manifest.json").read_text())
    parsed = load_config(cfg_path)
    for i in range(2):
        rng = replica_rng(parsed.seed, i)
        trace = run(parsed.model, initial_configuration(parsed, rng), parsed.t_end, rng)
        assert manifest["clamps"][i] == trace.clamps
        assert manifest["largest_clamp"][i] == trace.largest_clamp
        assert manifest["n_events"][i] == trace.n_events
    assert min(manifest["clamps"]) > 0 and 0.0 < max(manifest["largest_clamp"]) < 1e-12
    manifest_path = out_a / "manifest.json"
    assert main(["simulate", "--config", str(manifest_path), "--out", str(out_b)]) == 0
    again = json.loads((out_b / "manifest.json").read_text())
    for key in ("n_events", "clamps", "largest_clamp"):
        assert again[key] == manifest[key]
    for i in range(2):
        events = f"replicas/r{i:04d}/events.csv"
        assert (out_a / events).read_bytes() == (out_b / events).read_bytes()


# -- certify / verify -----------------------------------------------------------


def test_certify_writes_certificate_and_passes(tmp_path, capsys):
    cfg_path = write_config(tmp_path / "cfg.json", bp_config())
    out = tmp_path / "cert"
    assert main(["certify", "--config", cfg_path, "--out", str(out)]) == 0
    cert = json.loads((out / "certificate.json").read_text())
    # stdout is the certificate plus the verifier's theta_up and the
    # ceiling mass(a-) / mass(a+): the bracket
    printed = json.loads(capsys.readouterr().out)
    theta_up = printed.pop("theta_up")
    theta_ceiling = printed.pop("theta_ceiling")
    assert printed == cert
    assert printed["theta"] <= theta_up
    ceiling = triangular(1.0, 1.0).mass() / gaussian(1.0, 1.0).mass()
    assert printed["theta"] <= theta_ceiling == ceiling
    assert cert["theta"] > 0.0
    assert cert["omega"] == 1.0
    # chain invariants hold on the emitted fields
    assert cert["riemann_sum"] <= 1.0 + cert["epsilon"] + 1e-12
    assert cert["theta"] <= min(
        cert["omega"] / (2.0 * cert["delta"]), cert["a_r_minus"] / cert["delta"]
    ) + 1e-12
    violations = json.loads((out / "violations.json").read_text())
    assert violations["n_violations"] == 0
    assert cert["theta"] <= violations["theta_up"] == theta_up
    assert cert["theta"] <= violations["theta_ceiling"] == theta_ceiling


def test_certify_without_competition_fails(tmp_path, capsys):
    cfg = bp_config()
    del cfg["model"]["a_minus"]
    cfg_path = write_config(tmp_path / "cfg.json", cfg)
    assert main(["certify", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 3
    assert "no competition within reach" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["certify", "verify"])
def test_stale_epsilons_in_config_is_usage_error(tmp_path, capsys, command):
    cfg = bp_config()
    cfg["certificate"].update(epsilons=[0.1, 0.5], radii=[0.25, 0.5])
    cfg_path = write_config(tmp_path / "cfg.json", cfg)
    assert main([command, "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: config error at certificate.epsilons: ")
    assert "derived from the cell sum" in err


@pytest.mark.parametrize("command", ["certify", "verify"])
def test_size_max_below_two_is_usage_error(tmp_path, capsys, command):
    # the cluster samplers draw 2..size_max points, so 1 leaves them no range
    cfg = bp_config()
    cfg["certificate"]["size_max"] = 1
    cfg_path = write_config(tmp_path / "cfg.json", cfg)
    assert main([command, "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: config error at certificate.size_max: ")
    assert "must be >= 2, got 1" in err


def test_verify_standalone_certificate(tmp_path):
    cfg_path = write_config(tmp_path / "cfg.json", bp_config())
    out = tmp_path / "cert"
    assert main(["certify", "--config", cfg_path, "--out", str(out)]) == 0
    out2 = tmp_path / "verify"
    code = main(
        [
            "verify",
            "--config",
            cfg_path,
            "--certificate",
            str(out / "certificate.json"),
            "--out",
            str(out2),
        ]
    )
    assert code == 0
    payload = json.loads((out2 / "violations.json").read_text())
    assert payload["min_u"] >= 0.0
    # the worst configuration is a real one, not the empty set
    rows = (tmp_path / "verify" / "argmin.csv").read_text().splitlines()
    assert len(rows) >= 2
    assert len(payload["argmin_points"]) == len(rows)
    assert payload["argmin_config_csv_path"].endswith("argmin.csv")


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "No such file"),
        ("{not json", "Expecting property name"),
        ('{"dim": 1, "omega": 1.0}', "missing 12 required positional arguments"),
        ('{"dim": 1, "colour": "red"}', "unexpected keyword argument 'colour'"),
    ],
)
def test_verify_bad_certificate_file_is_usage_error(tmp_path, capsys, content, message):
    cfg_path = write_config(tmp_path / "cfg.json", bp_config())
    cert_path = tmp_path / "certificate.json"
    if content is not None:
        cert_path.write_text(content)
    argv = ["verify", "--config", cfg_path, "--certificate", str(cert_path)]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "field, tamper, code, prefix, message",
    [
        ("theta", lambda v: 2.0 * v, 3, "certificate check failed: ", "field theta"),
        ("dim", str, 2, "usage error: ", "field dim has the wrong type: '1'"),
    ],
)
def test_verify_tampered_certificate(
    tmp_path, capsys, field, tamper, code, prefix, message
):
    # a doubled theta fails self_check; a string dim is no certificate at all
    cfg_path = write_config(tmp_path / "cfg.json", bp_config())
    out = tmp_path / "cert"
    assert main(["certify", "--config", cfg_path, "--out", str(out)]) == 0
    cert = json.loads((out / "certificate.json").read_text())
    cert[field] = tamper(cert[field])
    cert_path = tmp_path / "tampered.json"
    cert_path.write_text(json.dumps(cert))
    capsys.readouterr()
    argv = ["verify", "--config", cfg_path, "--certificate", str(cert_path)]
    assert main(argv + ["--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix) and message in err
    assert "Traceback" not in err


# -- bounds -----------------------------------------------------------------------


def test_bounds_bp_hand_value(capsys):
    code = main(
        [
            "bounds",
            "--variant",
            "bolker_pacala",
            "--theta",
            "0",
            "--theta-prime",
            "1",
            "--mass-a-plus",
            "1",
            "--mass-a-minus",
            "1",
            "--sup-a-plus",
            "1",
            "--sup-a-minus",
            "1",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["variant"] == "bolker_pacala"
    assert payload["bound"] == pytest.approx(8 / math.e**2 + (1 + math.e) / math.e)


def test_bounds_migration_hand_value(capsys):
    code = main(
        [
            "bounds",
            "--variant",
            "migration",
            "--theta",
            "0",
            "--theta-prime",
            "1",
            "--mass-a-minus",
            "1",
            "--sup-a-minus",
            "1",
            "--sup-b",
            "1",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["bound"] == pytest.approx(4 / math.e**2 + (1 + math.e) / math.e)


def test_bounds_gap_must_be_positive():
    args = ["bounds", "--variant", "migration", "--theta", "1", "--theta-prime", "1"]
    assert main(args) == 2


# -- analyze -----------------------------------------------------------------------


def test_analyze_recomputes_stored_run(tmp_path):
    cfg_path = write_config(tmp_path / "cfg.json", surgailis_config(replicas=10))
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    assert main(["analyze", "--run", str(out)]) == 0
    analysis = json.loads((out / "analysis.json").read_text())
    report = json.loads((out / "report.json").read_text())
    assert analysis["reports"] == report["reports"]


def test_analyze_missing_run_is_usage_error(tmp_path):
    assert main(["analyze", "--run", str(tmp_path / "missing")]) == 2


def test_analyze_keeps_extinct_replicas(tmp_path):
    # subcritical: death rate 2 against birth mass 0.5, so replicas die out;
    # an empty snapshot writes no rows, and analyze must still count it
    data = bp_config()
    data["model"]["a_plus"]["params"]["weight"] = 0.5
    data["model"]["m"] = 2.0
    data["schedule"] = {"t_end": 3.0, "snapshot_times": [1.0, 2.0, 3.0], "burn_in": 0.0}
    data["replicas"] = 6
    cfg_path = write_config(tmp_path / "cfg.json", data)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    assert main(["analyze", "--run", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    analysis = json.loads((out / "analysis.json").read_text())
    assert [r["replicas"] for r in report["reports"]] == [6, 6, 6]
    assert report["reports"][-1]["density"]["mean"] == 0.0
    assert analysis["reports"] == report["reports"]


def read_snapshots_by_row(path, dim):
    """snapshots.csv read one row at a time into Python floats."""
    by_time = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        for row in reader:
            by_time.setdefault(float(row[0]), []).append([float(v) for v in row[2:]])
    return {t: np.array(rows).reshape(-1, dim) for t, rows in by_time.items()}


def test_analyze_reads_snapshots_as_the_row_reader_does(tmp_path, monkeypatch):
    # d=2, subcritical: some replicas die out between snapshots and one before
    # the first, so files hold empty snapshots and one holds the header alone
    data = bp_config()
    for kernel in ("a_plus", "a_minus"):
        data["model"][kernel]["dim"] = 2
    data["model"]["a_plus"]["params"] = {"weight": 0.5, "sigma": 0.5}
    data["model"]["m"] = 2.0
    data["torus"] = {"L": 8.0, "d": 2}
    data["init"] = {"poisson": 0.1}
    data["schedule"] = {"t_end": 2.0, "snapshot_times": [0.5, 1.0, 2.0], "burn_in": 0.0}
    data["replicas"] = 8
    cfg_path = write_config(tmp_path / "cfg.json", data)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    files = sorted(out.glob("replicas/*/snapshots.csv"))
    times = [set(cli._read_snapshots_csv(f, 2)) for f in files]
    assert set() in times and any(0 < len(t) < 3 for t in times)
    for f in files:
        assert cli._read_snapshots_csv(f, 2).keys() == read_snapshots_by_row(f, 2).keys()

    assert main(["analyze", "--run", str(out), "--out", str(tmp_path / "columns")]) == 0
    monkeypatch.setattr(cli, "_read_snapshots_csv", read_snapshots_by_row)
    assert main(["analyze", "--run", str(out), "--out", str(tmp_path / "rows")]) == 0
    columns = (tmp_path / "columns" / "analysis.json").read_bytes()
    assert columns == (tmp_path / "rows" / "analysis.json").read_bytes()
    reports = json.loads(columns)["reports"]
    assert [r["replicas"] for r in reports] == [8, 8, 8]
    assert reports == json.loads((out / "report.json").read_text())["reports"]

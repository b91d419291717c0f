import argparse
import concurrent.futures
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from sbdsim import cli, geometry
from sbdsim.cli import main
from sbdsim.config import initial_configuration, load_config, replica_rng
from sbdsim.dynamics import EventLog, ModelSpec, RefusedStart, Snapshot, run
from sbdsim.geometry import Torus, load_scale, sample_poisson
from sbdsim.kernels import ImmigrationField, gaussian, triangular
from sbdsim.oracles import NormBoundInput


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


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records each pool's size and runs
    what is submitted at once, in this process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.parametrize("workers, replicas, sizes", [("64", "2", [2]), ("8", "1", [])])
def test_workers_never_outnumber_replicas(tmp_path, monkeypatch, workers, replicas, sizes):
    # a pool starts every worker at its first submit, so it gets at most one
    # per replica, and a single replica runs in this process
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    config = write_config(tmp_path / "cfg.json", surgailis_config())
    argv = ["simulate", "--config", config, "--replicas", replicas]
    assert main(argv + ["--out", str(tmp_path / "pool"), "--workers", workers]) == 0
    assert RecordingPool.sizes == sizes
    assert main(argv + ["--out", str(tmp_path / "serial")]) == 0
    for name in ("report.json", "replicas/r0000/events.csv"):
        pool, serial = (tmp_path / d / name for d in ("pool", "serial"))
        assert pool.read_bytes() == serial.read_bytes()


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


def test_simulate_with_an_immigration_grid_of_other_dimension_is_usage_error(
    tmp_path, capsys
):
    cfg = surgailis_config()
    cfg["model"]["b"] = {"grid": [[1.0, 2.0], [0.5, 0.5]]}
    cfg_path = write_config(tmp_path / "cfg.json", cfg)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "usage error: config error at model.b: grid has 2 axes, torus.d is 1\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "block, key, value",
    [
        ("model", "b", {"grid": []}),
        ("analysis", "window", {"lo": [math.nan], "hi": [20.0]}),
    ],
)
def test_simulate_with_an_empty_grid_or_a_nan_window_is_usage_error(
    tmp_path, capsys, block, key, value
):
    # the empty grid used to divide by zero, and the NaN window to exit 0
    # with a NaN window volume and every factorial moment at 0
    cfg = surgailis_config()
    cfg.setdefault(block, {})[key] = value
    cfg_path = write_config(tmp_path / "cfg.json", cfg)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: config error at {block}.{key}: ")
    assert not out.exists()


def test_tabulated_kernel_with_an_infinite_radius_is_usage_error(tmp_path, capsys):
    # json writes and reads inf as Infinity; certify used to stop in the
    # Riemann sum with a traceback
    cfg = bp_config()
    cfg["model"]["a_minus"] = {
        "family": "tabulated",
        "params": {"radii": [0.0, 0.5, math.inf], "values": [1.0, 0.5, 0.0]},
        "dim": 1,
    }
    cfg_path = write_config(tmp_path / "cfg.json", cfg)
    assert "Infinity" in Path(cfg_path).read_text()
    assert main(["certify", "--config", cfg_path, "--out", str(tmp_path / "c")]) == 2
    err = capsys.readouterr().err
    assert "usage error" in err and "model.a_minus" in err and "finite" in err


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
        b=ImmigrationField(constant=3.0),
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


def csv_writer_bytes(header, rows) -> bytes:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    if header is not None:
        writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_csv_files_are_the_bytes_of_csv_writer(tmp_path, monkeypatch, dim):
    # the events, snapshots and points files, each chunk joined into one
    # string, are byte for byte what csv.writer writes from the same cells:
    # in d = 1 to 3, for an empty log, for parents of -1 (deaths and
    # immigrants) and for floats whose repr takes the exponent form
    monkeypatch.setattr(cli, "CSV_CHUNK", 7)
    floats = [5e-324, 1.5e-05, 0.1, 7.0, 2.5e16, 1e22, 123456.789, 0.0]
    log = EventLog(dim)
    for k in range(30):
        pos = np.array([floats[(k + a) % len(floats)] for a in range(dim)])
        log._append(floats[k % len(floats)] * (k + 1), k % 3 == 0, pos, k, k - 2 if k % 2 else -1)
    for events in (log, EventLog(dim)):
        path = tmp_path / "events.csv"
        cli._write_events_csv(path, events, dim)
        header = ["t", "kind"] + [f"x{i + 1}" for i in range(dim)] + ["parent_id"]
        rows = [
            [repr(t), "birth" if birth else "death", *map(repr, pos), "" if p < 0 else str(p)]
            for t, birth, pos, p in zip(
                events.times.tolist(), events.births.tolist(),
                events.positions.tolist(), events.parents.tolist(),
            )
        ]  # fmt: skip
        assert path.read_bytes() == csv_writer_bytes(header, rows)
    positions = log.positions
    snapshots = [
        Snapshot(1e-07, np.arange(20), positions[:20]),
        Snapshot(0.5, np.array([], dtype=int), np.empty((0, dim))),
        Snapshot(3e20, np.arange(30, 39), positions[:9]),
    ]
    path = tmp_path / "snapshots.csv"
    cli._write_snapshots_csv(path, snapshots, dim)
    rows = [
        [repr(s.time), pid, *map(repr, pos)]
        for s in snapshots
        for pid, pos in zip(s.ids.tolist(), s.positions.tolist())
    ]
    header = ["t", "id"] + [f"x{i + 1}" for i in range(dim)]
    assert path.read_bytes() == csv_writer_bytes(header, rows)
    path = tmp_path / "points.csv"
    cli._write_points_csv(path, positions)
    rows = [[*map(repr, pos)] for pos in positions.tolist()]
    assert path.read_bytes() == csv_writer_bytes(None, rows)


def test_surgailis_check_that_compares_nothing_is_no_check(tmp_path, capsys):
    # one replica, or every snapshot before burn-in, leaves no report: there
    # is then no density check to pass
    one = json.loads((CONFIGS / "free_migration.json").read_text())
    one["replicas"] = 1
    early = surgailis_config(replicas=3)
    early["schedule"].update(burn_in=1.5, snapshot_times=[0.5, 1.0])
    for name, data in (("one", one), ("early", early)):
        out = tmp_path / name
        cfg_path = write_config(tmp_path / f"{name}.json", data)
        assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out) == {"reports": 0}
        report = json.loads((out / "report.json").read_text())
        assert report["reports"] == [] and report["checks"] == {}


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


def test_manifest_records_each_replica_s_peak_and_truncation_budget(tmp_path):
    # the competition_1d model, whose gaussian a- is cut off where it is
    # still positive, on a short box and a short run: the manifest lists each
    # replica's peak population, recounted here from its events.csv, and
    # a_minus.tail_sup() plus the load quantum times it, and no clamp
    # count, since whole-quanta loads never clamp; without a- the budget
    # is 0
    data = json.loads((CONFIGS / "competition_1d.json").read_text())
    data.update(torus={"L": 8.0, "d": 1}, replicas=2, seed=3)
    data["schedule"] = {"t_end": 1.0}
    data["analysis"] = {"window": {"lo": [0.0], "hi": [8.0]}}
    out = tmp_path / "o"
    path = write_config(tmp_path / "c.json", data)
    assert main(["simulate", "--config", path, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert list(manifest) == [
        "tool",
        "config",
        "replica_traces",
        "guard_tripped",
        "absorbed",
        "n_events",
        "births",
        "deaths",
        "n_snapshots",
        "peak_population",
        "truncation_budget",
    ]
    a_minus = load_config(CONFIGS / "competition_1d.json").model.a_minus
    per_pair = a_minus.tail_sup() + 1.0 / load_scale(a_minus)
    assert a_minus.tail_sup() > 0.0 and 0.0 < 1.0 / load_scale(a_minus) <= 2.0**-30
    for i, peak in enumerate(manifest["peak_population"]):
        parsed = load_config(path)
        start = len(initial_configuration(parsed, replica_rng(parsed.seed, i)))
        with open(out / f"replicas/r{i:04d}/events.csv", newline="") as fh:
            kinds = [row["kind"] for row in csv.DictReader(fh)]
        population, want = start, start
        for kind in kinds:
            population += 1 if kind == "birth" else -1
            want = max(want, population)
        assert peak == want > start
        assert manifest["truncation_budget"][i] == per_pair * peak
    del data["model"]["a_minus"]
    out = tmp_path / "free"
    path = write_config(tmp_path / "f.json", data)
    assert main(["simulate", "--config", path, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["truncation_budget"] == [0.0, 0.0]
    assert min(manifest["peak_population"]) > 0


def test_manifest_records_each_replica_s_births_and_deaths(tmp_path):
    # three replicas of the competition_1d model on a short box: each one's
    # births and deaths, recounted here from its events.csv, add up to its
    # event count
    data = json.loads((CONFIGS / "competition_1d.json").read_text())
    data.update(torus={"L": 8.0, "d": 1}, replicas=3, seed=5)
    data["schedule"] = {"t_end": 1.0}
    data["analysis"] = {"window": {"lo": [0.0], "hi": [8.0]}}
    out = tmp_path / "o"
    path = write_config(tmp_path / "c.json", data)
    assert main(["simulate", "--config", path, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    for i in range(3):
        with open(out / f"replicas/r{i:04d}/events.csv", newline="") as fh:
            kinds = Counter(row["kind"] for row in csv.DictReader(fh))
        assert set(kinds) == {"birth", "death"}
        assert manifest["births"][i] == kinds["birth"]
        assert manifest["deaths"][i] == kinds["death"]
        assert manifest["births"][i] + manifest["deaths"][i] == manifest["n_events"][i]


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


def test_certify_and_verify_leave_numpy_ma_unloaded(tmp_path):
    # the first np.unique call imports numpy.ma, which neither command needs
    config, out = str(CONFIGS / "long_dispersal_certificate.json"), str(tmp_path)
    code = f"""
import sys
from sbdsim.cli import main
for command in ("certify", "verify"):
    if main([command, "--config", {config!r}, "--out", {out!r}]) != 0:
        sys.exit(command + " failed")
sys.exit("numpy.ma loaded" if "numpy.ma" in sys.modules else 0)
"""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parent.parent)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("command", ["certify", "verify"])
def test_stale_epsilons_in_config_is_usage_error(tmp_path, capsys, command):
    cfg = bp_config()
    cfg["certificate"].update(epsilons=[0.1, 0.5], radii=[0.25, 0.5])
    cfg_path = write_config(tmp_path / "cfg.json", cfg)
    assert main([command, "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: config error at certificate.epsilons: ")
    assert "derived from the cell sum" in err


@pytest.mark.parametrize(
    "grid",
    [{"radii": [math.nan, 0.5]}, {"radii": [math.inf]}, {"radii": [0.5], "h_factors": [math.nan]}],
)
@pytest.mark.parametrize("command", ["certify", "verify"])
def test_non_finite_search_grid_is_usage_error(tmp_path, capsys, command, grid):
    # a NaN radius used to stop certify with a traceback (exit 1), and an
    # infinite radius or a NaN factor to read as "no competition" (exit 3)
    cfg = bp_config()
    cfg["certificate"].update(grid)
    cfg_path = write_config(tmp_path / "cfg.json", cfg)
    out = tmp_path / "o"
    assert main([command, "--config", cfg_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: config error at certificate: ")
    assert "finite positive" in err
    assert not out.exists()


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


def d2_kernels(config):
    for name in ("a_plus", "a_minus"):
        config["model"][name]["dim"] = 2
    config["torus"]["d"] = 2


def doubled_a_plus(config):
    config["model"]["a_plus"]["params"]["weight"] = 2.0


def lower_a_minus(config):
    config["model"]["a_minus"]["params"]["height"] = 0.5


def no_a_plus(config):
    config["model"] = {"variant": "migration", "b": {"constant": 1.0}, "m": 1.0}


@pytest.mark.parametrize(
    "change, message",
    [
        (d2_kernels, "field dim is 1, the config's kernels give 2"),
        (doubled_a_plus, "field sup_a_plus is"),
        (lower_a_minus, "field a_r_minus is"),
        (no_a_plus, "no a_plus and a_minus"),
    ],
    ids=["d2", "a_plus_weight", "a_minus_height", "no_kernels"],
)
def test_verify_refuses_a_certificate_made_for_other_kernels(
    tmp_path, capsys, change, message
):
    # a certificate is checked against the kernels of the config it is
    # verified with: another dimension or kernel figure is a usage error,
    # named by its field, and the config it was made with reads it
    config = bp_config()
    cfg_path = write_config(tmp_path / "cfg.json", config)
    out = tmp_path / "cert"
    assert main(["certify", "--config", cfg_path, "--out", str(out)]) == 0
    cert = str(out / "certificate.json")
    change(config)
    other = write_config(tmp_path / "other.json", config)
    capsys.readouterr()
    argv = ["verify", "--config", other, "--certificate", cert]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: config error at --certificate: ")
    assert message in err and "Traceback" not in err


def test_a_certificate_matches_the_kernels_it_was_made_for():
    # certify reads a- at 2 r on one array of radii; the scalar read of the
    # check agrees within SELF_CHECK_TOL for every shipped config it certifies
    for path in sorted(CONFIGS.glob("*.json")):
        cfg = load_config(path)
        a_plus, a_minus = cfg.model.a_plus, cfg.model.a_minus
        if a_plus is None or a_minus is None:
            continue
        cert = cli._certify_from_config(cfg)
        assert cert.kernel_mismatch(a_plus, a_minus) is None, path.name


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


def test_bounds_has_one_flag_per_input(capsys):
    # each NormBoundInput field is one flag, its name with dashes; the two
    # without a default are required and the rest default to 0.0
    inputs = dataclasses.fields(NormBoundInput)
    values = {f.name: float(i + 1) for i, f in enumerate(inputs)}
    argv = ["bounds", "--variant", "bolker_pacala"]
    for name, value in values.items():
        argv += ["--" + name.replace("_", "-"), str(value)]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["inputs"] == values
    base = ["bounds", "--variant", "migration", "--theta", "0.5", "--theta-prime", "2"]
    assert main(base) == 0
    defaults = json.loads(capsys.readouterr().out)["inputs"]
    assert defaults == {f.name: 0.0 for f in inputs} | {"theta": 0.5, "theta_prime": 2.0}
    for required in (base[3:5], base[5:7]):
        with pytest.raises(SystemExit) as exc:
            main([a for a in base if a not in required])
        assert exc.value.code == 2


# -- the command-line surface ------------------------------------------------------


def test_each_subcommand_takes_exactly_its_flags():
    # a flag that nothing reads should not come back unnoticed
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {
        name: sorted(
            opt for a in p._actions for opt in a.option_strings if opt not in ("-h", "--help")
        )
        for name, p in sub.choices.items()
    }
    assert flags == {
        "simulate": ["--config", "--out", "--replicas", "--seed", "--workers"],
        "certify": ["--config", "--out", "--seed"],
        "verify": ["--certificate", "--config", "--out", "--seed"],
        "bounds": sorted(
            ["--variant"]
            + ["--" + f.name.replace("_", "-") for f in dataclasses.fields(NormBoundInput)]
        ),
        "analyze": ["--out", "--run"],
    }
    assert sum(map(len, flags.values())) == 22


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--replicas", "2"],
        ["certify", "--audit"],
        ["verify", "--replicas", "2"],
        ["verify", "--audit"],
        ["simulate", "--audit"],
    ],
)
def test_retired_flags_are_usage_errors(tmp_path, capsys, argv):
    # audits are set by the config's guard.audit_every alone; certify and
    # verify run no replicas
    cfg_path = write_config(tmp_path / "cfg.json", bp_config())
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--config", cfg_path, "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: " + argv[1] in capsys.readouterr().err
    assert not out.exists()


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
    data["model"]["m"] = 4.0
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


@pytest.mark.parametrize(
    "name", ["competition_1d", "free_migration", "long_dispersal_certificate"]
)
def test_simulate_reports_what_analyze_reads(tmp_path, name):
    out = tmp_path / "run"
    argv = ["simulate", "--config", str(CONFIGS / f"{name}.json"), "--out", str(out)]
    assert main(argv + ["--seed", "1", "--replicas", "3"]) == 0
    assert main(["analyze", "--run", str(out), "--out", str(tmp_path / "an")]) == 0
    report = json.loads((out / "report.json").read_text())
    analysis = json.loads((tmp_path / "an" / "analysis.json").read_text())
    assert report["reports"] and analysis["reports"] == report["reports"]


def guard_tripped_config():
    """Immigration at 50 per unit length from an empty box of length 20, so
    each replica takes its empty snapshot at 0 and trips its guard of 5
    points long before the one at 1."""
    return {
        "model": {"variant": "migration", "m": 0.0, "b": {"constant": 50.0}},
        "torus": {"L": 20.0, "d": 1},
        "init": {"poisson": 0.0},
        "schedule": {"t_end": 1.0, "burn_in": 0.0, "snapshot_times": [0.0, 1.0]},
        "replicas": 3,
        "seed": 1,
        "guard": {"max_population": 5},
    }


def test_a_start_above_the_guard_walks_no_pair(tmp_path, monkeypatch):
    # init.poisson 5 on L = 20 draws about 100 points against a guard of
    # 10: each replica exits at once with no events and its start as its
    # peak, refused before the rate caches are built, so the competition
    # loads never walk a pair (and the Poisson draw stops at its count)
    data = guard_tripped_config()
    data["model"]["a_minus"] = {
        "family": "triangular", "params": {"height": 1.0, "radius": 1.0}, "dim": 1
    }
    data["init"] = {"poisson": 5.0}
    data["guard"]["max_population"] = 10
    walks = []
    real = geometry.periodic_pairs
    monkeypatch.setattr(geometry, "periodic_pairs", lambda *a: walks.append(a) or real(*a))
    out = tmp_path / "run"
    cfg_path = write_config(tmp_path / "cfg.json", data)
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 4
    assert walks == []
    manifest = json.loads((out / "manifest.json").read_text())
    cfg = load_config(cfg_path)
    starts = [len(initial_configuration(cfg, replica_rng(cfg.seed, i))) for i in range(3)]
    assert min(starts) > 10
    assert manifest["guard_tripped"] == [True] * 3 and manifest["n_events"] == [0] * 3
    assert manifest["peak_population"] == starts


@pytest.mark.parametrize(
    "poisson, side, max_population",
    [(5.0, 20.0, 50), (5e7, 20000.0, None)],
    ids=["just_above_the_guard", "oversized"],
)
def test_a_poisson_start_above_the_guard_draws_no_position(
    tmp_path, poisson, side, max_population
):
    # competition_1d with about 100 points against a guard of 50, and with
    # about 1e12, whose positions would take 7.28 TiB, against the default
    # guard of 1e6: each start is refused on its count alone, and both exit
    # 4 with the guard tripped, no events and the count as the peak
    data = json.loads((CONFIGS / "competition_1d.json").read_text())
    data["init"]["poisson"], data["torus"]["L"], data["replicas"] = poisson, side, 2
    del data["guard"]["max_population"]
    if max_population is not None:
        data["guard"]["max_population"] = max_population
    cfg_path = write_config(tmp_path / "cfg.json", data)
    cfg = load_config(cfg_path)
    counts = [replica_rng(cfg.seed, i).poisson(poisson * side) for i in range(2)]
    assert min(counts) > cfg.max_population
    starts = [initial_configuration(cfg, replica_rng(cfg.seed, i)) for i in range(2)]
    assert all(isinstance(start, RefusedStart) for start in starts)
    assert [len(start) for start in starts] == counts
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 4
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["guard_tripped"] == [True] * 2 and manifest["n_events"] == [0] * 2
    assert manifest["peak_population"] == counts


def test_a_poisson_start_at_the_guard_draws_as_sample_poisson():
    # a start of exactly max_population points is admitted, and its points
    # are sample_poisson's, drawn from the same generator
    cfg = load_config(CONFIGS / "competition_1d.json")
    count = replica_rng(cfg.seed, 0).poisson(cfg.init_poisson * cfg.torus.volume)
    cfg = dataclasses.replace(cfg, max_population=count)
    start = initial_configuration(cfg, replica_rng(cfg.seed, 0))
    drawn = sample_poisson(cfg.torus, cfg.init_poisson, replica_rng(cfg.seed, 0))
    assert len(start) == count and start.by_id()[1].tolist() == drawn.by_id()[1].tolist()


def test_guard_tripped_run_reports_the_snapshots_it_took(tmp_path, capsys):
    out = tmp_path / "run"
    cfg_path = write_config(tmp_path / "cfg.json", guard_tripped_config())
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 4
    assert main(["analyze", "--run", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["guard_tripped"] == [True] * 3 and manifest["n_snapshots"] == [1] * 3
    report = json.loads((out / "report.json").read_text())
    analysis = json.loads((out / "analysis.json").read_text())
    assert [(r["time"], r["replicas"]) for r in report["reports"]] == [(0.0, 3)]
    assert analysis["reports"] == report["reports"]
    # a manifest without n_snapshots reads as before the list was kept: a
    # replica whose guard tripped took no snapshot that wrote no row
    del manifest["n_snapshots"]
    (out / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["analyze", "--run", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["reports"] == []


def test_n_snapshots_counts_the_snapshots_each_replica_wrote(tmp_path):
    # immigration at 1 per unit length from density 1 on a box of length 20
    # trips a guard of 55 points in some replicas between the snapshots at 1
    # and 2: those took the first two of the sorted times, none of them
    # empty, and the others took all three
    data = guard_tripped_config()
    data["model"]["b"]["constant"] = 1.0
    data["init"]["poisson"] = 1.0
    data["schedule"].update(t_end=2.0, snapshot_times=[2.0, 0.1, 1.0])
    data["guard"]["max_population"] = 55
    data["replicas"] = 6
    out = tmp_path / "run"
    cfg_path = write_config(tmp_path / "cfg.json", data)
    main(["simulate", "--config", cfg_path, "--out", str(out)])
    manifest = json.loads((out / "manifest.json").read_text())
    parsed = load_config(cfg_path)
    for i, rel in enumerate(manifest["replica_traces"]):
        rng = replica_rng(parsed.seed, i)
        trace = run(
            parsed.model, initial_configuration(parsed, rng), parsed.t_end, rng,
            snapshot_times=parsed.snapshot_times, max_population=parsed.max_population,
        )  # fmt: skip
        assert manifest["n_snapshots"][i] == trace.n_snapshots
        times = list(cli._read_snapshots_csv(out / rel / "snapshots.csv", 1))
        assert times == [0.1, 1.0, 2.0][: trace.n_snapshots]
        assert trace.n_snapshots == (2 if manifest["guard_tripped"][i] else 3)
    assert set(manifest["guard_tripped"]) == {True, False}

"""Command-line entry point: simulate, certify, verify, bounds, analyze.

Exit codes: 0 success, 2 usage or configuration error, 3 an acceptance check
failed (certificate violation, oracle mismatch), 4 the explosion guard
tripped.  All outputs land under the configured directory; the manifest
echoes the resolved config so a run can be reproduced from it alone.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .certificate import (
    Certificate,
    CertificationError,
    certify,
    verify_certificate,
)
from .config import (
    FIELDS,
    ConfigError,
    RunConfig,
    initial_configuration,
    load_config,
    parse_config,
    replica_rng,
    resolved_config_dict,
)
from .dynamics import DynamicsError, EventLog, run
from .oracles import (
    NormBoundInput,
    OracleError,
    norm_bound_bp,
    norm_bound_migration,
    surgailis_density,
)
from .statistics import StatisticsError, build_moment_report

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CHECK_FAILED = 3
EXIT_EXPLOSION = 4

# Events converted to Python objects at a time while writing events.csv.
CSV_CHUNK = 4096

# manifest.json's per-replica lists, each read off the trace's attribute of
# the same name
REPLICA_LISTS = (
    "guard_tripped",
    "absorbed",
    "n_events",
    "births",
    "deaths",
    "n_snapshots",
    "clamps",
    "largest_clamp",
    "peak_population",
)


def _write_csv(path: Path, header: list[str] | None, blocks) -> None:
    """The header, if any, then the rows of each block, CSV_CHUNK at a time so
    that few Python objects are made at once.  A block is equal-length array
    columns and a function from one row's values to its cells."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        for columns, cells in blocks:
            for lo in range(0, len(columns[0]), CSV_CHUNK):
                chunk = [col[lo : lo + CSV_CHUNK].tolist() for col in columns]
                writer.writerows(cells(*row) for row in zip(*chunk))


def _write_events_csv(path: Path, events: EventLog, dim: int) -> None:
    """One row per event from the log's columns."""
    header = ["t", "kind"] + [f"x{i + 1}" for i in range(dim)] + ["parent_id"]
    columns = (events.times, events.births, events.positions, events.parents)

    def cells(t, birth, pos, parent):
        kind = "birth" if birth else "death"
        return [repr(t), kind, *map(repr, pos), "" if parent < 0 else str(parent)]

    _write_csv(path, header, [(columns, cells)])


def _write_snapshots_csv(path: Path, snapshots, dim: int) -> None:
    """One row per point of each snapshot from its id and position columns,
    so an empty snapshot writes no row."""
    header = ["t", "id"] + [f"x{i + 1}" for i in range(dim)]

    def cells_at(t: str):
        return lambda pid, pos: [t, pid, *map(repr, pos)]

    blocks = (((s.ids, s.positions), cells_at(repr(s.time))) for s in snapshots)
    _write_csv(path, header, blocks)


def _write_points_csv(path: Path, points: np.ndarray) -> None:
    _write_csv(path, None, [((np.atleast_2d(points),), lambda pos: [*map(repr, pos)])])


def _run_one_replica(cfg: RunConfig, index: int):
    """Worker-safe single replica: run, persist, return its REPLICA_LISTS entries."""
    rng = replica_rng(cfg.seed, index)
    conf = initial_configuration(cfg, rng)
    trace = run(
        cfg.model,
        conf,
        cfg.t_end,
        rng,
        snapshot_times=cfg.snapshot_times,
        max_population=cfg.max_population,
        audit_every=cfg.audit_every,
    )
    rep_dir = cfg.out_dir / "replicas" / f"r{index:04d}"
    rep_dir.mkdir(parents=True, exist_ok=True)
    _write_events_csv(rep_dir / "events.csv", trace.events, cfg.torus.dim)
    _write_snapshots_csv(rep_dir / "snapshots.csv", trace.snapshots, cfg.torus.dim)
    return {name: getattr(trace, name) for name in REPLICA_LISTS}


def _read_reports(run_dir: Path, cfg: RunConfig, manifest: dict) -> list:
    """The moment reports of a run from its replicas' snapshots.csv, at each
    time from burn-in on that two replicas or more took.  A replica took the
    first ``n_snapshots`` of the sorted times; an older manifest without
    that list counts them all if the guard did not trip, else those with rows."""
    dim, schedule = cfg.torus.dim, sorted(cfg.snapshot_times)
    taken = manifest.get("n_snapshots") or [
        0 if tripped else len(schedule) for tripped in manifest["guard_tripped"]
    ]
    per_replica = []
    for rel, n_snapshots in zip(manifest["replica_traces"], taken):
        path = run_dir / rel / "snapshots.csv"
        if path.exists():  # an empty snapshot wrote no row
            empty = dict.fromkeys(schedule[:n_snapshots], np.zeros((0, dim)))
            per_replica.append({**empty, **_read_snapshots_csv(path, dim)})
    reports = []
    for t in cfg.snapshot_times:
        snaps = [s[t] for s in per_replica if t in s]
        if t < cfg.burn_in or len(snaps) < 2:
            continue
        reports.append(
            build_moment_report(
                snaps,
                cfg.torus,
                cfg.window,
                time=t,
                n_max=cfg.n_max,
                g_bins=cfg.g_bins,
                g_r_max=cfg.g_r_max,
            )
        )
    return reports


def _surgailis_check(cfg: RunConfig, reports) -> dict | None:
    """Oracle comparison available when deaths are interaction-free; none
    when there is no report to compare."""
    if not reports or cfg.model.variant != "migration" or cfg.model.a_minus is not None:
        return None
    if cfg.init_poisson is not None:
        rho0 = cfg.init_poisson
    else:
        rho0 = cfg.init_points.shape[0] / cfg.torus.volume
    b_mean = cfg.model.b.integral(cfg.torus.side, cfg.torus.dim) / cfg.torus.volume
    rows = []
    passed = True
    for rep in reports:
        expected = surgailis_density(rho0, b_mean, cfg.model.m, rep.time)
        mean, se = rep.density
        ok = abs(mean - expected) <= 3.0 * se
        passed = passed and ok
        rows.append(
            {
                "time": rep.time,
                "expected": expected,
                "observed": mean,
                "se": se,
                "ok": ok,
            }
        )
    return {"passed": passed, "rows": rows}


def cmd_simulate(args) -> int:
    if args.workers < 1:
        print(
            f"usage error: --workers must be at least 1, got {args.workers}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    cfg = _load_with_overrides(args)
    try:  # certify and verify never use the torus, so only simulate checks it
        cfg.model.check_torus(cfg.torus)
    except DynamicsError as exc:
        raise ConfigError("torus.L", str(exc)) from None
    cfg.out_dir.mkdir(parents=True, exist_ok=True)

    # a pool starts all its workers at once, so it gets no more than replicas
    workers = min(args.workers, cfg.replicas)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_run_one_replica, cfg, i) for i in range(cfg.replicas)
            ]
            records = [f.result() for f in futures]
    else:
        records = [_run_one_replica(cfg, i) for i in range(cfg.replicas)]
    lists = {name: [rec[name] for rec in records] for name in REPLICA_LISTS}
    # a- beyond its cutoff is at most tail_sup, so no death rate of a run
    # omits more than tail_sup times its largest population
    a_minus = cfg.model.a_minus
    tail_sup = 0.0 if a_minus is None else a_minus.tail_sup()
    manifest = {
        "tool": {"name": "sbdsim", "version": __version__},
        "config": resolved_config_dict(cfg),
        "replica_traces": [
            str(Path("replicas") / f"r{i:04d}") for i in range(cfg.replicas)
        ],
        **lists,
        "truncation_budget": [tail_sup * peak for peak in lists["peak_population"]],
    }
    (cfg.out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2))

    reports = _read_reports(cfg.out_dir, cfg, manifest)
    checks = {}
    surgailis = _surgailis_check(cfg, reports)
    if surgailis is not None:
        checks["surgailis_density"] = surgailis

    report = {
        "manifest": "manifest.json",
        "replica_traces": manifest["replica_traces"],
        "reports": [r.to_dict() for r in reports],
        "checks": checks,
        "guard_tripped": any(lists["guard_tripped"]),
    }
    (cfg.out_dir / "report.json").write_text(json.dumps(report, indent=2))
    print(json.dumps(report["checks"] or {"reports": len(reports)}, indent=2))

    if report["guard_tripped"]:
        print("explosion guard tripped; report is partial", file=sys.stderr)
        return EXIT_EXPLOSION
    if any(not c["passed"] for c in checks.values()):
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _certify_from_config(cfg: RunConfig) -> Certificate:
    if cfg.model.a_minus is None:
        raise CertificationError(
            "no competition within reach: model.a_minus is absent"
        )
    if cfg.model.a_plus is None:
        raise CertificationError("certification needs a dispersal kernel a_plus")
    return certify(
        cfg.model.a_plus,
        cfg.model.a_minus,
        omega=cfg.omega,
        grid=cfg.cert_grid,
        tight_packing=cfg.tight_packing,
    )


def _verify_from_config(cfg: RunConfig, cert: Certificate, **extra):
    """Attack ``cert`` as the config says and write violations.json.

    ``extra`` fields are added to the written payload; returns the report
    and the payload.
    """
    report = verify_certificate(
        cert,
        cfg.model.a_plus,
        cfg.model.a_minus,
        trials=cfg.cert_trials,
        size_max=cfg.cert_size_max,
        rng=replica_rng(cfg.seed, 0),
    )
    payload = {**report.to_dict(), **extra}
    (cfg.out_dir / "violations.json").write_text(json.dumps(payload, indent=2))
    return report, payload


def cmd_certify(args) -> int:
    cfg = _load_with_overrides(args)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    try:
        cert = _certify_from_config(cfg)
    except CertificationError as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    cert.self_check()
    (cfg.out_dir / "certificate.json").write_text(json.dumps(cert.to_dict(), indent=2))

    report, _ = _verify_from_config(cfg, cert)
    # theta_up and theta_ceiling next to theta give the bracket
    # [theta, min(theta_up, theta_ceiling)]
    bracket = {"theta_up": report.theta_up, "theta_ceiling": report.theta_ceiling}
    print(json.dumps({**cert.to_dict(), **bracket}, indent=2))
    if not report.passed:
        print(
            f"{report.n_violations} violations found (min U = {report.min_u!r})",
            file=sys.stderr,
        )
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = _load_with_overrides(args)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    if args.certificate:
        try:  # a missing file, bad JSON or wrong fields is a usage error
            cert = Certificate.from_dict(json.loads(Path(args.certificate).read_text()))
        except (OSError, ValueError, TypeError) as exc:
            raise ConfigError("--certificate", f"no certificate read: {exc}") from None
        mismatch = cert.kernel_mismatch(cfg.model.a_plus, cfg.model.a_minus)
        if mismatch is not None:
            raise ConfigError("--certificate", f"made for other kernels: {mismatch}")
        try:
            cert.self_check()
        except CertificationError as exc:
            print(f"certificate check failed: {exc}", file=sys.stderr)
            return EXIT_CHECK_FAILED
    else:
        try:
            cert = _certify_from_config(cfg)
        except CertificationError as exc:
            print(f"certification failed: {exc}", file=sys.stderr)
            return EXIT_CHECK_FAILED
    argmin_path = cfg.out_dir / "argmin.csv"
    report, payload = _verify_from_config(
        cfg, cert, argmin_config_csv_path=str(argmin_path)
    )
    _write_points_csv(argmin_path, report.argmin_points)
    print(json.dumps(payload, indent=2))
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_bounds(args) -> int:
    try:
        inp = NormBoundInput(
            **{f.name: getattr(args, f.name) for f in fields(NormBoundInput)}
        )
        if args.variant == "bolker_pacala":
            bound = norm_bound_bp(inp)
        else:
            bound = norm_bound_migration(inp)
    except OracleError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    payload = {"variant": args.variant, "inputs": asdict(inp), "bound": bound}
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def _read_snapshots_csv(path: Path, dim: int) -> dict[float, np.ndarray]:
    """Positions by snapshot time, read in one numpy pass; a file of the
    header alone has no snapshot rows."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        table = np.loadtxt(
            path, delimiter=",", skiprows=1, usecols=[0, *range(2, 2 + dim)], ndmin=2
        )
    times = table[:, 0]
    return {t: table[times == t, 1:] for t in dict.fromkeys(times.tolist())}


def cmd_analyze(args) -> int:
    run_dir = Path(args.run)
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.exists():
        print(f"usage error: no manifest at {manifest_path}", file=sys.stderr)
        return EXIT_USAGE
    manifest = json.loads(manifest_path.read_text())
    cfg = parse_config(manifest["config"], base_dir=run_dir)
    try:
        reports = _read_reports(run_dir, cfg, manifest)
    except StatisticsError as exc:
        print(f"analysis failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    out_dir = Path(args.out) if args.out else run_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {"run": str(run_dir), "reports": [r.to_dict() for r in reports]}
    (out_dir / "analysis.json").write_text(json.dumps(payload, indent=2))
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def _load_with_overrides(args) -> RunConfig:
    """The config with the command line's overrides: ``--seed`` and
    (``simulate`` only) ``--replicas`` meet the checks of their config
    fields; ``--out`` is taken as given, relative to the working directory."""
    cfg = load_config(args.config)
    for field in ("seed", "replicas"):  # fields that no default depends on
        if getattr(args, field, None) is not None:
            setattr(cfg, field, FIELDS[field].read(getattr(args, field), field, {}))
    if args.out:
        cfg.out_dir = Path(args.out)
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sbdsim",
        description=(
            "Event-driven simulation of spatial birth-death population models, "
            "self-regulation certificates, and sub-Poisson moment diagnostics."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="output directory (overrides config)")

    p_sim = sub.add_parser("simulate", help="run replicas and aggregate statistics")
    add_common(p_sim)
    p_sim.add_argument("--replicas", type=int, help="override the replica count")
    p_sim.add_argument(
        "--workers", type=int, default=1, help="parallel replica processes"
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_cert = sub.add_parser("certify", help="search for a self-regulation level")
    add_common(p_cert)
    p_cert.set_defaults(func=cmd_certify)

    p_ver = sub.add_parser("verify", help="randomized search for U < 0")
    add_common(p_ver)
    p_ver.add_argument("--certificate", help="existing certificate JSON to verify")
    p_ver.set_defaults(func=cmd_verify)

    p_bounds = sub.add_parser("bounds", help="print a generator norm bound")
    p_bounds.add_argument(
        "--variant",
        choices=("bolker_pacala", "migration"),
        required=True,
    )
    for f in fields(NormBoundInput):  # --theta-prime fills theta_prime
        p_bounds.add_argument(
            "--" + f.name.replace("_", "-"),
            type=float,
            required=f.default is MISSING,
            default=f.default,
        )
    p_bounds.set_defaults(func=cmd_bounds)

    p_an = sub.add_parser("analyze", help="recompute statistics from stored snapshots")
    p_an.add_argument("--run", required=True, help="directory with manifest.json")
    p_an.add_argument("--out", help="directory for analysis.json (default: the run)")
    p_an.set_defaults(func=cmd_analyze)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OracleError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

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
from dataclasses import asdict
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


def _write_events_csv(path: Path, events: EventLog, dim: int) -> None:
    """One row per event from the log's columns, CSV_CHUNK rows at a time,
    so the Python objects made for writing stay few however long the log."""
    times, births = events.times, events.births
    positions, parents = events.positions, events.parents
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "kind"] + [f"x{i + 1}" for i in range(dim)] + ["parent_id"])
        for lo in range(0, len(times), CSV_CHUNK):
            hi = lo + CSV_CHUNK
            rows = zip(
                times[lo:hi].tolist(),
                births[lo:hi].tolist(),
                positions[lo:hi].tolist(),
                parents[lo:hi].tolist(),
            )
            for t, birth, pos, parent in rows:
                writer.writerow(
                    [repr(t), "birth" if birth else "death"]
                    + [repr(c) for c in pos]
                    + ["" if parent < 0 else str(parent)]
                )


def _write_snapshots_csv(path: Path, snapshots, dim: int) -> None:
    """One row per point of each snapshot from its id and position columns,
    CSV_CHUNK rows at a time, as ``_write_events_csv`` does."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "id"] + [f"x{i + 1}" for i in range(dim)])
        for snap in snapshots:
            t = repr(snap.time)
            for lo in range(0, snap.size, CSV_CHUNK):
                hi = lo + CSV_CHUNK
                rows = zip(snap.ids[lo:hi].tolist(), snap.positions[lo:hi].tolist())
                for pid, pos in rows:
                    writer.writerow([t, pid] + [repr(c) for c in pos])


def _write_points_csv(path: Path, points: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in np.atleast_2d(points):
            writer.writerow([repr(float(c)) for c in np.atleast_1d(row)])


def _run_one_replica(cfg: RunConfig, index: int):
    """Worker-safe single replica: run, persist, return snapshots."""
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
    snapshots = {snap.time: snap.positions for snap in trace.snapshots}
    return (
        index,
        snapshots,
        trace.guard_tripped,
        trace.absorbed,
        trace.n_events,
        trace.clamps,
        trace.largest_clamp,
    )


def _aggregate_reports(cfg: RunConfig, per_replica_snaps: list[dict]):
    reports = []
    for t in cfg.snapshot_times:
        if t < cfg.burn_in:
            continue
        snaps = [s[t] for s in per_replica_snaps if t in s]
        if len(snaps) < 2:
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
    """Oracle comparison available when deaths are interaction-free."""
    if cfg.model.variant != "migration" or cfg.model.a_minus is not None:
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

    results = []
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            futures = [
                pool.submit(_run_one_replica, cfg, i) for i in range(cfg.replicas)
            ]
            results = [f.result() for f in futures]
    else:
        for i in range(cfg.replicas):
            results.append(_run_one_replica(cfg, i))
    results.sort(key=lambda r: r[0])

    per_replica_snaps = [r[1] for r in results]
    guard_flags = [r[2] for r in results]
    manifest = {
        "tool": {"name": "sbdsim", "version": __version__},
        "config": resolved_config_dict(cfg),
        "replica_traces": [
            str(Path("replicas") / f"r{i:04d}") for i in range(cfg.replicas)
        ],
        "guard_tripped": guard_flags,
        "absorbed": [r[3] for r in results],
        "n_events": [r[4] for r in results],
        "clamps": [r[5] for r in results],
        "largest_clamp": [r[6] for r in results],
    }
    (cfg.out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2))

    reports = _aggregate_reports(cfg, per_replica_snaps)
    checks = {}
    surgailis = _surgailis_check(cfg, reports)
    if surgailis is not None:
        checks["surgailis_density"] = surgailis

    report = {
        "manifest": "manifest.json",
        "replica_traces": manifest["replica_traces"],
        "reports": [r.to_dict() for r in reports],
        "checks": checks,
        "guard_tripped": any(guard_flags),
    }
    (cfg.out_dir / "report.json").write_text(json.dumps(report, indent=2))
    print(json.dumps(report["checks"] or {"reports": len(reports)}, indent=2))

    if any(guard_flags):
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
            theta=args.theta,
            theta_prime=args.theta_prime,
            mass_a_plus=args.mass_a_plus,
            mass_a_minus=args.mass_a_minus,
            sup_a_plus=args.sup_a_plus,
            sup_a_minus=args.sup_a_minus,
            sup_b=args.sup_b,
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
    per_replica = []
    for rel, tripped in zip(manifest["replica_traces"], manifest["guard_tripped"]):
        snap_path = run_dir / rel / "snapshots.csv"
        if not snap_path.exists():
            continue
        snaps = _read_snapshots_csv(snap_path, cfg.torus.dim)
        if not tripped:  # every snapshot was taken, but an empty one wrote no rows
            for t in cfg.snapshot_times:
                snaps.setdefault(t, np.zeros((0, cfg.torus.dim)))
        per_replica.append(snaps)
    try:
        reports = _aggregate_reports(cfg, per_replica)
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
    ``--replicas`` meet the checks of their config fields; ``--out`` is
    taken as given, relative to the working directory."""
    cfg = load_config(args.config)
    for field in ("seed", "replicas"):  # fields that no default depends on
        if getattr(args, field, None) is not None:
            setattr(cfg, field, FIELDS[field].read(getattr(args, field), field, {}))
    if getattr(args, "out", None):
        cfg.out_dir = Path(args.out)
    if getattr(args, "audit", False) and cfg.audit_every == 0:
        cfg.audit_every = 1000
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

    def add_common(p, config_required=True):
        p.add_argument("--config", required=config_required, help="JSON config path")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--replicas", type=int, help="override the replica count")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument(
            "--audit",
            action="store_true",
            help="recompute rate caches from scratch every 1000 events",
        )

    p_sim = sub.add_parser("simulate", help="run replicas and aggregate statistics")
    add_common(p_sim)
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
    p_bounds.add_argument("--theta", type=float, required=True)
    p_bounds.add_argument("--theta-prime", type=float, required=True)
    p_bounds.add_argument("--mass-a-plus", type=float, default=0.0)
    p_bounds.add_argument("--mass-a-minus", type=float, default=0.0)
    p_bounds.add_argument("--sup-a-plus", type=float, default=0.0)
    p_bounds.add_argument("--sup-a-minus", type=float, default=0.0)
    p_bounds.add_argument("--sup-b", type=float, default=0.0)
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

"""The four benchmark workloads and the checks on their outputs.

Every workload is closed loop with one caller: one unit of work at a time,
replicas serial.  Inputs are generated from the workload seed; the package
receives only those inputs.  A workload object offers

* ``setup_samples()``: extra set-up timings taken before the measured units;
* ``unit()``: one measured unit of work, returning a ``Unit``;
* ``check(units, outcome)``: untimed output checks, counting operations
  attempted and failed into ``outcome``.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import shutil
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter, process_time

import numpy as np

from sbdsim import certificate, cli, config, dynamics

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

# Model time simulated per requested second of event loop.  Calibrated once
# on the seed commit (about 2.0k events/s at n~1e5 in d=1, 1.3k events/s at
# density 5 in d=2) and then fixed, so every commit does the same work for
# the same --seconds.
T_END_PER_SECOND = {"run_bp_1d_100k": 0.0035, "run_bp_2d_dense": 0.05}
# (box side, dimension) at scale 1.  Density 5 gives n~1e5 and n~4.5k.
BOX = {"run_bp_1d_100k": (20000.0, 1), "run_bp_2d_dense": (30.0, 2)}
# Array sweeps in the gauge: the d=1 loop sweeps all n~1e5 rates per death.
GAUGE_ARRAY_PASSES = {"run_bp_1d_100k": 4, "run_bp_2d_dense": 0}
# Set-ups timed before the measured run, on top of the run and its replay:
# one d=1 build takes ~8 s, one d=2 build ~2 s.
SETUP_REPEATS = {"run_bp_1d_100k": 0, "run_bp_2d_dense": 2}
# The kernels' cutoff (~3.4) must stay below half the box side.
MIN_SIDE = 8.0
# Throughput is measured on stretches of work this long: events of the
# simulator loop, trials of the verifier.
CHUNK_EVENTS = 100
CHUNK_TRIALS = 2000
# The host's speed drifts by tens of percent over minutes, in CPU time as
# well as in wall time, so every timing is taken together with the CPU time
# of a fixed piece of reference work, the gauge, run next to it.  A timing is
# reported scaled to a host on which the gauge takes GAUGE_REF_S.
GAUGE_REF_S = 1e-3


class Gauge:
    """Times a fixed piece of reference work that does not touch sbdsim.

    The work is interpreter steps mixed with small numpy calls, as in the
    simulator's event loop.  With ``array_passes`` it also sweeps an array
    of 10^5 floats that many times, as the death draw does at n~1e5: the
    host's slow periods slow such sweeps less than interpreter work, so a
    gauge that matches the workload's mix cancels more of them.
    """

    _small = np.linspace(0.0, 1.0, 256)
    _large = np.random.default_rng(0).random(100_000)

    def __init__(self, array_passes: int = 0):
        self.array_passes = array_passes

    def __call__(self) -> float:
        """CPU seconds of one piece of reference work."""
        c0 = process_time()
        acc = 0.0
        for i in range(200):
            acc += float(np.exp(-self._small * (i % 7)).sum()) + (i * 0.5) ** 0.5
        for _ in range(self.array_passes):
            sums = np.cumsum(self._large)
            sums.searchsorted(sums[-1] * 0.5)
        return process_time() - c0


class TickingRng:
    """Stands in for a numpy Generator and timestamps the event loop.

    ``dynamics.run`` builds its rate caches before its first random draw and
    then draws one exponential waiting time per loop iteration, so, seen
    from outside, the first draw starts the loop and the waiting-time draws
    split it into single events.  The first draw is noted on both clocks.
    Every CHUNK_EVENTS draws the gauge runs; the ticks are CPU times with
    the gauge's time taken out.
    """

    def __init__(self, rng, gauge: Gauge):
        self._rng = rng
        self._gauge = gauge
        self.first_draw = None
        self.first_draw_cpu = None
        self.ticks = array("d")
        self.gauges = []  # CPU seconds, one per stretch boundary
        self.gauge_cpu_s = 0.0
        self.gauge_wall_s = 0.0

    def _note_first(self):
        if self.first_draw is None:
            self.first_draw_cpu = process_time()
            self.first_draw = perf_counter()

    def exponential(self, *args, **kwargs):
        self._note_first()
        if len(self.ticks) % CHUNK_EVENTS == 0:
            w0 = perf_counter()
            self.gauges.append(self._gauge())
            self.gauge_cpu_s += self.gauges[-1]
            self.gauge_wall_s += perf_counter() - w0
        self.ticks.append(process_time() - self.gauge_cpu_s)
        return self._rng.exponential(*args, **kwargs)

    def __getattr__(self, name):
        self._note_first()
        attr = getattr(self._rng, name)
        setattr(self, name, attr)  # later lookups skip __getattr__
        return attr


@dataclass
class RunRecord:
    """One simulator call: its start, first random draw, end and result.

    ``start``, ``first_draw`` and ``end`` are wall-clock times, which the
    tracer lines its spans up with.  The ``cpu_`` times and the ticks are the
    process's CPU time, which the end-to-end metrics use; ``cpu_end`` and the
    ticks leave out the gauge, whose wall time is ``gauge_wall_s``.
    """

    start: float
    first_draw: float
    end: float
    cpu_start: float
    cpu_first_draw: float
    cpu_end: float
    trace: object
    ticks: array
    gauges: list
    gauge_wall_s: float

    @property
    def build_s(self) -> float:
        return self.cpu_first_draw - self.cpu_start

    @property
    def loop_s(self) -> float:
        return self.cpu_end - self.cpu_first_draw

    @property
    def births(self) -> int:
        return sum(ev.kind == "birth" for ev in self.trace.events)

    def chunk_rates(self, events: int = CHUNK_EVENTS) -> list[tuple[float, float]]:
        """(events per CPU second, gauge) in stretches of ``events`` events.

        A stretch's gauge is the mean of the gauges at its two ends.  The
        last event is left out, so an audit after it is too.  Empty when the
        waiting-time draws do not match the events one to one.
        """
        n = self.trace.n_events
        if not n <= len(self.ticks) <= n + 1:
            return []
        t, g = self.ticks, self.gauges
        return [
            (events / (t[i + events] - t[i]), 0.5 * (g[k] + g[k + 1]))
            for k, i in enumerate(range(0, n - events, events))
        ]


class LoopClock:
    """Wraps a ``run`` function so each call is split into build and loop."""

    def __init__(self, gauge: Gauge):
        self.gauge = gauge
        self.records: list[RunRecord] = []

    def wrap(self, run):
        @functools.wraps(run)
        def timed(spec, cfg, t_end, rng, *args, **kwargs):
            ticking = TickingRng(rng, self.gauge)
            cpu_start = process_time()
            start = perf_counter()
            trace = run(spec, cfg, t_end, ticking, *args, **kwargs)
            end = perf_counter()
            cpu_end = process_time() - ticking.gauge_cpu_s
            if ticking.first_draw is None:  # no draw at all: no loop
                ticking.first_draw, ticking.first_draw_cpu = end, cpu_end
            self.records.append(
                RunRecord(
                    start, ticking.first_draw, end,
                    cpu_start, ticking.first_draw_cpu, cpu_end,
                    trace, ticking.ticks, ticking.gauges, ticking.gauge_wall_s,
                )  # fmt: skip
            )
            return trace

        return timed


@contextlib.contextmanager
def patched(owner, attr, value):
    original = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, original)


@dataclass
class Unit:
    """One measured unit of work."""

    wall_s: float
    ops: int  # jump-chain events or verifier trials
    ops_s: float  # event-loop or verify CPU time, without the gauge
    rates: list  # (ops per CPU second, gauge) of each stretch of CHUNK_* ops
    setup_s: tuple | None = None  # (CPU seconds, gauge)
    runs: list = field(default_factory=list)  # RunRecords, in call order
    result: object = None
    trace_bytes: int | None = None


@dataclass
class Outcome:
    setup_s: list = field(default_factory=list)  # (CPU seconds, gauge) pairs
    rates: list = field(default_factory=list)  # see Unit.rates
    units: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    theta_cert: float | None = None

    def record(self, problems: list[str]) -> None:
        """Count one operation, failed if it has any problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def gauged(work, gauge: Gauge) -> tuple[float, float]:
    """(CPU seconds of ``work()``, mean of the gauges before and after it)."""
    g0 = gauge()
    c0 = process_time()
    work()
    c1 = process_time()
    return c1 - c0, 0.5 * (g0 + gauge())


def _trace_problems(trace, expect=None) -> list[str]:
    problems = []
    if trace.guard_tripped:
        problems.append("population guard tripped")
    if trace.n_events == 0:
        problems.append("no events")
    if expect is not None:
        got = (trace.n_events, trace.final_population, trace.final_time)
        want = (expect.n_events, expect.final_population, expect.final_time)
        if got != want:
            problems.append(f"replay differs: {got} != {want}")
    return problems


class SimCompetition1d:
    """``sbdsim simulate`` on the shipped competition_1d config.

    Measures the fixed cost per event at n~100, trace CSV writing and the
    statistics; the death draw is negligible at this size.
    """

    name = "sim_competition_1d"
    config_path = CONFIGS / "competition_1d.json"
    setup_repeats = 15
    unit_seconds = 8.0  # one simulate call at the seed commit
    gauge = Gauge()

    def __init__(self, seed: int, seconds: float, scale: float, work_dir: Path):
        self.seed = seed
        self.replicas = max(2, round(12 * scale))
        self.out = work_dir

    def _config(self):
        cfg = config.load_config(self.config_path)
        cfg.seed = self.seed
        return cfg

    def _setup(self):
        cfg = self._config()
        for i in range(self.replicas):
            rng = config.replica_rng(self.seed, i)
            conf = config.initial_configuration(cfg, rng)
            dynamics.run(cfg.model, conf, 0.0, rng)

    def setup_samples(self) -> list[tuple[float, float]]:
        """Config parsing, initial configurations and zero-length runs."""
        return [gauged(self._setup, self.gauge) for _ in range(self.setup_repeats)]

    def unit(self) -> Unit:
        shutil.rmtree(self.out, ignore_errors=True)
        argv = [
            "simulate", "--config", str(self.config_path), "--seed", str(self.seed),
            "--replicas", str(self.replicas), "--workers", "1", "--out", str(self.out),
        ]  # fmt: skip
        clock = LoopClock(self.gauge)
        with patched(cli, "run", clock.wrap(cli.run)), contextlib.redirect_stdout(
            io.StringIO()
        ):
            t0 = perf_counter()
            code = cli.main(argv)
            wall = perf_counter() - t0
        manifest = json.loads((self.out / "manifest.json").read_text())
        rows = []
        for rel in manifest["replica_traces"]:
            with open(self.out / rel / "events.csv") as fh:
                rows.append(sum(1 for _ in fh) - 1)
        trace_bytes = sum(
            p.stat().st_size for p in (self.out / "replicas").rglob("*.csv")
        )
        return Unit(
            wall_s=wall,
            ops=sum(r.trace.n_events for r in clock.records),
            ops_s=sum(r.loop_s for r in clock.records),
            rates=[rate for r in clock.records for rate in r.chunk_rates()],
            runs=clock.records,
            result={"exit_code": code, "manifest": manifest, "csv_rows": rows},
            trace_bytes=trace_bytes,
        )

    def check(self, units: list[Unit], outcome: Outcome) -> None:
        """Replay every replica, auditing the caches after its last event.

        A replay repeats the simulated events exactly, so its event-loop
        stretches before the audit join the throughput sample.
        """
        cfg = self._config()
        clock = LoopClock(self.gauge)
        replays = []
        for i, expect in enumerate(units[0].runs):
            rng = config.replica_rng(self.seed, i)
            conf = config.initial_configuration(cfg, rng)
            try:
                replays.append(
                    clock.wrap(dynamics.run)(
                        cfg.model, conf, cfg.t_end, rng,
                        snapshot_times=cfg.snapshot_times,
                        max_population=cfg.max_population,
                        audit_every=max(1, expect.trace.n_events),
                    )  # fmt: skip
                )
            except dynamics.DynamicsError as exc:
                replays.append(f"replay raised {exc!r}")
        outcome.rates += [rate for r in clock.records for rate in r.chunk_rates()]
        for unit in units:
            res = unit.result
            for i, rec in enumerate(unit.runs):
                problems = _trace_problems(rec.trace)
                if isinstance(replays[i], str):
                    problems.append(replays[i])
                else:
                    problems += _trace_problems(replays[i], expect=rec.trace)
                if res["csv_rows"][i] != res["manifest"]["n_events"][i]:
                    problems.append(
                        f"replica {i}: {res['csv_rows'][i]} CSV rows, "
                        f"{res['manifest']['n_events'][i]} events"
                    )
                if res["manifest"]["n_events"][i] != rec.trace.n_events:
                    problems.append(f"replica {i}: manifest event count differs")
                if res["exit_code"] != cli.EXIT_OK:
                    problems.append(f"simulate exited with {res['exit_code']}")
                outcome.record(problems)
        shutil.rmtree(self.out, ignore_errors=True)


class RunBp:
    """``dynamics.run`` on the competition_1d model at a larger size.

    The model is gaussian a+ (3, 0.5), gaussian a- (0.5, 0.5), m=0.5; density
    5 is its mean-field equilibrium, so the population stays near its start.
    """

    unit_seconds = None  # one run whose event loop --seconds sizes

    def __init__(self, name: str, seed: int, seconds: float, scale: float, work_dir=None):
        self.name = name
        self.gauge = Gauge(GAUGE_ARRAY_PASSES[name])
        side, dim = BOX[name]
        side = max(MIN_SIDE, side * scale ** (1.0 / dim))
        t_end = seconds * T_END_PER_SECOND[name]
        raw = json.loads((CONFIGS / "competition_1d.json").read_text())
        for kernel in ("a_plus", "a_minus"):
            raw["model"][kernel]["dim"] = dim
        raw["torus"] = {"L": side, "d": dim}
        raw["init"] = {"poisson": 5.0}
        raw["seed"] = seed
        raw["replicas"] = 1
        raw["schedule"] = {"t_end": t_end, "burn_in": 0.0, "snapshot_times": [t_end]}
        raw["analysis"] = {"window": {"lo": [0.0] * dim, "hi": [side] * dim}}
        self.raw = raw

    def _setup(self):
        cfg = config.parse_config(self.raw)
        rng = config.replica_rng(cfg.seed, 0)
        conf = config.initial_configuration(cfg, rng)
        dynamics.run(cfg.model, conf, 0.0, rng)

    def setup_samples(self) -> list[tuple[float, float]]:
        """Config parsing, the initial configuration and a zero-length run."""
        return [gauged(self._setup, self.gauge) for _ in range(SETUP_REPEATS[self.name])]

    def _simulate(self, audit_every: int = 0) -> Unit:
        clock = LoopClock(self.gauge)
        g0 = self.gauge()
        t0, c0 = perf_counter(), process_time()
        cfg = config.parse_config(self.raw)
        rng = config.replica_rng(cfg.seed, 0)
        conf = config.initial_configuration(cfg, rng)
        c_init = process_time()
        trace = clock.wrap(dynamics.run)(
            cfg.model, conf, cfg.t_end, rng,
            max_population=cfg.max_population, audit_every=audit_every,
        )  # fmt: skip
        (rec,) = clock.records
        return Unit(
            wall_s=rec.end - t0,
            ops=trace.n_events,
            ops_s=rec.loop_s,
            rates=rec.chunk_rates(),
            setup_s=((c_init - c0) + rec.build_s, 0.5 * (g0 + rec.gauges[0]) if rec.gauges else g0),
            runs=clock.records,
        )

    def unit(self) -> Unit:
        return self._simulate()

    def check(self, units: list[Unit], outcome: Outcome) -> None:
        """Replay the run, auditing the caches after its last event.

        The replay repeats the simulated events exactly, so its set-up and
        its event-loop stretches before the audit join the samples.
        """
        try:
            replay = self._simulate(audit_every=max(1, units[0].ops))
        except dynamics.DynamicsError as exc:
            replay = f"replay raised {exc!r}"
        else:
            outcome.setup_s.append(replay.setup_s)
            outcome.rates += replay.rates
        for unit in units:
            trace = unit.runs[0].trace
            problems = _trace_problems(trace)
            if isinstance(replay, str):
                problems.append(replay)
            else:
                problems += _trace_problems(replay.runs[0].trace, expect=trace)
            outcome.record(problems)


class CertifyLongDispersal:
    """certify, self_check and a 100k-trial verify on the shipped config.

    Covers the certificate layer, which the simulator never touches.
    """

    name = "certify_long_dispersal"
    config_path = CONFIGS / "long_dispersal_certificate.json"
    setup_repeats = 25
    setup_block = 20  # one certification takes well under a millisecond
    unit_seconds = 5.0  # one certify and 100k-trial verify at the seed commit
    gauge = Gauge()

    def __init__(self, seed: int, seconds: float, scale: float, work_dir=None):
        self.seed = seed
        self.scale = scale

    def _certify(self):
        cfg = config.load_config(self.config_path)
        cfg.seed = self.seed
        cert = certificate.certify(
            cfg.model.a_plus,
            cfg.model.a_minus,
            omega=cfg.omega,
            grid=cfg.cert_grid,
            tight_packing=cfg.tight_packing,
        )
        cert.self_check()
        return cfg, cert

    def verify_kernels(self, cfg):
        """The kernels the certificate is attacked with."""
        return cfg.model.a_plus, cfg.model.a_minus

    def _certify_block(self):
        for _ in range(self.setup_block):
            self._certify()

    def setup_samples(self) -> list[tuple[float, float]]:
        """Blocks of certifications, each sample one certification's share."""
        samples = [gauged(self._certify_block, self.gauge) for _ in range(self.setup_repeats)]
        return [(cpu_s / self.setup_block, g) for cpu_s, g in samples]

    def unit(self) -> Unit:
        t0 = perf_counter()
        g_setup = self.gauge()
        c0 = process_time()
        cfg, cert = self._certify()
        c1 = process_time()
        trials = max(100, round(cfg.cert_trials * self.scale))
        a_plus, a_minus = self.verify_kernels(cfg)
        rng = config.replica_rng(cfg.seed, 0)
        # verify_certificate draws only inside its per-trial loop, so calls
        # sharing one generator test the same configurations as a single call
        reports, rates, verify_s = [], [], 0.0
        g_first = g_prev = self.gauge()
        for start in range(0, trials, CHUNK_TRIALS):
            n = min(CHUNK_TRIALS, trials - start)
            chunk0 = process_time()
            reports.append(
                certificate.verify_certificate(
                    cert, a_plus, a_minus, trials=n, size_max=cfg.cert_size_max, rng=rng
                )
            )
            chunk1 = process_time()
            g = self.gauge()
            rates.append((n / (chunk1 - chunk0), 0.5 * (g_prev + g)))
            verify_s += chunk1 - chunk0
            g_prev = g
        return Unit(
            wall_s=perf_counter() - t0, ops=trials, ops_s=verify_s, rates=rates,
            setup_s=(c1 - c0, 0.5 * (g_setup + g_first)),
            result=(cert, reports),
        )  # fmt: skip

    def check(self, units: list[Unit], outcome: Outcome) -> None:
        """The certificate passed self_check in ``unit``; count each trial too."""
        for unit in units:
            cert, reports = unit.result
            outcome.record([] if cert.theta > 0.0 else ["theta_cert <= 0"])
            violations = sum(r.n_violations for r in reports)
            outcome.attempted += sum(r.trials for r in reports)
            outcome.failed += violations
            if violations:
                outcome.problems.append(f"{violations} violations")
            outcome.theta_cert = cert.theta


def make(name: str, seed: int, seconds: float, scale: float, work_dir: Path):
    if name == SimCompetition1d.name:
        return SimCompetition1d(seed, seconds, scale, work_dir)
    if name == CertifyLongDispersal.name:
        return CertifyLongDispersal(seed, seconds, scale, work_dir)
    return RunBp(name, seed, seconds, scale, work_dir)


def _add_unit(workload, outcome: Outcome) -> bool:
    try:
        outcome.units.append(workload.unit())
    except Exception as exc:  # a unit that raises is a failed operation
        outcome.record([f"{workload.name} raised {exc!r}"])
        return False
    return True


def measure(workload, seconds: float, tracer=None) -> Outcome:
    """Set up, run the measured units, then check.

    A workload with ``unit_seconds`` runs ``seconds / unit_seconds`` units,
    rounded and at least one; one without sizes its single unit by ``seconds``.

    With a tracer, one untraced unit is followed by one traced unit, and the
    traced one is the last in ``outcome.units``.
    """
    outcome = Outcome()
    if tracer is None:
        outcome.setup_s += workload.setup_samples()
        units = 1
        if workload.unit_seconds is not None:
            units = max(1, round(seconds / workload.unit_seconds))
        for _ in range(units):
            if not _add_unit(workload, outcome):
                break
    elif _add_unit(workload, outcome):
        tracer.run_id = 1
        with tracer.installed():
            _add_unit(workload, outcome)
    outcome.setup_s += [u.setup_s for u in outcome.units if u.setup_s is not None]
    outcome.rates += [rate for u in outcome.units for rate in u.rates]
    if outcome.units:
        workload.check(outcome.units, outcome)
    return outcome


def end_to_end(outcome: Outcome) -> dict:
    """The end-to-end timings; ``peak_rss_mb`` is the caller's.

    ``setup_s`` and ``ops_per_s`` are medians over samples, each scaled to
    the reference host speed by the gauge taken next to it.  The rest are
    unscaled.
    """
    units = outcome.units
    gauges = [g for _, g in outcome.setup_s + outcome.rates]
    return {
        "setup_s": median(s * GAUGE_REF_S / g for s, g in outcome.setup_s),
        "ops_per_s": ops_per_s(outcome),
        "wall_s": median(u.wall_s for u in units),
        "setup_cpu_s": median(s for s, _ in outcome.setup_s),
        "ops_per_cpu_s": median(u.ops / u.ops_s for u in units),
        "gauge_ms": median(gauges) * 1e3,
    }


def ops_per_s(outcome: Outcome) -> float:
    """The median stretch rate, scaled by the stretch's gauge.

    Without stretches (a run under CHUNK_EVENTS events) it is the unscaled
    overall rate.
    """
    if not outcome.rates:
        return median(u.ops / u.ops_s for u in outcome.units)
    return median(r * g / GAUGE_REF_S for r, g in outcome.rates)

"""Exact event-driven simulation of spatial birth-death population models.

Two model variants share one engine:

* ``bolker_pacala``: each point gives birth at rate mass(a_plus); the
  offspring lands at the parent's position plus a displacement drawn from
  the dispersal kernel, wrapped onto the torus.
* ``migration``: births arrive as a Poisson stream with spatial intensity b
  and total rate integral(b), independent of the current population.

Every point dies at rate m + sum over the others of a_minus(distance), with
kernels wrapped onto the torus and truncated at their cutoff radius.  The
per-point competition loads are cached and updated incrementally on each
event; the optional audit recomputes them from scratch and fails loudly on
drift.  Waiting times are exponential in the total rate and the event type is
chosen proportionally, so trajectories follow the exact jump chain.

All randomness flows through one ``numpy.random.Generator``, which makes a
trace a deterministic function of (model, initial configuration, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Torus, TorusConfiguration
from .kernels import ImmigrationField, RadialKernel

VARIANTS = ("bolker_pacala", "migration")

# Hard cap on the living population before a run aborts.
DEFAULT_MAX_POPULATION = 1_000_000


class DynamicsError(RuntimeError):
    pass


class AuditError(DynamicsError):
    """Incremental rate caches drifted from a from-scratch recomputation."""


@dataclass(frozen=True)
class ModelSpec:
    """Model variant plus its kernels and rates.

    a_plus is meaningful for bolker_pacala only (None disables births there);
    b is the immigration intensity and is required for migration.  a_minus
    may be None in either variant, leaving m as the only death rate.
    """

    variant: str
    a_plus: RadialKernel | None = None
    a_minus: RadialKernel | None = None
    m: float = 0.0
    b: ImmigrationField | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise DynamicsError(
                f"unknown variant {self.variant!r}, expected one of {VARIANTS}"
            )
        if not (self.m >= 0.0 and math.isfinite(self.m)):
            raise DynamicsError(f"m must be finite and >= 0, got {self.m}")
        if self.variant == "migration":
            if self.b is None:
                raise DynamicsError("migration requires an immigration field b")
            if self.a_plus is not None:
                raise DynamicsError("migration takes no dispersal kernel")
        elif self.b is not None:
            raise DynamicsError("bolker_pacala takes no immigration field")
        if (
            self.a_plus is not None
            and self.a_minus is not None
            and self.a_plus.dim != self.a_minus.dim
        ):
            raise DynamicsError(
                f"kernel dimensions differ: a_plus {self.a_plus.dim}, "
                f"a_minus {self.a_minus.dim}"
            )

    @property
    def dim(self) -> int | None:
        for k in (self.a_plus, self.a_minus):
            if k is not None:
                return k.dim
        return None


@dataclass(frozen=True)
class Event:
    time: float
    kind: str  # "birth" or "death"
    position: np.ndarray
    point: int
    parent: int | None = None


@dataclass(frozen=True)
class Snapshot:
    time: float
    ids: np.ndarray
    positions: np.ndarray

    @property
    def size(self) -> int:
        return int(self.ids.size)


class SimulationState:
    """Mutable simulator state: model, configuration and clock.

    The configuration's load column caches the competition part of each
    point's death rate (the sum of a_minus over its neighbours); the full
    death rate is m + load.
    """

    def __init__(self, spec: ModelSpec, cfg: TorusConfiguration):
        self.spec = spec
        self.cfg = cfg
        self.torus = cfg.torus
        self.t = 0.0
        dim = spec.dim
        if dim is not None and dim != self.torus.dim:
            raise DynamicsError(
                f"model dimension {dim} != torus dimension {self.torus.dim}"
            )
        for kernel in (spec.a_plus, spec.a_minus):
            if kernel is not None and kernel.cutoff_radius() > self.torus.side / 2.0:
                raise DynamicsError(
                    f"kernel too wide for torus: cutoff "
                    f"{kernel.cutoff_radius():g} > side/2 {self.torus.side / 2.0:g}"
                )
        if spec.b is not None:
            self._b_total = spec.b.integral(self.torus.side, self.torus.dim)
        else:
            self._b_total = 0.0
        self._birth_mass = 0.0 if spec.a_plus is None else spec.a_plus.mass()
        cfg.loads[:] = self._fresh_loads()

    def _fresh_loads(self) -> np.ndarray:
        """Every point's competition load computed from scratch, one per row."""
        if self.spec.a_minus is None:
            return np.zeros(len(self.cfg))
        return self.cfg.kernel_sums(self.spec.a_minus)

    @property
    def population(self) -> int:
        return len(self.cfg)

    def death_rates(self) -> np.ndarray:
        """Per-point death rates, aligned with the configuration's rows."""
        return self.spec.m + self.cfg.loads

    def total_rates(self) -> tuple[float, float]:
        """(total birth rate B, total death rate D) for the current state."""
        n = len(self.cfg)
        if self.spec.variant == "migration":
            b = self._b_total
        else:
            b = n * self._birth_mass
        d = self.spec.m * n + float(self.cfg.loads.sum())
        return b, d

    def audit(self, rel_tol: float = 1e-9) -> None:
        """Recompute every cached load from scratch; raise AuditError on drift."""
        cached = self.cfg.loads
        fresh = self._fresh_loads()
        drift = np.abs(cached - fresh) > rel_tol * (1.0 + np.abs(fresh))
        drifted = np.flatnonzero(drift)
        if drifted.size:
            row = drifted[0]
            raise AuditError(
                f"death-rate cache for point {self.cfg.point_at(row)} drifted: "
                f"cached {float(cached[row])!r}, recomputed {float(fresh[row])!r}"
            )
        if self.cfg.cell_index() != self.cfg.rebuilt_cell_index():
            raise AuditError("cell index differs from a from-scratch rebuild")

    # -- event application ---------------------------------------------------

    def _add_point(self, position: np.ndarray) -> int:
        a_minus = self.spec.a_minus
        pid = self.cfg.insert(position)
        if a_minus is not None:
            rows, dists = self.cfg.neighbors_within(
                self.cfg.position(pid), a_minus.cutoff_radius(), exclude=pid
            )
            if rows.size:
                contrib = a_minus.profile(dists)
                loads = self.cfg.loads
                loads[rows] += contrib
                loads[-1] = float(contrib.sum())  # insert appended the new row
        return pid

    def _remove_point(self, pid: int) -> np.ndarray:
        """Delete a point and take its contribution out of its neighbours' loads.

        A load may end a rounding residue below zero and is then set to 0;
        one further below means the cache is corrupt and raises AuditError.
        """
        a_minus = self.spec.a_minus
        x = self.cfg.position(pid)
        if a_minus is not None:
            rows, dists = self.cfg.neighbors_within(
                x, a_minus.cutoff_radius(), exclude=pid
            )
            if rows.size:
                contrib = a_minus.profile(dists)
                loads = self.cfg.loads
                left = loads[rows] - contrib
                corrupt = np.flatnonzero(left < -1e-9 * (1.0 + contrib))
                if corrupt.size:
                    i = corrupt[0]
                    raise AuditError(
                        f"death-rate cache for point {self.cfg.point_at(rows[i])} "
                        f"fell to {float(left[i])!r} on removing point {pid}"
                    )
                loads[rows] = np.maximum(left, 0.0)
        self.cfg.remove(pid)
        return x

    def _apply_event(self, b: float, d: float, rng: np.random.Generator) -> Event:
        """Choose birth vs death in proportion to the rates and apply it.

        The clock must already sit at the event time.
        """
        n = len(self.cfg)
        if rng.random() * (b + d) < b:
            if self.spec.variant == "migration":
                pos = self.spec.b.sample_position(self.torus.side, self.torus.dim, rng)
                parent = None
            else:
                parent = self.cfg.point_at(int(rng.integers(n)))
                disp = self.spec.a_plus.sample_displacement(rng)
                pos = self.torus.wrap(self.cfg.position(parent) + disp)
            pid = self._add_point(pos)
            return Event(self.t, "birth", self.cfg.position(pid), pid, parent)
        cum = np.cumsum(self.death_rates())
        row = int(np.searchsorted(cum, rng.random() * cum[-1]))
        pid = self.cfg.point_at(min(row, n - 1))
        pos = self._remove_point(pid)
        return Event(self.t, "death", pos, pid, None)

    def snapshot(self, at_time: float) -> Snapshot:
        ids = np.array(self.cfg.ids(), dtype=int)
        return Snapshot(float(at_time), ids, self.cfg.positions_array())


@dataclass
class SimulationTrace:
    events: list[Event] = field(default_factory=list)
    snapshots: list[Snapshot] = field(default_factory=list)
    final_time: float = 0.0
    final_population: int = 0
    absorbed: bool = False
    guard_tripped: bool = False

    @property
    def n_events(self) -> int:
        return len(self.events)


def run(
    spec: ModelSpec,
    cfg: TorusConfiguration,
    t_end: float,
    rng: np.random.Generator,
    snapshot_times: tuple[float, ...] = (),
    max_population: int = DEFAULT_MAX_POPULATION,
    audit_every: int = 0,
    record_events: bool = True,
) -> SimulationTrace:
    """Simulate to ``t_end``, collecting events and scheduled snapshots.

    The configuration is mutated in place.  A snapshot at time s records the
    state after every event with time <= s.  If the population ever exceeds
    ``max_population`` the run stops early with ``guard_tripped`` set and the
    remaining snapshots unfilled; callers decide how loudly to fail.
    """
    if t_end < 0.0 or not math.isfinite(t_end):
        raise DynamicsError(f"t_end must be finite and >= 0, got {t_end}")
    pending = sorted(float(s) for s in snapshot_times)
    if pending and pending[0] < 0.0:
        raise DynamicsError("snapshot times must be >= 0")
    if any(s > t_end for s in pending):
        raise DynamicsError("snapshot times must not exceed t_end")

    state = SimulationState(spec, cfg)
    trace = SimulationTrace()
    events_done = 0

    while True:
        if state.population > max_population:
            trace.guard_tripped = True
            break
        b, d = state.total_rates()
        total = b + d
        if total <= 0.0:
            trace.absorbed = True
            break
        t_next = state.t + rng.exponential(1.0 / total)
        # snapshots strictly before the next event see the current state
        while pending and pending[0] < t_next:
            trace.snapshots.append(state.snapshot(pending.pop(0)))
        if t_next > t_end:
            state.t = t_end
            break
        state.t = t_next
        event = state._apply_event(b, d, rng)
        if record_events:
            trace.events.append(event)
        events_done += 1
        if audit_every and events_done % audit_every == 0:
            state.audit()

    if not trace.guard_tripped:
        for s in pending:
            trace.snapshots.append(state.snapshot(s))
    trace.final_time = state.t
    trace.final_population = state.population
    return trace

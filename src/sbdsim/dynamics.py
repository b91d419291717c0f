"""Exact event-driven simulation of spatial birth-death population models.

Two model variants share one engine:

* ``bolker_pacala``: each point gives birth at rate mass(a_plus); the
  offspring lands at the parent's position plus a displacement drawn from
  the dispersal kernel, wrapped onto the torus.
* ``migration``: births arrive as a Poisson stream with spatial intensity b
  and total rate integral(b), independent of the current population.

Every point dies at rate m + sum over the others of a_minus at their
minimum-image distance on the torus: a natural death at rate m and a death
by competition at rate its load.

The point store caches each point's competition load.  ``build_loads``
hands it a_minus in quanta 1 / S, S = ``load_scale(a_minus)``, once.  A
pair's term is trunc(a_minus(r) S) in int64 at every length r, with no cut
at the cutoff: that floor is a_minus's one truncation.  So the chain is
exact for the kernel trunc(a_minus S) / S on the whole torus, within a
quantum of a_minus, and every sum of loads is exact.  Past the store's
reach, ``load_reach`` of a_minus in quanta, every term is 0, so the store
files and queries pairs within the reach alone.  A birth is one call of
the store's ``_add_point``, and a death one of its ``_remove_point``.  The
store's load regime keeps the loads in step: the pair-term matrix up to
BLOCK_ROWS rows, and a cell index past that.  Events address points by
their row in the store: a birth's parent and a death are drawn as rows.
Only the recorded event carries ids and the position the store returns.
A removal that would take a load below zero, which only a corrupt cache
can, raises AuditError.

The optional audit asks the regime for its one fault: a misfiled row of
the cell index, or a pair term or row sum of the matrix.  It then
recomputes the loads and the load total from scratch, from each pair's
squared length bit for bit as the incremental updates saw it, and checks
the store's load bound.  It changes nothing, and fails loudly on any
difference.

The per-event path, ``total_rates`` and ``_apply_event`` with the store and
kernel methods they call, reaches numpy only through ufuncs, ufunc methods
and ndarray methods: a Python-level wrapper such as ``np.cumsum`` or
``ndarray.sum`` costs a few microseconds per call, a sizeable share of an
event that takes some tens of them.  For the same reason it makes no ufunc
reduction, but for the norm in ``uniform_direction`` that a non-gaussian a+
draws in d >= 3: a sum is the last element of a running sum, a least load an
argmin, and a death on the pair-term matrix updates the loads in place.  It
reads scalars with ``.item()`` and the population off the store's row count.
A ufunc's constant or point operand is a 0-d array, never a Python float or
a one-element vector: the kernels and the store make theirs once, since numpy
converts a Python float on every call (NEP 50) and broadcasts a vector of
shape (1,) at a cost of its own.

Each loop iteration draws its waiting time, exponential in the total rate B
+ D, with one ``rng.exponential``.  The event then takes, in this order:

1. one uniform, which times B + D picks a birth (weight B), a natural death
   (weight m n) or a death by competition (weight L / S, L the load total in
   quanta, only while L > 0);
2. for a ``bolker_pacala`` birth, the parent as a uniform row and then its
   displacement, one kernel draw; for a ``migration`` birth, the immigrant's
   position, one draw of the immigration field; for a natural death, the
   dying point as a uniform row; for a death by competition, the store's
   ``sample_row``, in every load regime: a uniform row and a uniform target
   below the store's load bound, until a target falls below its row's
   load.  States are sub-Poissonian, so the bound stays near the mean
   load: a few tries.

Uniforms, uniform rows and targets come from ``BlockDraws``: blocks of DRAW_BLOCK
draws each, filled lazily from the run's generator, rows exactly uniform by
Lemire's multiply-and-reject.  Every distribution is exact, so trajectories
follow the exact jump chain.

A run records its events in an ``EventLog``: five typed columns (time, birth
flag, position, point id, parent id) that take about 33 bytes per event in
d=1, against some 310 for one ``Event`` object per event.  ``Event`` objects
are built only when the log is indexed or iterated.

All randomness flows through one ``numpy.random.Generator``, which makes a
trace a deterministic function of (model, initial configuration, seed).
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .geometry import Torus, TorusConfiguration, first_drift, load_reach, load_scale
from .kernels import ImmigrationField, RadialKernel

VARIANTS = ("bolker_pacala", "migration")

# Hard cap on the living population before a run aborts.
DEFAULT_MAX_POPULATION = 1_000_000
# A load total, in quanta, at or past which a run aborts as at the cap: one
# birth adds less than this, so no int64 load or bound wraps before the check.
LOAD_LIMIT = 1 << 62
# Uniforms and 64-bit words are drawn from the run's generator this many at a
# time, each kind into its own block.
DRAW_BLOCK = 1024


class DynamicsError(RuntimeError):
    pass


@dataclass(frozen=True)
class RefusedStart:
    """A start of more points than its population guard admits, as its torus
    and its count alone: ``config.initial_configuration`` gives one for a
    Poisson count past ``max_population`` before it draws any position, and
    ``run`` refuses it, as it refuses any start above its guard."""

    torus: Torus
    population: int

    def __len__(self) -> int:
        return self.population


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

    def check_torus(self, torus: Torus) -> None:
        """Raise DynamicsError unless the kernels and an immigration grid have
        the torus's dimension, and a+'s cutoff and a-'s reach, ``load_reach``
        of a- in quanta, the store's own rule, are at most half its side."""
        if self.dim is not None and self.dim != torus.dim:
            raise DynamicsError(
                f"model dimension {self.dim} != torus dimension {torus.dim}"
            )
        if self.b is not None and self.b.dim not in (None, torus.dim):
            raise DynamicsError(
                f"immigration grid has {self.b.dim} axes, torus dimension {torus.dim}"
            )
        a_plus, a_minus = self.a_plus, _in_quanta(self.a_minus)[0]
        widths = (
            ("cutoff", None if a_plus is None else a_plus.cutoff_radius()),
            ("reach", None if a_minus is None else load_reach(a_minus)),
        )
        for name, width in widths:
            if width is not None and width > torus.side / 2.0:
                raise DynamicsError(
                    f"kernel too wide for torus: {name} {width:g} > side/2 "
                    f"{torus.side / 2.0:g}"
                )


@dataclass(frozen=True)
class Event:
    time: float
    kind: str  # "birth" or "death"
    position: np.ndarray
    point: int
    parent: int | None = None


class EventLog(Sequence):
    """Read-only record of a run's events, kept as five typed columns.

    One row per event: time (float64), a birth flag (int8, 1 for a birth and
    0 for a death), the position (``dim`` float64), the point's id (int64)
    and the parent's id (int64, -1 for none: a death or an immigrant).  That
    is 25 + 8 * dim bytes per event.  Indexing, slicing and iteration build
    ``Event`` objects on demand, with the field types the simulator gives
    them: float time, "birth" or "death", a (dim,) float64 position, int
    point and an int parent or None; a slice is a list of them.  The column
    properties return numpy copies, so holding one does not stop the log
    from growing.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self._time = array("d")
        self._birth = array("b")
        self._position = array("d")
        self._point = array("q")
        self._parent = array("q")

    def _append(
        self, time: float, birth: bool, position: np.ndarray, point: int, parent: int
    ) -> None:
        """Add one event; ``position`` is a (dim,) float64 array
        and ``parent`` is -1 for none."""
        self._time.append(time)
        self._birth.append(birth)
        self._position.frombytes(position.tobytes())
        self._point.append(point)
        self._parent.append(parent)

    def __len__(self) -> int:
        return len(self._time)

    def _event(self, i: int) -> Event:
        d = self.dim
        parent = self._parent[i]
        return Event(
            self._time[i],
            "birth" if self._birth[i] else "death",
            np.array(self._position[i * d : (i + 1) * d]),
            self._point[i],
            None if parent < 0 else parent,
        )

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._event(i) for i in range(*index.indices(len(self)))]
        n = len(self)
        i = index + n if index < 0 else index
        if not 0 <= i < n:
            raise IndexError(f"event index {index} out of range for {n} events")
        return self._event(i)

    def __iter__(self):
        return map(self._event, range(len(self)))

    @property
    def times(self) -> np.ndarray:
        return np.array(self._time, dtype=float)

    @property
    def births(self) -> np.ndarray:
        """True for a birth, False for a death."""
        return np.array(self._birth, dtype=bool)

    @property
    def positions(self) -> np.ndarray:
        """Shape (len, dim)."""
        return np.array(self._position, dtype=float).reshape(-1, self.dim)

    @property
    def points(self) -> np.ndarray:
        return np.array(self._point, dtype=np.int64)

    @property
    def parents(self) -> np.ndarray:
        """Parent ids, -1 where the event has none."""
        return np.array(self._parent, dtype=np.int64)


class BlockDraws:
    """The event path's uniforms and uniform rows, read off blocks of
    DRAW_BLOCK draws from the run's generator: uniforms from
    ``rng.random(DRAW_BLOCK)``, rows from the 64-bit words of
    ``rng.bit_generator.random_raw(DRAW_BLOCK)``.  A block is drawn when
    the one before it runs out, the first when the first draw of its kind
    is asked for, so that building one draws nothing.

    A row of 0..n-1 is Lemire's multiply-and-reject of one word w (D.
    Lemire, ACM TOMACS 29(1), 2019, the method of numpy's ``integers``):
    the high half of the 128-bit product w * n, unless its low half falls
    below 2**64 mod n, when the word is rejected and the next one taken.
    Each row then comes from exactly 2**64 // n of the 2**64 words, so
    rows are exactly uniform.
    """

    def __init__(self):
        self._uniforms = iter(())
        self._words = iter(())

    def uniform(self, rng: np.random.Generator) -> float:
        """The next uniform in [0, 1)."""
        for u in self._uniforms:  # the block's next, unless it is used up
            return u
        self._uniforms = iter(rng.random(DRAW_BLOCK).tolist())
        return next(self._uniforms)

    def row(self, n: int, rng: np.random.Generator) -> int:
        """The next row of 0..n-1, 1 <= n < 2**64, each with probability 1 / n."""
        while True:
            for word in self._words:
                product = word * n
                low = product & 0xFFFF_FFFF_FFFF_FFFF
                if low >= n or low >= (1 << 64) % n:  # 2**64 mod n < n
                    return product >> 64
            bits = rng.bit_generator
            if isinstance(bits, np.random.MT19937):
                raise DynamicsError("MT19937 draws 32-bit words; rows need 64-bit ones")
            self._words = iter(bits.random_raw(DRAW_BLOCK).tolist())


@dataclass(frozen=True)
class Snapshot:
    time: float
    ids: np.ndarray
    positions: np.ndarray

    @property
    def size(self) -> int:
        return int(self.ids.size)


@lru_cache(maxsize=16)  # the replicas of a run share one a_minus
def _in_quanta(a_minus: RadialKernel | None) -> tuple[RadialKernel | None, float]:
    """(a_minus scaled to quanta of load, the quanta per unit S), or (None, 1.0)."""
    if a_minus is None:
        return None, 1.0
    scale = load_scale(a_minus)
    return a_minus.scaled(scale), scale


class SimulationState:
    """Mutable simulator state: model, configuration and clock.

    The configuration's load column caches the competition part of each
    point's death rate (the sum of a_minus over its neighbours); the full
    death rate is m + load / S, the load in quanta 1 / S of a_minus.  The
    store gets a_minus scaled by S once, from ``build_loads``.  Loads then
    change only through the store's ``_add_point`` and ``_remove_point``,
    whose load regime keeps its sums in step.  The event path's uniforms
    and rows come from one ``BlockDraws``.
    """

    def __init__(self, spec: ModelSpec, cfg: TorusConfiguration):
        self.spec = spec
        self.cfg = cfg
        self.torus = cfg.torus
        self.t = 0.0
        spec.check_torus(self.torus)
        if spec.b is not None:
            self._b_total = spec.b.integral(self.torus.side, self.torus.dim)
        else:
            self._b_total = 0.0
        self._birth_mass = 0.0 if spec.a_plus is None else spec.a_plus.mass()
        self._migration = spec.variant == "migration"
        self._draws = BlockDraws()
        self._a_minus, self._scale = _in_quanta(spec.a_minus)
        cfg.build_loads(self._a_minus)

    def _fresh_loads(self) -> np.ndarray:
        """Every point's competition load in quanta, from scratch, one per row."""
        if self._a_minus is None:
            return np.zeros(len(self.cfg), dtype=np.int64)
        return self.cfg.kernel_sums(self._a_minus)

    @property
    def population(self) -> int:
        return len(self.cfg)

    def total_rates(self) -> tuple[float, float]:
        """(total birth rate B, total death rate D) for the current state:
        D is m n plus the store's load total L over S, the quanta per unit."""
        n = self.cfg._n
        # only migration has b and only bolker_pacala a_plus: one term is 0
        b = self._b_total + n * self._birth_mass
        d = self.spec.m * n
        return b, d + self.cfg.load_total() / self._scale

    def audit(self) -> None:
        """Raise AuditError on the load regime's fault, then on any cached
        load or the load total that differs from its recomputation from
        scratch, then on a load above the store's load bound.  The regime's
        fault is a misfiled row of the cell index, or a pair term or row sum
        of the matrix against a fresh build.  The fresh loads add each
        unordered pair's term in quanta to both its points, from the squared
        length the incremental updates see bit for bit.  The walk files
        nothing, so an audited run gives the unaudited one's trace."""
        fault = self.cfg.upkeep.fault(self.cfg)
        if fault is not None:
            raise AuditError(fault)
        cached = self.cfg.loads
        fresh = self._fresh_loads()
        row = first_drift(cached, fresh)
        if row is not None:
            raise AuditError(
                f"death-rate cache for point {self.cfg.point_at(row)} drifted: "
                f"cached {cached.item(row)}, recomputed {fresh.item(row)} quanta"
            )
        stale = self.cfg.stale_sum()
        if stale is not None:
            raise AuditError(stale)

    # -- event application ---------------------------------------------------

    def _apply_event(
        self, b: float, d: float, rng: np.random.Generator, log: EventLog
    ) -> None:
        """Pick the event with one uniform times b + d, apply it and append
        it to ``log``: a birth with weight b, a natural death with weight
        m n, whose row is a uniform row, or a death by competition with the
        rest of d, open while the load total L is above 0, whose row the
        store's ``sample_row`` draws with probability exactly its load over
        L.  A birth's parent is a uniform row too.  The clock must already
        sit at the event time.
        """
        cfg, draws = self.cfg, self._draws
        n = cfg._n
        pick = draws.uniform(rng) * (b + d) - b
        if pick < 0.0:
            if self._migration:
                pos = self.spec.b.sample_position(self.torus.side, self.torus.dim, rng)
                parent = -1
            else:
                row = draws.row(n, rng)
                parent = cfg._id.item(row)
                pos = cfg._pos[row] + self.spec.a_plus.sample_displacement(rng)
            pid, x = cfg._add_point(pos)
            log._append(self.t, True, x, pid, parent)
            return
        if pick < self.spec.m * n or not cfg.load_total():
            row = draws.row(n, rng)
        else:
            row = cfg.sample_row(draws, rng)
        pid, x, fault = cfg._remove_point(row)
        if fault is not None:
            raise AuditError(fault)
        log._append(self.t, False, x, pid, -1)

    def snapshot(self, at_time: float) -> Snapshot:
        return Snapshot(float(at_time), *self.cfg.by_id())


@dataclass
class SimulationTrace:
    """What ``run`` returns: its events in an ``EventLog``, the scheduled
    snapshots, how and when the run ended, and the largest population it
    held (at its start or after an event)."""

    events: EventLog
    snapshots: list[Snapshot] = field(default_factory=list)
    final_time: float = 0.0
    final_population: int = 0
    absorbed: bool = False
    guard_tripped: bool = False
    peak_population: int = 0

    @property
    def n_events(self) -> int:
        return len(self.events)

    @property
    def n_snapshots(self) -> int:
        return len(self.snapshots)

    @property
    def births(self) -> int:
        """How many of the events are births, counted off the log's birth column."""
        return self.events._birth.count(1)

    @property
    def deaths(self) -> int:
        return self.n_events - self.births


def run(
    spec: ModelSpec,
    cfg: TorusConfiguration | RefusedStart,
    t_end: float,
    rng: np.random.Generator,
    snapshot_times: tuple[float, ...] = (),
    max_population: int = DEFAULT_MAX_POPULATION,
    audit_every: int = 0,
) -> SimulationTrace:
    """Simulate to ``t_end``, collecting events and scheduled snapshots.

    The configuration is mutated in place.  A snapshot at time s records the
    state after every event with time <= s.  If the population ever exceeds
    ``max_population``, or its load total reaches LOAD_LIMIT quanta, the run
    stops early with ``guard_tripped`` set and the remaining snapshots
    unfilled; callers decide how loudly to fail.  A start above the
    population guard, and any ``RefusedStart``, is refused before the rate
    caches are built.
    Each loop iteration draws one exponential waiting time, and only there
    does ``rng.exponential`` serve the run.
    """
    if t_end < 0.0 or not math.isfinite(t_end):
        raise DynamicsError(f"t_end must be finite and >= 0, got {t_end}")
    pending = sorted(float(s) for s in snapshot_times)
    if pending and pending[0] < 0.0:
        raise DynamicsError("snapshot times must be >= 0")
    if any(s > t_end for s in pending):
        raise DynamicsError("snapshot times must not exceed t_end")

    trace = SimulationTrace(EventLog(cfg.torus.dim))
    start = len(cfg)
    if start > max_population or isinstance(cfg, RefusedStart):  # before any pair walk
        spec.check_torus(cfg.torus)  # which SimulationState runs first
        trace.guard_tripped = True
        trace.final_population = trace.peak_population = start
        return trace
    state = SimulationState(spec, cfg)
    events_done = 0
    peak = start

    while True:
        n = cfg._n  # the population at the start and after each event
        if n > peak:
            peak = n
        if n > max_population or cfg.load_total() >= LOAD_LIMIT:
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
        state._apply_event(b, d, rng, trace.events)
        events_done += 1
        if audit_every and events_done % audit_every == 0:
            state.audit()

    if not trace.guard_tripped:
        for s in pending:
            trace.snapshots.append(state.snapshot(s))
    trace.final_time = state.t
    trace.final_population = state.population
    trace.peak_population = peak
    return trace

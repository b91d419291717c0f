import hashlib
import json
import math
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from conftest import NUMPY_WRAPPER_FILES, file_on, insert_point, live_rows
from sbdsim.config import initial_configuration, load_config, parse_config, replica_rng
from sbdsim.dynamics import (
    DRAW_BLOCK,
    AuditError,
    BlockDraws,
    DynamicsError,
    EventLog,
    ModelSpec,
    SimulationState,
    run,
)
from sbdsim.geometry import (
    BLOCK_ROWS,
    BLOCK_SHIFT,
    CellGrid,
    Torus,
    TorusConfiguration,
    sample_poisson,
)
from sbdsim.kernels import (
    GaussianKernel,
    ImmigrationField,
    gaussian,
    tabulated,
    triangular,
)
from sbdsim.oracles import bp_meanfield_density, surgailis_density
from sbdsim.statistics import density

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def cfg_with_points(torus, points):
    cfg = TorusConfiguration(torus)
    for p in points:
        insert_point(cfg, p)
    return cfg


def migration_spec(b=0.5, m=0.0, a_minus=None):
    return ModelSpec("migration", a_minus=a_minus, m=m, b=ImmigrationField(constant=b))


# -- model spec validation -----------------------------------------------------


def test_modelspec_validation():
    with pytest.raises(DynamicsError):
        ModelSpec("migration", m=0.0)  # b missing
    with pytest.raises(DynamicsError):
        ModelSpec("bolker_pacala", b=ImmigrationField(constant=1.0))
    with pytest.raises(DynamicsError):
        ModelSpec("migration", b=ImmigrationField(constant=1.0), a_plus=triangular(1, 1, 1))
    with pytest.raises(DynamicsError):
        ModelSpec("bolker_pacala", a_plus=triangular(1, 1, 1), a_minus=triangular(1, 1, 2))
    with pytest.raises(DynamicsError):
        ModelSpec("strange")
    with pytest.raises(DynamicsError):
        ModelSpec("bolker_pacala", m=-1.0)


def test_immigration_grid_must_match_the_torus_dimension():
    # a two-axis grid on a line is refused before the run starts
    spec = ModelSpec("migration", b=ImmigrationField(grid=[[1.0, 2.0], [0.5, 0.5]]))
    line = Torus(20.0, 1)
    with pytest.raises(DynamicsError, match="immigration grid has 2 axes"):
        spec.check_torus(line)
    with pytest.raises(DynamicsError, match="immigration grid has 2 axes"):
        run(spec, TorusConfiguration(line), 1.0, np.random.default_rng(0))
    spec.check_torus(Torus(20.0, 2))
    migration_spec().check_torus(line)  # a constant field fits any torus


# -- rate bookkeeping ------------------------------------------------------------


def test_total_rates_empty_is_absorbing():
    spec = ModelSpec("bolker_pacala", a_plus=triangular(1.0, 1.0, 1), m=1.0)
    state = SimulationState(spec, TorusConfiguration(Torus(10.0, 1)))
    assert state.total_rates() == (0.0, 0.0)
    rng = np.random.default_rng(0)
    trace = run(spec, TorusConfiguration(Torus(10.0, 1)), t_end=1.0, rng=rng)
    assert trace.absorbed and len(trace.events) == 0


def test_total_rates_single_point():
    spec = ModelSpec(
        "bolker_pacala", a_plus=triangular(1.0, 1.0, 1), a_minus=triangular(5.0, 1.0, 1), m=2.0
    )
    state = SimulationState(spec, cfg_with_points(Torus(10.0, 1), [[5.0]]))
    b, d = state.total_rates()
    assert d == pytest.approx(2.0)  # no neighbors, competition contributes nothing
    assert b == pytest.approx(triangular(1.0, 1.0, 1).mass())


def test_total_rates_migration_constant():
    state = SimulationState(
        migration_spec(b=0.5), cfg_with_points(Torus(10.0, 1), [[1.0], [2.0]])
    )
    b, d = state.total_rates()
    assert b == pytest.approx(5.0)
    assert d == 0.0
    # birth intensity does not depend on the configuration
    state2 = SimulationState(migration_spec(b=0.5), TorusConfiguration(Torus(10.0, 1)))
    assert state2.total_rates()[0] == pytest.approx(5.0)


def test_birth_rate_is_population_times_mass():
    spec = ModelSpec("bolker_pacala", a_plus=gaussian(0.7, 0.3, 1), m=0.0)
    rng = np.random.default_rng(1)
    cfg = sample_poisson(Torus(12.0, 1), 2.0, rng)
    n = len(cfg)
    state = SimulationState(spec, cfg)
    assert state.total_rates()[0] == pytest.approx(n * 0.7, rel=1e-12)


def test_competition_load_pairwise():
    am = triangular(2.0, 1.0, 1)
    spec = ModelSpec("bolker_pacala", a_plus=triangular(1.0, 1.0, 1), a_minus=am, m=0.5)
    state = SimulationState(spec, cfg_with_points(Torus(10.0, 1), [[5.0], [5.5]]))
    d = spec.m + state.cfg.loads
    np.testing.assert_allclose(d, 0.5 + am.profile(0.5))
    state.audit()


@pytest.mark.parametrize(
    "m, a_minus",
    [(0.5, gaussian(0.05, 0.3, 1)), (0.0, gaussian(0.05, 0.3, 1)), (0.5, None)],
)
def test_block_draw_matches_full_cumsum(m, a_minus):
    # clustered points give skewed loads, and the scattered ones that are
    # isolated have load 0; a short run leaves the block sums as the events
    # made them.  The draw weighs the loads alone, whatever m: with no a-
    # every load is 0 and there is no row to draw
    rng = np.random.default_rng(31)
    torus = Torus(2000.0, 1)
    centres = rng.uniform(0.0, 2000.0, 40)
    clustered = centres[rng.integers(0, 40, 1900)] + rng.exponential(0.5, 1900)
    scattered = rng.uniform(0.0, 2000.0, 100)
    points = rng.permutation(np.concatenate([clustered, scattered]))
    cfg = cfg_with_points(torus, points[:, None])
    spec = ModelSpec("bolker_pacala", a_plus=triangular(1.0, 1.0, 1), a_minus=a_minus, m=m)
    run(spec, cfg, t_end=0.01, rng=rng)
    n = len(cfg)
    assert 7 * 256 < n < 2500 and n % 256  # eight blocks, the last one partial

    cum = np.cumsum(cfg.loads)
    total = cum[-1]
    if a_minus is None:
        assert total == 0.0 and {cfg.sample_row(u) for u in rng.random(100)} == {-1}
        return
    exact = 0
    for u in rng.random(10_000):
        target = u * total
        expected = int(np.searchsorted(cum, target, side="right"))
        row = cfg.sample_row(u)
        near = np.abs(cum[max(expected - 1, 0) : expected + 1] - target).min()
        if near > 1e-9 * total:
            assert row == expected
            exact += 1
        assert cfg.loads[row] > 0.0
    assert exact > 9_900


def test_audit_follows_block_sums_across_boundaries():
    # grow from 240 points past the first block boundary (256), where the
    # block sums are rebuilt from the column, and a capacity doubling (256
    # -> 512 rows), then shrink back below it, recomputing every load, and
    # every block sum while there is more than one block, after each event
    rng = np.random.default_rng(32)
    torus = Torus(60.0, 1)
    cfg = cfg_with_points(torus, rng.uniform(0.0, 60.0, (240, 1)))
    am = triangular(0.5, 1.0, 1)
    grow = ModelSpec("bolker_pacala", a_plus=triangular(3.0, 1.0, 1), a_minus=am, m=0.1)
    trace = run(grow, cfg, t_end=10.0, rng=rng, max_population=280, audit_every=1)
    assert trace.guard_tripped and len(cfg) == 281
    shrink = ModelSpec("bolker_pacala", a_plus=triangular(0.1, 1.0, 1), a_minus=am, m=2.0)
    trace = run(shrink, cfg, t_end=10.0, rng=rng, audit_every=1)
    assert trace.absorbed and len(cfg) == 0
    # an emptied block keeps no rounding residue; block 0's sum is not kept
    # once the store is down to one block
    assert not cfg._block[1:].any()


def test_audit_follows_a_store_that_grows_past_one_block_from_empty():
    # a d=1 migration run with triangular a- from an empty box whose
    # population settles near BLOCK_ROWS (100 immigrants per unit time
    # against deaths at 0.2 + about 0.00074 n each), so it crosses the
    # block edge up and down again and again: the loads, and the block sums
    # the upward crossings rebuild from the column, pass the audit after
    # every event
    spec = migration_spec(b=1.0, m=0.2, a_minus=triangular(0.074, 1.0, 1))
    cfg = TorusConfiguration(Torus(100.0, 1))
    trace = run(spec, cfg, 20.0, np.random.default_rng(33), audit_every=1)
    sizes = np.cumsum(np.where(trace.events.births, 1, -1))
    upward = np.count_nonzero((sizes[1:] > BLOCK_ROWS) & (sizes[:-1] <= BLOCK_ROWS))
    assert trace.n_events > 1000 and upward >= 3


# -- single event behaviour -------------------------------------------------------


def test_holding_time_exponential_mean():
    # lone point, death only: waiting time is Exp(m) with m = 1
    spec = ModelSpec("bolker_pacala", a_plus=None, m=1.0)
    rng = np.random.default_rng(2)
    times = np.empty(10_000)
    for i in range(times.size):
        cfg = cfg_with_points(Torus(10.0, 1), [[5.0]])
        (event,) = run(spec, cfg, t_end=1e9, rng=rng).events
        assert event.kind == "death"
        times[i] = event.time
    se = times.std(ddof=1) / math.sqrt(times.size)
    assert abs(times.mean() - 1.0) < 3.0 * se


def test_death_selection_proportional_to_rates():
    # three points on a line, the middle one has twice the competition load;
    # with m = 0 the death rates are c, 2c, c so the middle dies half the time
    am = triangular(10.0, 0.5, 1)
    spec = migration_spec(b=0.0, m=0.0, a_minus=am)
    rng = np.random.default_rng(3)
    picks = np.zeros(3)
    for _ in range(10_000):
        cfg = cfg_with_points(Torus(10.0, 1), [[1.0], [1.45], [1.9]])
        event = run(spec, cfg, t_end=1e9, rng=rng).events[0]
        assert event.kind == "death"
        picks[event.point] += 1
    freq = picks / picks.sum()
    se = math.sqrt(0.5 * 0.5 / 10_000)
    assert abs(freq[1] - 0.5) < 3.0 * se
    assert abs(freq[0] - 0.25) < 3.0 * se


def test_migration_event_count_is_poisson():
    # pure immigration: event count on [0, t] is Poisson(t * integral of b)
    rng = np.random.default_rng(4)
    counts = np.empty(2000)
    for i in range(counts.size):
        trace = run(
            migration_spec(b=0.5),
            TorusConfiguration(Torus(10.0, 1)),
            t_end=2.0,
            rng=rng,
        )
        counts[i] = len(trace.events)
    lam = 10.0
    mean_se = counts.std(ddof=1) / math.sqrt(counts.size)
    assert abs(counts.mean() - lam) < 3.0 * mean_se
    var = counts.var(ddof=1)
    var_se = var * math.sqrt(2.0 / (counts.size - 1))
    assert abs(var - lam) < 4.0 * var_se


def test_birth_displacement_wraps_to_torus():
    spec = ModelSpec("bolker_pacala", a_plus=gaussian(5.0, 1.0, 1), m=0.0)
    rng = np.random.default_rng(5)
    cfg = cfg_with_points(Torus(14.0, 1), [[0.1]])
    # births only: the guard stops the run after exactly 200 events
    trace = run(spec, cfg, t_end=1e9, rng=rng, max_population=200)
    assert trace.n_events == 200
    pts = cfg.by_id()[1]
    assert np.all(pts >= 0.0) and np.all(pts < 14.0)


# -- full runs ---------------------------------------------------------------------


def test_run_rejects_bad_schedules():
    spec = migration_spec()
    with pytest.raises(DynamicsError):
        run(spec, TorusConfiguration(Torus(10.0, 1)), -1.0, np.random.default_rng(0))
    with pytest.raises(DynamicsError):
        run(
            spec,
            TorusConfiguration(Torus(10.0, 1)),
            1.0,
            np.random.default_rng(0),
            snapshot_times=(2.0,),
        )


def test_population_changes_by_one_and_ids_are_stable():
    am = triangular(1.0, 0.5, 1)
    spec = ModelSpec("bolker_pacala", a_plus=triangular(2.0, 0.5, 1), a_minus=am, m=0.5)
    rng = np.random.default_rng(6)
    cfg = sample_poisson(Torus(10.0, 1), 1.0, rng)
    start_ids = set(cfg.by_id()[0].tolist())
    trace = run(spec, cfg, t_end=4.0, rng=rng)
    alive = set(start_ids)
    for ev in trace.events:
        if ev.kind == "birth":
            assert ev.point not in alive
            alive.add(ev.point)
        else:
            assert ev.point in alive
            alive.remove(ev.point)
    assert alive == set(cfg.by_id()[0].tolist())
    assert len(alive) == trace.final_population
    times = [ev.time for ev in trace.events]
    assert all(a < b for a, b in zip(times, times[1:]))


def test_snapshots_record_state_between_events():
    rng = np.random.default_rng(7)
    trace = run(
        migration_spec(b=1.0),
        TorusConfiguration(Torus(10.0, 1)),
        t_end=3.0,
        rng=rng,
        snapshot_times=(0.0, 1.0, 2.0, 3.0),
    )
    assert [s.time for s in trace.snapshots] == [0.0, 1.0, 2.0, 3.0]
    assert trace.snapshots[0].size == 0
    sizes = [s.size for s in trace.snapshots]
    assert all(a <= b for a, b in zip(sizes, sizes[1:]))  # pure immigration
    for s in trace.snapshots:
        events_before = sum(1 for ev in trace.events if ev.time <= s.time)
        assert s.size == events_before


def test_absorption_terminates_run():
    spec = ModelSpec("bolker_pacala", a_plus=None, m=1.0)
    rng = np.random.default_rng(8)
    cfg = cfg_with_points(Torus(10.0, 1), [[1.0], [2.0], [3.0]])
    trace = run(spec, cfg, t_end=1e9, rng=rng, snapshot_times=(1e9,))
    assert trace.absorbed
    assert trace.final_population == 0
    assert len(trace.events) == 3
    assert all(ev.kind == "death" for ev in trace.events)
    # pending snapshots are emitted from the absorbed (empty) state
    assert trace.snapshots[-1].size == 0


def test_explosion_guard_trips():
    spec = ModelSpec("bolker_pacala", a_plus=triangular(2.0, 0.5, 1), m=0.0)
    rng = np.random.default_rng(9)
    cfg = cfg_with_points(Torus(10.0, 1), [[float(i)] for i in range(10)])
    trace = run(spec, cfg, t_end=1e9, rng=rng, max_population=50, snapshot_times=(1e9,))
    assert trace.guard_tripped
    assert not trace.absorbed
    assert trace.final_population == 51
    assert trace.snapshots == []  # guard leaves pending snapshots unfilled


def test_a_start_above_the_guard_still_meets_the_torus_check():
    # the guard refuses a start before the rate caches are built, but not
    # before the kernels are checked against the torus
    spec = ModelSpec("bolker_pacala", a_minus=triangular(1.0, 6.0, 1), m=0.2)
    cfg = cfg_with_points(Torus(10.0, 1), [[1.0], [2.0]])
    with pytest.raises(DynamicsError, match="too wide"):
        run(spec, cfg, 1.0, np.random.default_rng(0), max_population=1)


def test_incremental_caches_survive_audit():
    am = gaussian(1.0, 0.5, 1)
    spec = ModelSpec("bolker_pacala", a_plus=triangular(2.0, 1.0, 1), a_minus=am, m=0.2)
    rng = np.random.default_rng(10)
    cfg = sample_poisson(Torus(12.0, 1), 2.0, rng)
    trace = run(spec, cfg, t_end=15.0, rng=rng, audit_every=100)
    assert len(trace.events) > 1000  # the audit actually exercised many checkpoints


@pytest.mark.parametrize("dim, cutoff", [(1, 3.5), (1, 4.0), (2, 3.5)])
def test_audit_passes_on_grids_with_self_inverse_offsets(dim, cutoff):
    # a cutoff in (3/8 side, side/2] on a store filed by hand on 8 cells of
    # side / 8 reaches 4 cells, an offset that is its own negative modulo
    # the grid; the loads recomputed by the half pair walk after every
    # event must match the incremental ones
    side = 8.0
    am = triangular(0.1, cutoff, dim)
    spec = ModelSpec("bolker_pacala", a_plus=triangular(2.0, 1.0, dim), a_minus=am, m=0.2)
    rng = np.random.default_rng(40 + dim + int(cutoff))
    cfg = sample_poisson(Torus(side, dim), 40.0 / side**dim, rng)
    cfg._file(CellGrid(side, dim, 8), cutoff)  # the run keeps the filing it finds
    trace = run(spec, cfg, t_end=5.0, rng=rng, audit_every=1)
    assert len(trace.events) > 100 and not trace.guard_tripped
    assert cfg.grid == CellGrid(side, dim, 8) and 4 in cfg.grid.offsets(cutoff)


@pytest.mark.parametrize("dim, weight", [(1, 0.3), (2, 2.0)])
def test_audited_run_gives_the_unaudited_trace(dim, weight):
    # the audit after every event recomputes the loads without refiling a
    # row; neighbour queries list rows in the order the index gathers them,
    # so an audit that moved a row in its cell would change a load's last
    # bits and, from there, the later events
    am = gaussian(weight, 0.5, dim)
    spec = ModelSpec("bolker_pacala", a_plus=triangular(2.0, 1.0, dim), a_minus=am, m=0.2)
    torus = Torus(8.0, dim)
    logs, loads = [], []
    for audit_every in (1, 0):
        rng = np.random.default_rng(50 + dim)
        cfg = sample_poisson(torus, 30.0 / torus.volume, rng)
        logs.append(run(spec, cfg, t_end=3.0, rng=rng, audit_every=audit_every).events)
        loads.append(cfg.loads.copy())
        assert cfg.grid == CellGrid.for_radius(torus, am.cutoff_radius())
    audited, plain = logs
    assert len(plain) > 200 and plain.births.any() and not plain.births.all()
    for column in ("times", "births", "positions", "points", "parents"):
        np.testing.assert_array_equal(getattr(audited, column), getattr(plain, column))
    np.testing.assert_array_equal(loads[0], loads[1])


def store_index(cfg):
    """The store's cell index and loads as plain values: its cell, slot and
    load columns and each cell's live rows, in order."""
    n = len(cfg)
    cells = {c: rows.tolist() for c, rows in live_rows(cfg).items()}
    return cfg._cell[:n].tolist(), cfg._slot[:n].tolist(), cfg.loads.tolist(), cells


@pytest.mark.parametrize("dim", [1, 2])
def test_audit_leaves_the_index_bit_identical(dim):
    # after 300 events whose removals left cells listing their rows out of
    # ascending order, an audit checks the index and recomputes the loads
    # but changes no cell array, slot, cell entry or cached load
    am = gaussian(0.5, 0.5, dim)
    spec = ModelSpec("bolker_pacala", a_plus=triangular(2.0, 1.0, dim), a_minus=am, m=0.2)
    torus = Torus(8.0, dim)
    rng = np.random.default_rng(60 + dim)
    state = SimulationState(spec, sample_poisson(torus, 100.0 / torus.volume, rng))
    log = EventLog(dim)
    for _ in range(300):
        b, d = state.total_rates()
        state.t += rng.exponential(1.0 / (b + d))
        state._apply_event(b, d, rng, log)
    assert log.births.any() and not log.births.all()
    before = store_index(state.cfg)
    assert any(rows != sorted(rows) for rows in before[3].values())
    state.audit()
    assert store_index(state.cfg) == before


class CountingRng:
    """A numpy Generator that counts its ``exponential`` calls, records the
    name and arguments of each ``integers`` and ``random`` call, and the
    name of every other attribute the run reads off it."""

    def __init__(self, rng):
        self._rng = rng
        self.exponentials = 0
        self.calls = []
        self.names = []

    def exponential(self, *args, **kwargs):
        self.exponentials += 1
        return self._rng.exponential(*args, **kwargs)

    def integers(self, *args, **kwargs):
        self.calls.append(("integers", args, kwargs))
        return self._rng.integers(*args, **kwargs)

    def random(self, *args, **kwargs):
        self.calls.append(("random", args, kwargs))
        return self._rng.random(*args, **kwargs)

    def __getattr__(self, name):
        self.names.append(name)
        return getattr(self._rng, name)


@pytest.mark.parametrize("variant", ["bolker_pacala", "migration"])
def test_run_draws_one_waiting_time_per_loop_iteration(variant):
    # the benchmark splits the event loop into events at the waiting-time
    # draws: one exponential per event, one more when the run ends at t_end
    # (the draw that passes it), none more when the guard stops it, and
    # none at all for a start above the guard
    dim = 1
    if variant == "migration":
        spec = migration_spec(b=2.0, m=0.5, a_minus=triangular(0.5, 1.0, dim))
    else:
        am = gaussian(0.5, 0.5, dim)
        spec = ModelSpec(variant, a_plus=gaussian(1.5, 0.5, dim), a_minus=am, m=0.5)
    for t_end, max_population in ((3.0, 10**6), (3.0, 25), (0.0, 10**6)):
        rng = CountingRng(np.random.default_rng(5))
        cfg = sample_poisson(Torus(10.0, dim), 2.0, rng)
        trace = run(spec, cfg, t_end, rng, max_population=max_population)
        ended_by_time = not (trace.guard_tripped or trace.absorbed)
        assert rng.exponentials == trace.n_events + ended_by_time
    assert trace.n_events == 0 and rng.exponentials == 1
    rng = CountingRng(np.random.default_rng(5))
    trace = run(spec, sample_poisson(Torus(10.0, dim), 2.0, rng), 3.0, rng, max_population=5)
    assert trace.guard_tripped and trace.n_events == 0 and rng.exponentials == 0


@pytest.mark.parametrize("variant", ["bolker_pacala", "migration"])
def test_the_event_path_draws_uniforms_and_rows_in_blocks(variant):
    # a uniform comes from a block of rng.random(DRAW_BLOCK) and a row from
    # a block of 64-bit words, so the event path never calls rng.integers
    # nor rng.random without a size; the waiting time stays one
    # rng.exponential per event.  The immigrants of a constant field draw
    # their positions with rng.uniform
    if variant == "migration":
        spec = migration_spec(b=2.0, m=0.5, a_minus=triangular(0.5, 1.0, 1))
    else:
        am = gaussian(0.5, 0.5, 1)
        spec = ModelSpec(variant, a_plus=gaussian(1.5, 0.5, 1), a_minus=am, m=0.5)
    base = np.random.default_rng(5)
    cfg = sample_poisson(Torus(10.0, 1), 2.0, base)
    rng = CountingRng(base)
    trace = run(spec, cfg, 200.0, rng)
    assert trace.n_events > 2 * DRAW_BLOCK
    assert rng.exponentials == trace.n_events + (not trace.absorbed)
    assert rng.calls and all(
        call == ("random", (DRAW_BLOCK,), {}) for call in rng.calls
    )
    assert len(rng.calls) <= 2 * trace.n_events // DRAW_BLOCK + 1
    if variant == "bolker_pacala":
        assert "bit_generator" in rng.names


def test_a_zero_length_run_draws_only_its_waiting_time():
    # the blocks fill only when the first event asks for a draw, so a run
    # that ends before its first event reads nothing off its generator but
    # the one waiting time that passes t_end: the set-up a benchmark times
    # up to the first draw is the state's build alone
    spec = ModelSpec(
        "bolker_pacala", a_plus=gaussian(1.5, 0.5, 1), a_minus=gaussian(0.5, 0.5, 1), m=0.5
    )
    base = np.random.default_rng(5)
    cfg = sample_poisson(Torus(10.0, 1), 2.0, base)
    rng = CountingRng(base)
    trace = run(spec, cfg, 0.0, rng)
    assert trace.n_events == 0 and rng.exponentials == 1
    assert rng.names == [] and rng.calls == []


@pytest.mark.parametrize("n", [1, 3, 2**32 + 1, 2**62 + 1])
def test_a_row_rejects_exactly_the_words_below_the_threshold(n):
    # Lemire's multiply-and-reject: the word whose low half of w * n is
    # 2**64 mod n less one is rejected and the next word taken; the words
    # whose low half is the threshold and one above it are kept, as the
    # high half of w * n.  Every row lies in [0, n)
    threshold = (1 << 64) % n
    inverse = pow(n, -1, 1 << 64)  # every n here is odd
    last = (1 << 64) - 1  # low half 2**64 - n, kept: row n - 1
    for low in (threshold - 1, threshold, threshold + 1):
        if low < 0:  # n = 1 rejects nothing
            continue
        word = low * inverse % (1 << 64)
        assert word * n % (1 << 64) == low
        draws = BlockDraws()
        draws._words = iter([word, last])
        row = draws.row(n, None)
        assert 0 <= row < n
        if low < threshold:
            assert row == n - 1 and next(draws._words, None) is None
        else:
            assert row == word * n >> 64 and next(draws._words) == last


def test_rows_of_7_pass_a_chi_square_test():
    # 70,000 rows of 0..6 from one seeded generator, block after block
    draws, rng = BlockDraws(), np.random.default_rng(97)
    counts = np.bincount([draws.row(7, rng) for _ in range(70_000)], minlength=7)
    assert counts.size == 7
    assert stats.chisquare(counts).pvalue > 0.001
    with pytest.raises(DynamicsError, match="64-bit"):
        BlockDraws().row(7, np.random.Generator(np.random.MT19937(1)))


def test_uniforms_come_in_blocks_of_the_generator_stream():
    # the uniforms are rng.random's own, DRAW_BLOCK at a time
    draws, rng = BlockDraws(), np.random.default_rng(98)
    got = [draws.uniform(rng) for _ in range(2 * DRAW_BLOCK + 1)]
    want = np.random.default_rng(98).random(3 * DRAW_BLOCK)[: 2 * DRAW_BLOCK + 1]
    assert got == want.tolist()


def test_a_run_from_an_empty_store_keeps_float_block_sums():
    # the rate caches of an empty store are built from no rows, where
    # np.bincount gives int64 zeros; the block sums must stay float64, or
    # every later load added to them is cut to a whole number and the
    # total death rate with it
    spec = migration_spec(b=2.0, m=0.2, a_minus=triangular(0.7, 1.0, 1))
    cfg = TorusConfiguration(Torus(10.0, 1))
    trace = run(spec, cfg, 20.0, np.random.default_rng(3), audit_every=25)
    assert trace.n_events > 100 and cfg._block.dtype == np.float64
    assert cfg.load_total() == pytest.approx(float(cfg.loads.sum()), rel=1e-12)


def test_migration_without_competition_builds_no_index():
    # with no a- nothing asks the store for a radius: it keeps its columns
    # alone, and the audit after every event finds nothing to fault
    rng = np.random.default_rng(42)
    cfg = sample_poisson(Torus(10.0, 2), 1.0, rng)
    trace = run(migration_spec(b=2.0, m=0.5), cfg, t_end=5.0, rng=rng, audit_every=1)
    assert trace.events.births.any() and not trace.events.births.all()
    assert cfg.grid is None and cfg._bpos is None and cfg.cell_index_fault() is None


def test_audit_catches_corruption():
    am = triangular(1.0, 1.0, 1)
    spec = ModelSpec("bolker_pacala", a_plus=triangular(1.0, 1.0, 1), a_minus=am, m=0.2)
    state = SimulationState(spec, cfg_with_points(Torus(10.0, 1), [[5.0], [5.5]]))
    state.audit()
    state.cfg.loads[0] += 0.5
    with pytest.raises(AuditError):
        state.audit()


def test_audit_catches_block_sum_corruption():
    # the pair at 5.0 and 5.5, and lone points 2 apart, enough for more than
    # one block: a store of one block keeps no block sums
    am = triangular(1.0, 1.0, 1)
    spec = ModelSpec("bolker_pacala", a_plus=triangular(1.0, 1.0, 1), a_minus=am, m=0.2)
    points = [[5.0], [5.5]] + [[10.0 + 2.0 * k] for k in range(BLOCK_ROWS)]
    state = SimulationState(spec, cfg_with_points(Torus(600.0, 1), points))
    assert len(state.cfg) > BLOCK_ROWS and state.cfg.load_total() == 1.0
    state.audit()
    state.cfg._block[0] += 1e-6
    with pytest.raises(AuditError, match="block 0"):
        state.audit()


@pytest.mark.parametrize("n", [2, 300])
def test_audit_catches_a_corrupted_load_total(n):
    # the store's running load total, the root of its sum tree, is checked
    # against the reduce of the load column, for a store of one block and
    # of more
    am = triangular(1.0, 1.0, 1)
    spec = ModelSpec("bolker_pacala", a_plus=triangular(1.0, 1.0, 1), a_minus=am, m=0.2)
    rng = np.random.default_rng(34)
    cfg = TorusConfiguration(Torus(40.0, 1), rng.uniform(0.0, 40.0, (n, 1)))
    state = SimulationState(spec, cfg)
    state.audit()
    state.cfg._total += 1e-6 * (1.0 + state.cfg._total)  # far past LOAD_DRIFT_TOL
    with pytest.raises(AuditError, match="load total drifted"):
        state.audit()


def test_the_load_total_is_exactly_0_once_the_store_is_empty():
    # a population that crosses the block edge down to extinction leaves
    # its running total no rounding residue, nor -0.0, and the next birth
    # adds to it from there; every event is audited, the total with it
    rng = np.random.default_rng(35)
    am = triangular(0.5, 1.0, 1)
    cfg = cfg_with_points(Torus(60.0, 1), rng.uniform(0.0, 60.0, (300, 1)))
    spec = ModelSpec("bolker_pacala", a_plus=triangular(0.1, 1.0, 1), a_minus=am, m=2.0)
    trace = run(spec, cfg, 10.0, rng, audit_every=1)
    assert trace.absorbed and len(cfg) == 0
    assert np.float64(cfg.load_total()).tobytes() == np.float64(0.0).tobytes()
    insert_point(cfg, [3.0], 0.25)
    assert cfg.load_total() == 0.25


@pytest.mark.parametrize(
    "column, value",
    [("load", math.nan), ("load", math.inf), ("block", math.nan), ("block", -math.inf)],
)
def test_audit_catches_a_cache_that_is_not_finite(column, value):
    # a NaN compares false with any tolerance, so the audit flags every
    # cache that is not within it rather than those beyond it
    am = triangular(1.0, 1.0, 1)
    spec = ModelSpec("bolker_pacala", a_plus=triangular(1.0, 1.0, 1), a_minus=am, m=0.2)
    rng = np.random.default_rng(31)
    cfg = TorusConfiguration(Torus(40.0, 1), rng.uniform(0.0, 40.0, (300, 1)))
    assert len(cfg) > BLOCK_ROWS
    state = SimulationState(spec, cfg)
    state.audit()
    if column == "load":
        cfg._load[3] = value
        match = f"point {cfg.point_at(3)} drifted"
    else:
        cfg._block[0] = value
        match = "block 0 drifted"
    with pytest.raises(AuditError, match=match):
        state.audit()


def misfile(cfg, how):
    """Corrupt the cell index of a store with two or more points in one cell
    in one way; return the id of the point the audit must name."""
    cell, rows = next((c, rows) for c, rows in live_rows(cfg).items() if rows.size >= 2)
    k = rows.size
    first, second, last = int(rows[0]), int(rows[1]), int(rows[k - 1])
    if how == "cell entry":
        cfg._cell[first] ^= 1  # a neighbouring flat cell
    elif how == "missing":
        cfg._fill[cell] = k - 1
        return cfg.point_at(last)
    elif how == "duplicate":
        cfg._rows[cell, k] = first
        cfg._fill[cell] = k + 1
    elif how == "slot":
        cfg._slot[first], cfg._slot[second] = cfg._slot[second], cfg._slot[first]
        return cfg.point_at(min(first, second))
    elif how == "other cell":  # at its slot, but in another cell's array
        other = next(o for c, o in live_rows(cfg).items() if c != cell)
        rows[0], other[0] = other[0], rows[0]
        return cfg.point_at(min(first, int(rows[0])))
    elif how == "moved":  # one cell along every axis
        cfg._pos[first] = (cfg._pos[first] + cfg.grid.cell_size) % cfg.torus.side
    return cfg.point_at(first)


@pytest.mark.parametrize(
    "how", ["cell entry", "missing", "duplicate", "slot", "other cell", "moved"]
)
def test_audit_catches_cell_index_corruption(how):
    # the cutoff 4 files the points on 2 cells of 5 per axis, one cutoff
    # wide, and reaches 1 cell, an offset that is its own negative
    am = triangular(1.0, 4.0, 2)
    spec = ModelSpec("bolker_pacala", a_plus=triangular(1.0, 1.0, 2), a_minus=am, m=0.2)
    rng = np.random.default_rng(12)
    cfg = cfg_with_points(Torus(10.0, 2), rng.uniform(0.0, 10.0, (60, 2)))
    assert cfg.grid is None
    state = SimulationState(spec, cfg)
    assert cfg.grid == CellGrid(10.0, 2, 2)
    state.audit()
    pid = misfile(cfg, how)
    with pytest.raises(AuditError, match=f"cell index .*: point {pid} "):
        state.audit()


def test_a_load_total_that_is_only_a_residue_thins_the_event():
    # two lone points carry loads of 0, but a rounding residue is left in
    # the load total: the competition channel, the only one with m = 0 and
    # no births, finds no row, so the event is thinned, nothing is logged
    # or removed, and the total goes back to the loads' sum, 0
    am = triangular(1.0, 1.0, 1)
    spec = ModelSpec("bolker_pacala", a_minus=am, m=0.0)
    state = SimulationState(spec, cfg_with_points(Torus(10.0, 1), [[2.0], [7.0]]))
    assert state.cfg.loads.tolist() == [0.0, 0.0] and state.total_rates() == (0.0, 0.0)
    state.cfg._total = 1e-17
    b, d = state.total_rates()
    assert (b, d) == (0.0, 1e-17)
    log = EventLog(1)
    state._apply_event(b, d, np.random.default_rng(0), log)
    assert len(log) == 0 and state.population == 2
    assert state.total_rates() == (0.0, 0.0)
    state.audit()


def test_removal_below_zero_load_raises():
    # point 0's load is a- at distance 0.5 = 0.5; corrupted to 0, removing
    # point 1 would take it to -0.5, far beyond a rounding residue.  The
    # store reports the fault and changes no load; a death by competition,
    # the only event with m = 0 and no birth rate, draws point 1, the one
    # load above 0, and raises it
    am = triangular(1.0, 1.0, 1)
    spec = ModelSpec("bolker_pacala", a_plus=triangular(1.0, 1.0, 1), a_minus=am, m=0.0)
    fault = "death-rate cache for point 0 fell to -0.5 on removing point 1"

    def corrupted():
        state = SimulationState(spec, cfg_with_points(Torus(10.0, 1), [[5.0], [5.5]]))
        state.cfg.loads[0] -= 0.5
        return state

    cfg = corrupted().cfg
    pid, x, got = cfg._remove_point(1, am)
    assert (pid, x.tolist(), got) == (1, [5.5], fault) and cfg.loads.tolist() == [0.0]
    state, log = corrupted(), EventLog(1)
    with pytest.raises(AuditError, match="point 0") as raised:
        state._apply_event(0.0, state.cfg.load_total(), np.random.default_rng(0), log)
    assert str(raised.value) == fault and len(log) == 0


def grid_field():
    g = [[0.2, 1.0, 0.5, 0.0], [0.3, 0.1, 0.9, 0.4], [1.0, 0.2, 0.2, 0.7]]
    return ImmigrationField(grid=np.array(g + [[0.0, 0.6, 0.3, 0.8]]))


def test_removal_counts_the_residues_it_clamps():
    # points 0 and 2 each carry a- at distance 0.5 from point 1, less a
    # crafted residue; removing point 1 sets both loads to exactly 0 and
    # counts them, keeping the larger residue
    am = triangular(1.0, 1.0, 1)
    spec = ModelSpec("bolker_pacala", a_plus=triangular(1.0, 1.0, 1), a_minus=am, m=0.2)
    cfg = cfg_with_points(Torus(10.0, 1), [[5.0], [5.5], [6.0]])
    state = SimulationState(spec, cfg)
    assert state.cfg.loads.tolist() == [0.5, 1.0, 0.5]
    state.cfg.set_loads(np.array([0.5 - 1e-12, 1.0, 0.5 - 3e-12]))
    assert (cfg.clamps, cfg.largest_clamp) == (0, 0.0)
    assert cfg._remove_point(1, am)[2] is None
    assert state.cfg.loads.tolist() == [0.0, 0.0]
    assert cfg.clamps == 2
    assert cfg.largest_clamp == pytest.approx(3e-12, rel=1e-3)
    state.audit()


def remove_the_old_way(state, row):
    """``_remove_point`` as its load update was written before it took one
    gather and one scatter: the neighbours' loads and block sums take
    ``-contrib`` by a fancy ``+=`` and an ``np.add.at``, and a row left
    below zero takes minus its old load instead."""
    cfg = state.cfg
    cell = cfg._cell.item(row)
    x = cfg.remove(row)
    rows, squares = cfg._neighbors(x, cell)
    contrib = state.spec.a_minus._profile_sq(squares)
    old = cfg.loads[rows]
    delta = -contrib
    below = old - contrib < 0.0
    delta[below] = -old[below]
    cfg._load[rows] += delta
    np.add.at(cfg._block, rows >> BLOCK_SHIFT, delta)


@pytest.mark.parametrize("dim", [1, 2])
def test_death_update_matches_the_old_arithmetic_bit_for_bit(dim):
    # two copies of one seeded state after 300 events: 60 deaths update the
    # loads and block sums of one by _remove_point and of the other the old
    # way, then one crafted clamp, where a neighbour of the dying point
    # holds a hair less than its contribution; both stay equal bit for bit
    am = gaussian(0.5, 0.5, dim)
    spec = ModelSpec("bolker_pacala", a_plus=gaussian(3.0, 0.5, dim), a_minus=am, m=0.5)
    torus = Torus(400.0 if dim == 1 else 16.0, dim)

    def driven():
        rng = np.random.default_rng(80 + dim)
        state = SimulationState(spec, sample_poisson(torus, 2.0, rng))
        for _ in range(300):
            b, d = state.total_rates()
            state._apply_event(b, d, rng, EventLog(dim))
        return state, rng

    (state, rng), (ref, _) = driven(), driven()
    assert len(state.cfg) > BLOCK_ROWS

    def same():
        assert state.cfg.loads.tobytes() == ref.cfg.loads.tobytes()
        assert state.cfg._block.tobytes() == ref.cfg._block.tobytes()

    same()
    for _ in range(60):
        row = state.cfg.sample_row(rng.random())
        state.cfg._remove_point(row, am)
        remove_the_old_way(ref, row)
        same()
    assert state.cfg.clamps == 0
    row, last = 5, len(state.cfg) - 1
    rows, squares = state.cfg._neighbors(*state.cfg._in_box(state.cfg._pos[row]))
    dists = np.sqrt(squares)
    j = next(int(j) for j, r in zip(rows, dists) if 0.0 < r < 0.5 and j != last)
    contrib = am.profile(float(dists[rows.tolist().index(j)]))
    for each in (state, ref):
        loads = each.cfg.loads.copy()
        loads[j] = contrib * (1.0 - 1e-10)
        each.cfg.set_loads(loads)
    assert 0.0 < contrib - state.cfg.loads[j] < 1e-10  # far below LOAD_DRIFT_TOL
    same()
    state.cfg._remove_point(row, am)
    remove_the_old_way(ref, row)
    same()
    assert state.cfg.clamps == 1 and state.cfg.loads[j] == 0.0
    assert not np.signbit(state.cfg.loads[j]) and state.cfg.stale_sum() is None


def test_argmin_reads_the_least_value_minimum_reduce_gives():
    # _remove_point reads its least left load as left.item(left.argmin()):
    # the float np.minimum.reduce gives, NaN when any entry is NaN, and the
    # same answer to "below 0?", the only use of a least value of zero.
    # Between +0.0 and -0.0 np.minimum.reduce returns either sign,
    # depending on where they sit, and argmin the first of them
    nan = math.nan
    cases = [
        [3.0, 1.0, 1.0, 2.0],
        [-1e-17, 0.5, -1e-17],
        [nan, -1.0],
        [0.2, nan, -nan, -3.0],
        [-1.0, nan],
        [0.0, -0.0],
        [-0.0, 0.0],
        [-0.0] * 40 + [0.0] * 3,
        [0.5, -2e-16, -0.0, 0.0, -2e-16],
        [7.0],
    ]
    rng = np.random.default_rng(9)
    for size in (1, 2, 3, 7, 8, 9, 16, 33, 100):  # numpy's SIMD and tail loops
        draws = rng.choice([-2e-16, -0.0, 0.0, 0.25, nan, 1.0], size)
        cases += [draws.tolist(), np.abs(draws).tolist()]
    for values in cases:
        left = np.array(values)
        want = np.minimum.reduce(left)
        got = left.item(left.argmin())
        assert type(got) is float
        if math.isnan(want):
            assert math.isnan(got)
            continue
        assert got == want and (got < 0.0) == (want < 0.0)
        if want != 0.0:
            assert np.float64(got).tobytes() == want.tobytes()


def test_run_reports_its_clamps():
    # a triangular a- leaves a load that should be exactly 0 a rounding
    # residue below it now and then; run reports what the removals clamped
    am = triangular(0.3, 1.0, 2)
    spec = ModelSpec("migration", a_minus=am, m=0.2, b=grid_field())
    rng = np.random.default_rng(0)
    trace = run(spec, sample_poisson(Torus(12.0, 2), 1.0, rng), t_end=20.0, rng=rng)
    assert trace.clamps > 0 and 0.0 < trace.largest_clamp < 1e-12
    trace = run(migration_spec(), TorusConfiguration(Torus(10.0, 1)), 1.0, rng)
    assert (trace.clamps, trace.largest_clamp) == (0, 0.0)


def test_a_reused_store_reports_only_each_runs_own_clamps():
    # the model of test_run_reports_its_clamps through two runs on one
    # store: the store carries the counts, and the second trace reports
    # the clamps of its own removals alone, those of the same two runs
    # with the counts zeroed by hand between them
    am = triangular(0.3, 1.0, 2)
    spec = ModelSpec("migration", a_minus=am, m=0.2, b=grid_field())

    def two_runs(zeroed):
        rng = np.random.default_rng(0)
        cfg = sample_poisson(Torus(12.0, 2), 1.0, rng)
        first = run(spec, cfg, 20.0, rng)
        if zeroed:
            cfg.clamps, cfg.largest_clamp = 0, 0.0
        return first, run(spec, cfg, 20.0, rng), cfg

    (first, second, cfg), (_, own, _) = two_runs(False), two_runs(True)
    assert first.clamps > 0 and second.clamps > 0 and second.n_events > 0
    assert (second.clamps, second.largest_clamp) == (own.clamps, own.largest_clamp)
    assert (cfg.clamps, cfg.largest_clamp) == (second.clamps, second.largest_clamp)


def recounted_peak(start, births):
    """The largest population of a run, replayed event by event."""
    population = peak = start
    for birth in births.tolist():
        population += 1 if birth else -1
        peak = max(peak, population)
    return peak


def test_run_reports_its_peak_population():
    # the competition_1d model on a short box, from a start below its
    # equilibrium, so the population rises and falls; a run with no events
    # peaks at its start, and a run stopped by the guard past the guard
    a_plus, a_minus = gaussian(3.0, 0.5, 1), gaussian(0.5, 0.5, 1)
    spec = ModelSpec("bolker_pacala", a_plus=a_plus, a_minus=a_minus, m=0.5)
    rng = np.random.default_rng(4)
    cfg = sample_poisson(Torus(20.0, 1), 2.0, rng)
    start = len(cfg)
    trace = run(spec, cfg, 3.0, rng)
    births = trace.events.births
    assert trace.peak_population == recounted_peak(start, births)
    assert trace.peak_population > max(start, trace.final_population)
    cfg = sample_poisson(Torus(20.0, 1), 2.0, rng)
    start = len(cfg)
    assert run(spec, cfg, 0.0, rng).peak_population == start
    trace = run(spec, cfg, 3.0, rng, max_population=start + 5)
    assert trace.guard_tripped and trace.final_population == start + 6
    assert trace.peak_population == start + 6
    assert recounted_peak(start, trace.events.births) == start + 6


def test_a_narrow_kernel_on_a_wide_box_builds_and_audits():
    # cells of the radius would number 10^7 per axis in d=3, and flat cells
    # past 2^63; the grid keeps 2097151 per axis, the most that fit.  Pairs
    # 0.5e-4 apart along each axis and across the wrap carry loads of 0.5
    torus = Torus(1000.0, 3)
    am = triangular(1.0, 1e-4, 3)
    spec = ModelSpec("bolker_pacala", a_plus=am, a_minus=am, m=0.2)
    rng = np.random.default_rng(70)
    points = rng.uniform(0.0, 1000.0, (200, 3))
    close = points[:12].copy()
    for k in range(12):
        close[k, k % 3] += 0.5e-4
    close[0] = [0.25e-4, 500.0, 500.0]
    points[0] = [1000.0 - 0.25e-4, 500.0, 500.0]
    cfg = TorusConfiguration(torus, np.concatenate([points, close]))
    state = SimulationState(spec, cfg)
    assert cfg.grid == CellGrid(1000.0, 3, 2097151)
    want = np.zeros(212)
    want[:12] = want[200:] = 0.5
    np.testing.assert_allclose(cfg.loads, want, rtol=1e-8)  # coordinates near 1000
    state.audit()
    for _ in range(20):
        b, d = state.total_rates()
        state._apply_event(b, d, rng, EventLog(3))
    state.audit()


EVENT_PATH_MODELS = pytest.mark.parametrize(
    "variant, dim, side, density",
    [
        ("bolker_pacala", 1, 400.0, 1.0),
        ("bolker_pacala", 2, 20.0, 2.0),
        ("migration", 2, 12.0, 1.0),
        ("tabulated", 1, 400.0, 1.0),
        ("clamping", 2, 20.0, 2.0),
    ],
)


def profiled_events(variant, dim, side, density, on_call, on_c_call=None):
    """2000 events of the model under ``sys.setprofile``, which hands the
    code object of every Python-level call to ``on_call`` and, if given,
    every C function called from Python to ``on_c_call``; returns the
    state, its log and the population after each event.

    bolker_pacala keeps n > BLOCK_ROWS, so each death draw takes the
    two-level path; the migration model stays below it and draws from one
    block, and its immigrants come from a grid field.  "tabulated" is
    bolker_pacala in d=1 with tabulated a+ and a-, above BLOCK_ROWS too.
    "clamping" is migration with the triangular a- of
    ``test_run_reports_its_clamps``, above BLOCK_ROWS, whose removals clamp
    rounding residues."""
    if variant == "migration":
        spec = ModelSpec(variant, a_minus=gaussian(0.3, 0.5, 2), m=0.2, b=grid_field())
    elif variant == "clamping":
        spec = ModelSpec("migration", a_minus=triangular(0.3, 1.0, 2), m=0.2, b=grid_field())
    elif variant == "tabulated":
        a_plus = tabulated([0.0, 0.5, 1.0, 2.0], [0.6, 0.5, 0.3, 0.0])  # mass 1.25
        a_minus = tabulated([0.0, 0.5, 1.0], [1.0, 0.5, 0.0])  # mass 1
        spec = ModelSpec("bolker_pacala", a_plus=a_plus, a_minus=a_minus)
    elif dim == 1:
        spec = ModelSpec(variant, a_plus=gaussian(1, 1, 1), a_minus=triangular(1, 1, 1))
    else:
        a_plus, a_minus = triangular(3.0, 1.0, 2), gaussian(0.5, 0.5, 2)
        spec = ModelSpec(variant, a_plus=a_plus, a_minus=a_minus, m=0.5)
    rng = np.random.default_rng(0)
    state = SimulationState(spec, sample_poisson(Torus(side, dim), density, rng))
    log = EventLog(dim)

    def profile(frame, event, arg):
        if event == "call":
            on_call(frame.f_code)
        elif event == "c_call" and on_c_call is not None:
            on_c_call(arg)

    sizes = []
    sys.setprofile(profile)
    try:
        for _ in range(2000):
            b, d = state.total_rates()
            state.t += rng.exponential(1.0 / (b + d))
            state._apply_event(b, d, rng, log)
            sizes.append(state.population)
    finally:
        sys.setprofile(None)
    assert len(log) == 2000 and log.births.any() and not log.births.all()
    return state, log, sizes


@EVENT_PATH_MODELS
def test_event_path_calls_no_numpy_python_wrappers(variant, dim, side, density):
    calls = []

    def on_call(code):
        if code.co_filename.replace("\\", "/").endswith(NUMPY_WRAPPER_FILES):
            calls.append(code.co_name)

    state, log, sizes = profiled_events(variant, dim, side, density, on_call)
    assert calls == []
    if variant == "clamping":  # the clamp branch ran, and called no wrapper
        assert state.cfg.clamps > 0
    if variant != "migration":
        assert min(sizes) > BLOCK_ROWS
    else:
        assert max(sizes) <= BLOCK_ROWS
    state.audit()


@EVENT_PATH_MODELS
def test_event_path_wraps_and_files_a_point_in_one_pass(variant, dim, side, density):
    # the store's _in_box wraps a position and finds its flat cell in one
    # pass, exactly once per birth, whose query and insert both take that
    # (position, cell), and never for a death, which queries from the cell
    # its row was filed in; CellGrid serves the event path only by making
    # one stencil for each queried cell whose stencil wraps and the store
    # has not seen, and no event files the store
    calls = Counter()

    def on_call(code):
        if code.co_filename.replace("\\", "/").endswith("sbdsim/geometry.py"):
            calls[code.co_name] += 1

    state, log, _ = profiled_events(variant, dim, side, density, on_call)
    births = int(log.births.sum())
    assert calls["_neighbors"] == 2000 and calls["_insert"] == births
    assert calls["_in_box"] == births
    assert calls["_file"] == 0
    assert calls["cell_stencil"] == len(state.cfg._wrapped)
    assert all(isinstance(cell, int) for cell in state.cfg._wrapped)
    called = {name for name in calls if name in vars(CellGrid)}
    assert called <= {"cell_stencil", "offsets", "cell_size", "rings"}


def test_a_d1_run_keeps_a_stencil_only_for_the_end_cells(monkeypatch):
    # the competition_1d model at density 5 on a side of 2000, n ~ 10^4 on
    # 618 cells: some 2000 events query most cells, both end cells among
    # them, and the store keeps the stencils of the end cells alone, the
    # only ones within one ring of a grid edge
    spec = ModelSpec(
        "bolker_pacala", a_plus=gaussian(3.0, 0.5, 1), a_minus=gaussian(0.5, 0.5, 1), m=0.5
    )
    rng = np.random.default_rng(5)
    cfg = sample_poisson(Torus(2000.0, 1), 5.0, rng)
    queried = set()
    query = TorusConfiguration._neighbors

    def recorded(self, x, cell):
        queried.add(cell)
        return query(self, x, cell)

    monkeypatch.setattr(TorusConfiguration, "_neighbors", recorded)
    trace = run(spec, cfg, 0.033, rng)
    assert 10_000 < len(cfg) < 10_300 and 2000 < trace.n_events < 2100
    assert cfg.grid == CellGrid(2000.0, 1, 618) and len(queried) > 570
    assert {0, 617} <= queried and sorted(cfg._wrapped) == [0, 617]


@EVENT_PATH_MODELS
def test_event_path_reduces_only_a_new_load_and_a_total_of_many_blocks(
    variant, dim, side, density
):
    # a ufunc reduction costs a microsecond or two of set-up; the event
    # path makes at most one per event: a birth's, of its contributions,
    # which is both its new load and what its neighbours gain, and a
    # death's, of the loads it takes from its neighbours.  The load total
    # is kept, so reading it, with the store at one block or more, reduces
    # nothing, and the least left load of a death comes from argmin
    reductions = []

    def on_c_call(fn):
        if isinstance(getattr(fn, "__self__", None), np.ufunc) and fn.__name__ == "reduce":
            reductions.append(fn.__self__.__name__)

    state, log, sizes = profiled_events(
        variant, dim, side, density, lambda code: None, on_c_call
    )
    births = log.births
    before = np.array(sizes) - np.where(births, 1, -1)  # population at each draw
    many_blocks = int(np.count_nonzero(before > BLOCK_ROWS))
    assert int(births.sum()) <= len(reductions) <= len(sizes)  # one per event
    assert many_blocks == (0 if variant == "migration" else 2000)


def integer_columns_sha256(log):
    """sha256 of a log's birth flags, point ids and parent ids, as
    little-endian bytes: the columns no host's rounding can move."""
    h = hashlib.sha256()
    for col in (log.births.astype("u1"), log.points.astype("<i8"), log.parents.astype("<i8")):
        h.update(col.tobytes())
    return h.hexdigest()


def competition_1d_replica_0():
    cfg = load_config(CONFIGS / "competition_1d.json")
    rng = replica_rng(cfg.seed, 0)
    return run(cfg.model, initial_configuration(cfg, rng), cfg.t_end, rng)


def dense_d2():
    am = gaussian(0.5, 0.5, 2)
    spec = ModelSpec("bolker_pacala", a_plus=triangular(3.0, 1.0, 2), a_minus=am, m=0.5)
    rng = np.random.default_rng(0)
    return run(spec, sample_poisson(Torus(20.0, 2), 2.0, rng), 0.4, rng)


@pytest.mark.parametrize(
    "make, n_events, sha256",
    [
        (
            competition_1d_replica_0,
            5201,
            "cddabab362e45e89e8582e77bf5ada5dc6a471ac4731f6f13bb34c70dc8e0e62",
        ),
        (dense_d2, 2274, "06828487d73d8b2a63de31908d3650b4d810541b75be64a82536951d47dc4cd3"),
    ],
    ids=["competition_1d", "dense_d2"],
)
def test_seeded_trajectories_keep_their_integer_columns(make, n_events, sha256):
    # the pinned event count and integer columns of two seeded runs; a
    # change that moves traces on purpose updates the pin and says so.
    # Times and positions are left out: exp may round differently on
    # another host's libm
    trace = make()
    assert trace.n_events == n_events
    assert integer_columns_sha256(trace.events) == sha256


def test_a_seeded_d1_run_over_many_cells_keeps_its_floats():
    # the competition_1d model on 18 cells, n ~ 280, past one block: the
    # sha256 of the event times and positions and of the final positions
    # and loads, by id, as little-endian float64.  A new point's load sums
    # its neighbours' terms in the order the query returns them, ascending
    # cell and then slot, so a change of that order moves loads by an ulp,
    # which the integer pin above does not see.  Pinned with numpy's exp on x86-64: a host whose
    # exp rounds otherwise may need its own pin
    spec = ModelSpec(
        "bolker_pacala", a_plus=gaussian(3.0, 0.5, 1), a_minus=gaussian(0.5, 0.5, 1), m=0.5
    )
    rng = np.random.default_rng(2)
    cfg = sample_poisson(Torus(60.0, 1), 5.0, rng)
    assert cfg.grid is None and len(cfg) == 287
    trace = run(spec, cfg, 0.17, rng)
    assert cfg.grid == CellGrid(60.0, 1, 18) and trace.n_events == 260
    ids, positions = cfg.by_id()
    log = trace.events
    h = hashlib.sha256()
    loads = cfg.loads[cfg._id[: len(cfg)].argsort()]
    for col in (log.times, log.positions, positions, loads):
        h.update(col.astype("<f8").tobytes())
    assert len(ids) == 271
    pin = "e595040d4c8894a0a50ef12fb40ce1f99b93253716c450f5e264205c0a405fe7"
    assert h.hexdigest() == pin


def test_d1_loads_are_those_of_the_rooted_lengths(monkeypatch):
    # the benchmark's d=1 store at n~1e5: the competition_1d model at
    # density 5 on a side of 20000, seed 1, 100,010 points.  Its gaussian
    # a- takes squared lengths with no root; in d=1 each square is one
    # rounded square fl(x * x), whose correctly rounded root is |x|, so the
    # loads equal bit for bit those of the gaussian's closed form at the
    # roots
    raw = json.loads((CONFIGS / "competition_1d.json").read_text())
    raw.update(seed=1, replicas=1, torus={"L": 20000.0, "d": 1}, init={"poisson": 5.0})
    raw["schedule"] = {"t_end": 0.01, "burn_in": 0.0, "snapshot_times": [0.01]}
    raw["analysis"] = {"window": {"lo": [0.0], "hi": [20000.0]}}
    cfg = parse_config(raw)
    store = initial_configuration(cfg, replica_rng(cfg.seed, 0))
    assert len(store) == 100_010 and isinstance(cfg.model.a_minus, GaussianKernel)
    loads = SimulationState(cfg.model, store).cfg.loads.copy()
    def of_the_roots(kernel, s):
        r = np.sqrt(s)
        return kernel._peak * np.exp(-(r**2) / (2.0 * kernel.sigma**2))

    monkeypatch.setattr(GaussianKernel, "_profile_sq", of_the_roots)
    assert loads.tobytes() == store.kernel_sums(cfg.model.a_minus).tobytes()


def test_holding_times_exponential_ks():
    # pure immigration keeps the total rate constant, so inter-event gaps are
    # iid Exp(integral of b); with deaths on, rescaling each gap by the
    # prevailing total rate still gives iid Exp(1)
    rng = np.random.default_rng(11)
    trace = run(
        migration_spec(b=2.0), TorusConfiguration(Torus(10.0, 1)), t_end=100.0, rng=rng
    )
    gaps = np.diff([0.0] + [ev.time for ev in trace.events])
    assert stats.kstest(gaps, "expon", args=(0.0, 1.0 / 20.0)).pvalue > 0.001

    # total rate before an event: b = 20 plus m = 1 per living point
    spec = migration_spec(b=2.0, m=1.0)
    rng = np.random.default_rng(12)
    trace = run(spec, TorusConfiguration(Torus(10.0, 1)), t_end=200.0, rng=rng)
    scaled = []
    t_prev = 0.0
    population = 0
    for ev in trace.events[:3000]:
        scaled.append((ev.time - t_prev) * (20.0 + population))
        population += 1 if ev.kind == "birth" else -1
        t_prev = ev.time
    assert len(scaled) == 3000
    assert stats.kstest(np.array(scaled), "expon").pvalue > 0.001


def test_determinism_same_seed_same_trace():
    am = triangular(1.0, 1.0, 1)
    spec = ModelSpec("bolker_pacala", a_plus=triangular(1.5, 1.0, 1), a_minus=am, m=0.3)

    def one(seed):
        rng = np.random.default_rng(seed)
        cfg = sample_poisson(Torus(10.0, 1), 1.0, rng)
        return run(spec, cfg, t_end=5.0, rng=rng, snapshot_times=(5.0,))

    a, b = one(77), one(77)
    assert len(a.events) == len(b.events)
    for ea, eb in zip(a.events, b.events):
        assert ea.time == eb.time and ea.kind == eb.kind and ea.point == eb.point
        np.testing.assert_array_equal(ea.position, eb.position)
    np.testing.assert_array_equal(
        a.snapshots[-1].positions, b.snapshots[-1].positions
    )
    c = one(78)
    assert [e.time for e in c.events[:5]] != [e.time for e in a.events[:5]]


@pytest.mark.parametrize("dim, t_end", [(1, 10.0), (2, 0.6)])
def test_bulk_initial_load_gives_the_sequential_trace(dim, t_end):
    # sample_poisson builds the store with its points, filed into cells from
    # scratch when the run starts; inserting the same draws one at a time
    # into a store filed first must give the same run, event for event,
    # with every cache audited after each event
    am = gaussian(0.5, 0.2, dim)
    spec = ModelSpec("bolker_pacala", a_plus=gaussian(1.0, 0.5, dim), a_minus=am, m=0.5)
    torus = Torus(9.0, dim)
    rng_bulk, rng_seq = np.random.default_rng(21), np.random.default_rng(21)
    bulk = sample_poisson(torus, 2.0, rng_bulk)
    n = rng_seq.poisson(2.0 * torus.volume)
    seq = TorusConfiguration(torus)
    file_on(seq, am.cutoff_radius())
    for x in rng_seq.uniform(0.0, torus.side, (n, dim)):
        insert_point(seq, x)
    assert len(bulk) == len(seq) > 0 and bulk.grid is None
    a = run(spec, bulk, t_end=t_end, rng=rng_bulk, audit_every=1)
    b = run(spec, seq, t_end=t_end, rng=rng_seq, audit_every=1)
    assert len(a.events) == len(b.events) > 100
    for ea, eb in zip(a.events, b.events):
        assert (ea.time, ea.kind, ea.point) == (eb.time, eb.kind, eb.point)
        assert ea.parent == eb.parent
        np.testing.assert_array_equal(ea.position, eb.position)
    assert bulk.grid == seq.grid == CellGrid.for_radius(torus, am.cutoff_radius())


# -- event log -----------------------------------------------------------------------


def seeded_log_run(variant, dim, seed=31):
    """A seeded run with births and deaths, its initial points by id, and
    its final snapshot."""
    if variant == "bolker_pacala":
        spec = ModelSpec(
            "bolker_pacala",
            a_plus=gaussian(1.5, 0.5, dim),
            a_minus=gaussian(0.5, 0.5, dim),
            m=0.5,
        )
        t_end = 4.0
    else:
        spec = migration_spec(b=2.0, m=0.5, a_minus=triangular(0.5, 1.0, dim))
        t_end = 2.0
    torus = Torus(10.0, dim)
    rng = np.random.default_rng(seed)
    cfg = sample_poisson(torus, 2.0, rng)
    ids, positions = cfg.by_id()
    start = dict(zip(ids.tolist(), positions))
    trace = run(spec, cfg, t_end=t_end, rng=rng, snapshot_times=(t_end,))
    return trace, start


def event_fields(ev):
    return (ev.time, ev.kind, ev.position.tolist(), ev.point, ev.parent)


@pytest.mark.parametrize("variant, dim", [("bolker_pacala", 1), ("migration", 2)])
def test_event_log_columns_match_events_and_replay_to_the_final_state(variant, dim):
    trace, alive = seeded_log_run(variant, dim)
    log = trace.events
    events = list(log)
    assert len(events) == len(log) == trace.n_events > 100
    for ev in events:
        assert type(ev.time) is float and type(ev.point) is int
        assert ev.kind in ("birth", "death")
        assert ev.position.shape == (dim,) and ev.position.dtype == np.float64
        assert ev.parent is None or type(ev.parent) is int
    births = [ev.kind == "birth" for ev in events]
    assert 0 < sum(births) < len(events)
    np.testing.assert_array_equal(log.times, [ev.time for ev in events])
    np.testing.assert_array_equal(log.births, births)
    np.testing.assert_array_equal(log.positions, [ev.position for ev in events])
    np.testing.assert_array_equal(log.points, [ev.point for ev in events])
    np.testing.assert_array_equal(
        log.parents, [-1 if ev.parent is None else ev.parent for ev in events]
    )
    # replaying the events on the initial points gives the final snapshot,
    # so every recorded id, parent and position is the one the store held
    for ev in events:
        if ev.kind == "death":
            assert ev.parent is None
            np.testing.assert_array_equal(alive.pop(ev.point), ev.position)
            continue
        if variant == "migration":
            assert ev.parent is None
        else:
            assert ev.parent in alive
        assert ev.point not in alive
        alive[ev.point] = ev.position
    final = trace.snapshots[-1]
    assert sorted(alive) == final.ids.tolist()
    np.testing.assert_array_equal(
        np.reshape([alive[i] for i in sorted(alive)], (-1, dim)), final.positions
    )


def test_event_log_empty_indexing_and_slices():
    spec = ModelSpec("bolker_pacala", a_plus=triangular(1.0, 1.0, 1), m=1.0)
    empty = run(spec, TorusConfiguration(Torus(10.0, 1)), 1.0, np.random.default_rng(0))
    empty = empty.events
    assert len(empty) == 0 and list(empty) == [] and empty[:] == []
    for i in (0, -1):
        with pytest.raises(IndexError):
            empty[i]
    assert empty.times.shape == empty.points.shape == empty.parents.shape == (0,)
    assert empty.births.dtype == bool and empty.positions.shape == (0, 1)

    log = seeded_log_run("migration", 2)[0].events
    events = list(log)
    n = len(log)
    assert [event_fields(log[i]) for i in range(n)] == [event_fields(e) for e in events]
    for i in (-1, -2, -n):
        assert event_fields(log[i]) == event_fields(events[i])
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            log[i]
    slices = (
        slice(None, 3),
        slice(-3, None),
        slice(None, None, -1),
        slice(2, 40, 3),
        slice(5, 2),
        slice(-n - 10, n + 10),
    )
    for s in slices:
        got = log[s]
        assert isinstance(got, list)
        assert [event_fields(e) for e in got] == [event_fields(e) for e in events[s]]


def test_event_log_columns_are_copies_that_let_the_log_grow():
    log = EventLog(2)
    log._append(0.5, True, np.array([1.0, 2.0]), 7, 3)
    times, positions, parents = log.times, log.positions, log.parents
    for i in range(10_000):  # many resizes while the copies are held
        log._append(1.0 + i, False, np.array([3.0, 4.0]), i, -1)
    assert len(log) == 10_001
    np.testing.assert_array_equal(times, [0.5])
    np.testing.assert_array_equal(positions, [[1.0, 2.0]])
    np.testing.assert_array_equal(parents, [3])
    assert event_fields(log[0]) == (0.5, "birth", [1.0, 2.0], 7, 3)
    assert event_fields(log[-1]) == (10_000.0, "death", [3.0, 4.0], 9_999, None)


def test_event_log_holds_at_most_64_bytes_per_event():
    # five columns take 33 bytes per event in d=1; one Event object with its
    # own position array took about 310
    spec = ModelSpec(
        "bolker_pacala", a_plus=gaussian(3.0, 0.5, 1), a_minus=gaussian(0.5, 0.5, 1), m=0.5
    )
    rng = np.random.default_rng(41)
    cfg = sample_poisson(Torus(20.0, 1), 5.0, rng)
    tracemalloc.start()
    try:
        trace = run(spec, cfg, t_end=10.0, rng=rng)
        n = trace.n_events
        before = tracemalloc.get_traced_memory()[0]
        del trace
        held = before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert n > 5000
    assert held / n <= 64


# -- oracle comparisons -------------------------------------------------------------


def test_surgailis_density_transient():
    rng = np.random.default_rng(13)
    torus = Torus(20.0, 1)
    finals = []
    for _ in range(60):
        cfg = sample_poisson(torus, 1.0, rng)
        trace = run(migration_spec(b=0.5), cfg, t_end=2.0, rng=rng, snapshot_times=(2.0,))
        finals.append(trace.snapshots[-1].positions)
    rho, se = density(finals, torus)
    assert abs(rho - surgailis_density(1.0, 0.5, 0.0, 2.0)) < 3.0 * se


def test_surgailis_density_relaxation():
    rng = np.random.default_rng(14)
    torus = Torus(20.0, 1)
    finals = []
    for _ in range(60):
        cfg = sample_poisson(torus, 1.0, rng)
        trace = run(
            migration_spec(b=1.0, m=2.0), cfg, t_end=6.0, rng=rng, snapshot_times=(6.0,)
        )
        finals.append(trace.snapshots[-1].positions)
    rho, se = density(finals, torus)
    assert abs(rho - surgailis_density(1.0, 1.0, 2.0, 6.0)) < 3.0 * se


def test_contact_model_extinction():
    ap = triangular(2.0, 1.0, 1)  # mass 1: m = 1.5 is strictly supercritical mortality
    spec = ModelSpec("bolker_pacala", a_plus=ap, m=1.5 * ap.mass())
    rng = np.random.default_rng(15)
    extinct = 0
    for _ in range(40):
        cfg = cfg_with_points(Torus(10.0, 1), [[float(i) + 0.5] for i in range(5)])
        trace = run(spec, cfg, t_end=20.0 / ap.mass(), rng=rng)
        extinct += trace.absorbed
    assert extinct / 40 >= 0.9


def test_bp_density_near_meanfield_fixed_point():
    # population ~100 keeps demographic noise small; weak per-pair competition
    # keeps the logistic closure honest to ~15%
    ap = gaussian(3.0, 0.5, 1)
    am = gaussian(0.5, 0.5, 1)
    m = 0.5
    spec = ModelSpec("bolker_pacala", a_plus=ap, a_minus=am, m=m)
    target = bp_meanfield_density(5.0, ap.mass(), am.mass(), m, 1e9)
    assert target == pytest.approx(5.0)
    rng = np.random.default_rng(16)
    torus = Torus(20.0, 1)
    finals = []
    for _ in range(12):
        cfg = sample_poisson(torus, 5.0, rng)
        trace = run(spec, cfg, t_end=8.0, rng=rng, snapshot_times=(6.0, 7.0, 8.0))
        finals.extend(s.positions for s in trace.snapshots)
    rho, _ = density(finals, torus)
    assert abs(rho - target) / target < 0.15

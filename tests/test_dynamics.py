import hashlib
import json
import math
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy import linalg, stats

from conftest import NUMPY_WRAPPER_FILES, draw_from, file_on, insert_point, live_rows
from sbdsim.config import initial_configuration, load_config, parse_config, replica_rng
from sbdsim import dynamics
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
    CellGrid,
    CellIndex,
    PairTerms,
    Torus,
    TorusConfiguration,
    Unloaded,
    Window,
    load_scale,
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
from sbdsim.statistics import density, factorial_moments

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
    d = spec.m + state.cfg.loads / load_scale(am)
    np.testing.assert_allclose(d, 0.5 + am.profile(0.5))
    state.audit()


@pytest.mark.parametrize(
    "m, a_minus",
    [(0.5, gaussian(0.05, 0.3, 1)), (0.0, gaussian(0.05, 0.3, 1)), (0.5, None)],
)
def test_block_draw_matches_full_cumsum(m, a_minus):
    # clustered points give skewed loads, and the scattered ones that are
    # isolated have load 0; a short run leaves the loads as the events made
    # them, over eight blocks of rows, in a store on the cell index.  A bare
    # store of the same rows and loads weighs the loads alone, whatever m:
    # with the same bound, both keep the same rows from the same draws,
    # each of load above 0, and a scripted trial keeps its row exactly when
    # its target falls below the row's load; a rejection draws a fresh row
    # and target.  With no a- every load is 0 and there is nothing to draw
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

    loads = cfg.loads.copy()
    total = cfg.load_total()
    assert total == np.cumsum(loads)[-1]
    if a_minus is None:
        assert total == 0
        return
    assert type(cfg.upkeep) is CellIndex and (loads == 0).any()
    bare = TorusConfiguration(torus, cfg._pos[:n])
    bare.set_loads(loads)
    cfg.set_loads(loads)  # the bound recomputed as the bare store's
    assert type(bare.upkeep) is Unloaded and bare.load_total() == total
    assert bare.bound == cfg.bound == loads.max()
    for seed in range(2000):
        row = bare.sample_row(BlockDraws(), np.random.default_rng(seed))
        assert row == cfg.sample_row(BlockDraws(), np.random.default_rng(seed))
        assert loads[row] > 0
    most = int(loads.argmax())
    for row, target in zip(rng.integers(0, n, 10_000).tolist(),
                           rng.integers(0, bare.bound, 10_000).tolist()):  # fmt: skip
        if target < loads[row]:
            assert draw_from(bare, (row, target)) == row
        else:
            assert draw_from(bare, (row, target), (most, 0)) == most


def test_audit_follows_the_load_bound_across_boundaries():
    # grow from 240 points past the first block boundary (256), where the
    # store switches to the cell index and keeps its load bound, and a
    # capacity doubling (256 -> 512 rows), then shrink back below it,
    # recomputing every load and checking each against the bound after
    # each event
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
    assert type(cfg.upkeep) is CellIndex  # the index stays, at every size


def test_audit_follows_a_store_that_grows_past_one_block_from_empty():
    # a d=1 migration run with triangular a- from an empty box whose
    # population settles near BLOCK_ROWS (100 immigrants per unit time
    # against deaths at 0.2 + about 0.00074 n each), so it crosses the
    # block edge up and down again and again: the loads, and the load bound
    # of the cell index the first upward crossing files, pass the audit after
    # every event
    spec = migration_spec(b=1.0, m=0.2, a_minus=triangular(0.074, 1.0, 1))
    cfg = TorusConfiguration(Torus(100.0, 1))
    trace = run(spec, cfg, 20.0, np.random.default_rng(33), audit_every=1)
    sizes = np.cumsum(np.where(trace.events.births, 1, -1))
    upward = np.count_nonzero((sizes[1:] > BLOCK_ROWS) & (sizes[:-1] <= BLOCK_ROWS))
    assert trace.n_events > 1000 and upward >= 3


def test_the_load_bound_follows_a_crash_of_the_population():
    # the competition_1d model from density 50, ten times its equilibrium,
    # on a side of 80: the population crashes to about 5 per unit length,
    # still past one block, and the largest load falls with it.  No death
    # lowers the load bound, but a draw recomputes it once the draws since
    # the last recompute reach the population then, so it ends within 2x
    # the largest load
    spec = ModelSpec(
        "bolker_pacala", a_plus=gaussian(3.0, 0.5, 1), a_minus=gaussian(0.5, 0.5, 1), m=0.5
    )
    rng = np.random.default_rng(3)
    cfg = sample_poisson(Torus(80.0, 1), 50.0, rng)
    start = int(SimulationState(spec, cfg).cfg.bound)
    run(spec, cfg, 2.0, rng)
    top = int(cfg.loads.max())
    assert type(cfg.upkeep) is CellIndex and 300 < len(cfg) < 600
    assert top < start / 4
    assert cfg.bound <= 2 * top


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


def first_event_store(case):
    """(spec, torus, points) of one law-of-one-event case, each with m > 0
    and unequal loads.  "few": bolker_pacala on 5 points, so that a birth
    weight of n - 1 in place of n moves the birth channel by a fifth.
    "matrix": bolker_pacala on 50 points, a store that keeps the pair-term
    matrix, rows 20..27 in a cluster of large loads.  "index": migration on
    600 points, a store on the cell index, whose competition draw is by
    stochastic acceptance against the largest load; rows 240..271 and
    496..527 lie in two clusters of large loads, and about 2% of the rows
    have load 0.  "loose": the same on a side of 120, where every row has a
    load above 0, drawn against a bound 4 times the largest load.
    "loose_matrix": the "matrix" store, one of whose rows has load 0, drawn
    against a bound 4 times the largest load."""
    a_plus, a_minus = gaussian(1.0, 0.5, 1), triangular(1.0, 1.0, 1)
    if case == "few":
        spec = ModelSpec("bolker_pacala", a_plus=a_plus, a_minus=a_minus.scaled(2.0), m=0.3)
        return spec, Torus(10.0, 1), [[1.0], [1.4], [1.9], [4.0], [7.5]]
    rng = np.random.default_rng(41)
    if case in ("matrix", "loose_matrix"):
        spec = ModelSpec("bolker_pacala", a_plus=a_plus, a_minus=a_minus, m=0.5)
        points = rng.uniform(0.0, 25.0, 50)
        points[20:28] = 12.0 + 0.05 * np.arange(8)
        return spec, Torus(25.0, 1), points[:, None]
    spec = migration_spec(b=0.5, m=0.5, a_minus=a_minus)
    side = 300.0 if case == "index" else 120.0
    points = rng.uniform(0.0, side, 600)
    points[240:272] = side / 3.0 + 0.02 * np.arange(32)
    points[496:528] = 2.0 * side / 3.0 + 0.02 * np.arange(32)
    return spec, Torus(side, 1), points[:, None]


def first_event_law(spec, torus, points):
    """The probability of each first event from ``points``, by the rates of
    the model, not through the store: a birth, (B over B + D), then the
    death of each row i, (m + L_i) over B + D.  B is n mass(a+) or the
    integral of b; L_i is a- summed over the other points within its
    cutoff, by a plain scan of the minimum-image distances of every pair."""
    x = np.asarray(points, dtype=float)
    n, a_minus = len(x), spec.a_minus
    gap = np.abs(x[:, None, :] - x[None, :, :])
    gap = np.minimum(gap, torus.side - gap)
    r = np.sqrt((gap**2).sum(axis=2))
    terms = np.where(r <= a_minus.cutoff_radius(), a_minus.profile(r), 0.0)
    np.fill_diagonal(terms, 0.0)
    if spec.variant == "migration":
        births = spec.b.integral(torus.side, torus.dim)
    else:
        births = n * spec.a_plus.mass()
    rates = np.concatenate([[births], spec.m + terms.sum(axis=1)])
    return rates / rates.sum()


def first_events(spec, torus, points, trials, slack=1):
    """The log of ``trials`` first events from one store of ``points``, each
    drawn by ``_apply_event`` with fresh draws from its own seed.  The store
    is left as it was: a birth returns id -1 and its position unwrapped, and
    a death its row as the point's id.  A ``slack`` above 1 multiplies the
    load bound of the store, in either regime, for every trial."""
    state = SimulationState(spec, TorusConfiguration(torus, points))
    b, d = state.total_rates()
    cfg, log = state.cfg, EventLog(torus.dim)
    if slack > 1:  # no draw recomputes the bound, and no draw can hang
        assert cfg.load_total()
        cfg.bound *= slack
        cfg._due = trials
    cfg._add_point = lambda position, *a_minus: (-1, np.asarray(position, dtype=float))
    cfg._remove_point = lambda row, *a_minus: (row, np.zeros(torus.dim), None)
    for trial in range(trials):
        state._draws = BlockDraws()
        state._apply_event(b, d, np.random.default_rng([42, trial]), log)
    return log


def consecutive_bins(expected, least=5.0):
    """The first cell of each bin of consecutive cells expected ``least``
    times or more in all; a short remainder joins the last bin."""
    starts, held = [], least
    for cell, e in enumerate(expected.tolist()):
        if held >= least:
            starts.append(cell)
            held = 0.0
        held += e
    if held < least and len(starts) > 1:
        starts.pop()
    return starts


@pytest.mark.parametrize(
    "case, trials",
    [
        ("few", 10_000),
        ("matrix", 20_000),
        ("index", 20_000),
        ("loose", 20_000),
        ("loose_matrix", 20_000),
    ],
)
def test_the_first_event_follows_the_rates_of_the_model(case, trials):
    # the counts of each first event, a birth or the death of each row, from
    # one store with unequal loads, against the law the rates give, by a
    # chi-square test of bins of consecutive rows, each expected 5 times or
    # more.  A bolker_pacala birth's parent is a uniform row, and its
    # displacement from the parent has the law of a+, 1 - mass_beyond(r) /
    # mass below r, by a KS test
    spec, torus, points = first_event_store(case)
    law = first_event_law(spec, torus, points)
    slack = 4 if case.startswith("loose") else 1
    log = first_events(spec, torus, points, trials, slack=slack)
    births = log.births
    counts = np.bincount(np.where(births, 0, log.points + 1), minlength=law.size)
    assert counts.size == law.size and counts.sum() == trials
    starts = consecutive_bins(law * trials)
    observed = np.add.reduceat(counts, starts)
    expected = np.add.reduceat(law * trials, starts)
    assert stats.chisquare(observed, expected).pvalue > 1e-3
    if spec.variant == "migration":
        return
    parents = log.parents[births]
    assert stats.chisquare(np.bincount(parents, minlength=len(points))).pvalue > 1e-3
    r = np.abs(log.positions[births, 0] - np.asarray(points)[parents, 0])
    a_plus = spec.a_plus
    below = np.vectorize(lambda v: 1.0 - a_plus.mass_beyond(v) / a_plus.mass())
    assert stats.kstest(r, below).pvalue > 1e-3


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


def test_a_load_total_at_the_limit_trips_the_guard(monkeypatch):
    # the load total, in quanta, is checked once per loop iteration against
    # LOAD_LIMIT, here patched down to the total of 3 pairs at distance 0:
    # the run stops with the guard tripped, as at the population cap, and
    # simulate exits 4; just above it the run goes on
    am = triangular(1.0, 1.0, 1)
    spec = ModelSpec("bolker_pacala", a_plus=triangular(2.0, 0.5, 1), a_minus=am, m=0.1)
    scale = load_scale(am)
    for limit, tripped in ((6 * scale, True), (1e6 * scale, False)):
        monkeypatch.setattr(dynamics, "LOAD_LIMIT", int(limit))
        cfg = cfg_with_points(Torus(10.0, 1), [[5.0]] * 3)
        assert cfg.load_total() == 0
        trace = run(spec, cfg, 2.0, np.random.default_rng(9), snapshot_times=(2.0,))
        assert trace.guard_tripped is tripped and not trace.absorbed
        if tripped:
            assert cfg.load_total() >= limit and trace.snapshots == []
            assert trace.n_events == 0 and trace.final_time == 0.0


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
    # a cutoff in (3/8 side, side/2] on a store of more than one block,
    # filed by hand on 8 cells of side / 8, reaches 4 cells, an offset that
    # is its own negative modulo the grid; the loads recomputed by the half
    # pair walk after every event must match the incremental ones
    side = 8.0
    am = triangular(0.01, cutoff, dim)
    spec = ModelSpec("bolker_pacala", a_plus=triangular(2.0, 1.0, dim), a_minus=am, m=0.2)
    rng = np.random.default_rng(40 + dim + int(cutoff))
    cfg = sample_poisson(Torus(side, dim), 300.0 / side**dim, rng)
    assert len(cfg) > BLOCK_ROWS
    state = SimulationState(spec, cfg)
    file_on(cfg, cutoff, state._a_minus, CellGrid(side, dim, 8))  # refiled by hand
    log = EventLog(dim)
    while True:
        b, d = state.total_rates()
        state.t += rng.exponential(1.0 / (b + d))
        if state.t > 0.2:
            break
        state._apply_event(b, d, rng, log)
        state.audit()
    assert len(log) > 100 and len(cfg) <= 10**6
    assert cfg.upkeep.grid == CellGrid(side, dim, 8) and 4 in cfg.upkeep.grid.offsets(cutoff)


@pytest.mark.parametrize("dim, weight", [(1, 0.3), (2, 2.0)])
def test_audited_run_gives_the_unaudited_trace(dim, weight):
    # the audit after every event recomputes the loads of a store of more
    # than one block without refiling a row, so the audited run gives the
    # unaudited one's trace and loads, on the grid the cutoff picks
    am = gaussian(weight, 0.5, dim)
    spec = ModelSpec("bolker_pacala", a_plus=triangular(2.0, 1.0, dim), a_minus=am, m=0.2)
    torus = Torus(8.0, dim)
    logs, loads = [], []
    for audit_every in (1, 0):
        rng = np.random.default_rng(50 + dim)
        cfg = sample_poisson(torus, 300.0 / torus.volume, rng)
        assert len(cfg) > BLOCK_ROWS
        logs.append(run(spec, cfg, t_end=0.3, rng=rng, audit_every=audit_every).events)
        loads.append(cfg.loads.copy())
        assert cfg.upkeep.grid == CellGrid.for_radius(torus, am.cutoff_radius())
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
    index = cfg.upkeep
    return index._cell[:n].tolist(), index._slot[:n].tolist(), cfg.loads.tolist(), cells


@pytest.mark.parametrize("dim", [1, 2])
def test_audit_leaves_the_index_bit_identical(dim):
    # after 300 events whose removals left cells listing their rows out of
    # ascending order, an audit checks the index of a store of more than
    # one block and recomputes the loads but changes no cell array, slot,
    # cell entry or cached load
    am = gaussian(0.5, 0.5, dim)
    spec = ModelSpec("bolker_pacala", a_plus=triangular(2.0, 1.0, dim), a_minus=am, m=0.2)
    torus = Torus(8.0, dim)
    rng = np.random.default_rng(60 + dim)
    state = SimulationState(spec, sample_poisson(torus, 300.0 / torus.volume, rng))
    assert len(state.cfg) > BLOCK_ROWS and state.cfg.upkeep.grid is not None
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


@pytest.mark.parametrize(
    "variant", ["bolker_pacala", "migration", "triangular_a_plus", "tabulated_a_plus"]
)
def test_run_draws_one_waiting_time_per_loop_iteration(variant):
    # the benchmark splits the event loop into events at the waiting-time
    # draws: one exponential per event, one more when the run ends at t_end
    # (the draw that passes it), none more when the guard stops it, and
    # none at all for a start above the guard.  bolker_pacala runs with each
    # family of a+ whose radius the kernel draws itself, so no displacement
    # draw calls rng.exponential
    dim = 1
    if variant == "migration":
        spec = migration_spec(b=2.0, m=0.5, a_minus=triangular(0.5, 1.0, dim))
    else:
        a_plus = {
            "triangular_a_plus": triangular(1.5, 1.0, dim),
            "tabulated_a_plus": tabulated([0.0, 0.5, 1.0, 2.0], [0.6, 0.5, 0.3, 0.0], dim),
        }.get(variant, gaussian(1.5, 0.5, dim))
        am = gaussian(0.5, 0.5, dim)
        spec = ModelSpec("bolker_pacala", a_plus=a_plus, a_minus=am, m=0.5)
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
    # their positions with rng.uniform.  A start of about 45 points keeps
    # the bolker_pacala run alive past 2 DRAW_BLOCK events
    if variant == "migration":
        spec = migration_spec(b=2.0, m=0.5, a_minus=triangular(0.5, 1.0, 1))
    else:
        am = gaussian(0.5, 0.5, 1)
        spec = ModelSpec(variant, a_plus=gaussian(1.5, 0.5, 1), a_minus=am, m=0.5)
    base = np.random.default_rng(5)
    cfg = sample_poisson(Torus(20.0, 1), 2.0, base)
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


def test_a_run_from_an_empty_store_keeps_int64_loads_and_an_int_root():
    # the rate caches of an empty store are built from no rows; the load
    # column stays int64, as np.bincount, which sums in float64, would not
    # keep it, and the load total and the load bound Python ints, the
    # total the exact sum of the column, through a run past one block and a
    # doubling
    spec = migration_spec(b=2.0, m=0.2, a_minus=triangular(0.07, 1.0, 1))
    cfg = TorusConfiguration(Torus(100.0, 1))
    assert cfg._load.dtype == np.int64
    trace = run(spec, cfg, 3.0, np.random.default_rng(3), audit_every=25)
    assert trace.n_events > 500 and len(cfg) > BLOCK_ROWS and cfg._load.size == 512
    assert cfg._load.dtype == np.int64 and type(cfg.bound) is int
    assert type(cfg.load_total()) is int and cfg.load_total() == int(cfg.loads.sum())


def test_migration_without_competition_builds_no_index():
    # with no a- nothing asks the store for a radius: it keeps its columns
    # alone, and the audit after every event finds nothing to fault
    rng = np.random.default_rng(42)
    cfg = sample_poisson(Torus(10.0, 2), 1.0, rng)
    trace = run(migration_spec(b=2.0, m=0.5), cfg, t_end=5.0, rng=rng, audit_every=1)
    assert trace.events.births.any() and not trace.events.births.all()
    assert type(cfg.upkeep) is Unloaded and cfg.upkeep.fault(cfg) is None


def test_audit_catches_corruption():
    am = triangular(1.0, 1.0, 1)
    spec = ModelSpec("bolker_pacala", a_plus=triangular(1.0, 1.0, 1), a_minus=am, m=0.2)
    state = SimulationState(spec, cfg_with_points(Torus(10.0, 1), [[5.0], [5.5]]))
    state.audit()
    state.cfg.loads[0] += 1
    with pytest.raises(AuditError):
        state.audit()


def test_audit_catches_a_load_above_the_bound():
    # the pair at 5.0 and 5.5, and lone points 2 apart, enough for more than
    # one block: a store past one block keeps the cell index, and its load
    # bound is the pair's load of 2^29 quanta.  A bound one quantum
    # below it is a fault that names the bound
    am = triangular(1.0, 1.0, 1)
    spec = ModelSpec("bolker_pacala", a_plus=triangular(1.0, 1.0, 1), a_minus=am, m=0.2)
    points = [[5.0], [5.5]] + [[10.0 + 2.0 * k] for k in range(BLOCK_ROWS)]
    state = SimulationState(spec, cfg_with_points(Torus(600.0, 1), points))
    assert len(state.cfg) > BLOCK_ROWS and state.cfg.load_total() == load_scale(am)
    assert state.cfg.bound == 2**29
    state.audit()
    state.cfg.bound -= 1
    want = f"load of point 0 is {2**29} quanta, above the load bound {2**29 - 1}"
    with pytest.raises(AuditError, match=want):
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
    state.cfg._total += 1  # one quantum
    with pytest.raises(AuditError, match="load total drifted"):
        state.audit()


def test_the_load_total_is_exactly_0_once_the_store_is_empty():
    # a population that crosses the block edge down to extinction leaves
    # its running total the int 0, and the next birth adds to it from
    # there; every event is audited, the total with it
    rng = np.random.default_rng(35)
    am = triangular(0.5, 1.0, 1)
    cfg = cfg_with_points(Torus(60.0, 1), rng.uniform(0.0, 60.0, (300, 1)))
    spec = ModelSpec("bolker_pacala", a_plus=triangular(0.1, 1.0, 1), a_minus=am, m=2.0)
    trace = run(spec, cfg, 10.0, rng, audit_every=1)
    assert trace.absorbed and len(cfg) == 0
    assert type(cfg.load_total()) is int and cfg.load_total() == 0
    insert_point(cfg, [3.0], 5)
    assert cfg.load_total() == 5


@pytest.mark.parametrize("column, delta", [("load", 1), ("load", -1), ("bound", 1)])
def test_audit_catches_a_cache_off_by_one_quantum(column, delta):
    # loads are whole quanta, which the audit compares with their
    # recomputation for equality: one quantum either way is a fault.  So is
    # a load bound one quantum below the largest load
    am = triangular(1.0, 1.0, 1)
    spec = ModelSpec("bolker_pacala", a_plus=triangular(1.0, 1.0, 1), a_minus=am, m=0.2)
    rng = np.random.default_rng(31)
    cfg = TorusConfiguration(Torus(40.0, 1), rng.uniform(0.0, 40.0, (300, 1)))
    assert len(cfg) > BLOCK_ROWS
    state = SimulationState(spec, cfg)
    state.audit()
    if column == "load":
        cfg._load[3] += delta
        match = f"point {cfg.point_at(3)} drifted"
    else:
        cfg.bound -= delta
        match = f"above the load bound {cfg.bound}"
    with pytest.raises(AuditError, match=match):
        state.audit()


def misfile(cfg, how):
    """Corrupt the cell index of a store with two or more points in one cell
    in one way; return the id of the point the audit must name."""
    cell, rows = next((c, rows) for c, rows in live_rows(cfg).items() if rows.size >= 2)
    k = rows.size
    first, second, last = int(rows[0]), int(rows[1]), int(rows[k - 1])
    if how == "cell entry":
        cfg.upkeep._cell[first] ^= 1  # a neighbouring flat cell
    elif how == "missing":
        cfg.upkeep._fill[cell] = k - 1
        return cfg.point_at(last)
    elif how == "duplicate":
        cfg.upkeep._rows[cell, k] = first
        cfg.upkeep._fill[cell] = k + 1
    elif how == "slot":
        slots = cfg.upkeep._slot
        slots[first], slots[second] = slots[second], slots[first]
        return cfg.point_at(min(first, second))
    elif how == "other cell":  # at its slot, but in another cell's array
        other = next(o for c, o in live_rows(cfg).items() if c != cell)
        rows[0], other[0] = other[0], rows[0]
        return cfg.point_at(min(first, int(rows[0])))
    elif how == "moved":  # one cell along every axis
        cfg._pos[first] = (cfg._pos[first] + cfg.upkeep.grid.cell_size) % cfg.torus.side
    return cfg.point_at(first)


@pytest.mark.parametrize(
    "how", ["cell entry", "missing", "duplicate", "slot", "other cell", "moved"]
)
def test_audit_catches_cell_index_corruption(how):
    # the cutoff 4 files the points of a store of more than one block on 2
    # cells of 5 per axis, one cutoff wide, and reaches 1 cell, an offset
    # that is its own negative
    am = triangular(1.0, 4.0, 2)
    spec = ModelSpec("bolker_pacala", a_plus=triangular(1.0, 1.0, 2), a_minus=am, m=0.2)
    rng = np.random.default_rng(12)
    cfg = cfg_with_points(Torus(10.0, 2), rng.uniform(0.0, 10.0, (300, 2)))
    assert cfg.upkeep.grid is None
    state = SimulationState(spec, cfg)
    assert cfg.upkeep.grid == CellGrid(10.0, 2, 2)
    state.audit()
    pid = misfile(cfg, how)
    with pytest.raises(AuditError, match=f"cell index .*: point {pid} "):
        state.audit()


def corrupt_terms(terms, how):
    """Corrupt a pair-term matrix of many positive pairs in one way."""
    if how == "diagonal":
        terms[5, 5] = 1
        return
    i, j = map(int, np.argwhere(np.triu(terms) > 1)[0])
    if how == "one side":
        terms[i, j] += 1
    elif how == "both sides":
        terms[i, j] += 1
        terms[j, i] += 1
    else:  # "row sums kept": +1 on two pairs, -1 on the two that cross them
        k, l = next(
            (int(k), int(l))
            for k, l in np.argwhere(terms > 1)
            if len({i, j, int(k), int(l)}) == 4 and terms[i, l] > 1 and terms[k, j] > 1
        )
        for a, b, delta in ((i, j, 1), (k, l, 1), (i, l, -1), (k, j, -1)):
            terms[a, b] += delta
            terms[b, a] += delta


@pytest.mark.parametrize("how", ["diagonal", "one side", "both sides", "row sums kept"])
def test_audit_catches_a_corrupted_pair_term(how):
    # a store of one block keeps the pair-term matrix, which the audit
    # compares entry by entry with a fresh build; a corruption that keeps
    # every row sum, so that the loads and the load total still agree with
    # it, is caught there too
    am = triangular(1.0, 2.0, 1)
    spec = ModelSpec("bolker_pacala", a_plus=triangular(1.0, 1.0, 1), a_minus=am, m=0.2)
    rng = np.random.default_rng(37)
    state = SimulationState(spec, sample_poisson(Torus(20.0, 1), 3.0, rng))
    for _ in range(50):
        b, d = state.total_rates()
        state._apply_event(b, d, rng, EventLog(1))
    cfg = state.cfg
    n = len(cfg)
    assert isinstance(cfg.upkeep, PairTerms) and n <= BLOCK_ROWS
    state.audit()
    corrupt_terms(cfg.upkeep._terms[:n, :n], how)
    with pytest.raises(AuditError, match="pair-term matrix differs: term of points"):
        state.audit()


def test_removal_below_zero_load_raises():
    # point 0's load is a- at distance 0.5 = 0.5, 2^29 quanta of 2^-30;
    # corrupted to 0, removing point 1 would take it to -2^29.  The store
    # reports the fault and changes no load; a death by competition, the
    # only event with m = 0 and no birth rate, draws point 1, the one load
    # above 0, and raises it
    am = triangular(1.0, 1.0, 1)
    spec = ModelSpec("bolker_pacala", a_plus=triangular(1.0, 1.0, 1), a_minus=am, m=0.0)
    assert load_scale(am) == 2.0**30
    fault = f"death-rate cache for point 0 fell to {-(2**29)} quanta on removing point 1"

    def corrupted():
        state = SimulationState(spec, cfg_with_points(Torus(10.0, 1), [[5.0], [5.5]]))
        assert state.cfg.loads.tolist() == [2**29, 2**29]
        state.cfg.loads[0] = 0
        return state

    state = corrupted()
    pid, x, got = state.cfg._remove_point(1)
    assert (pid, x.tolist(), got) == (1, [5.5], fault) and state.cfg.loads.tolist() == [0]
    state, log = corrupted(), EventLog(1)
    with pytest.raises(AuditError, match="point 0") as raised:
        state._apply_event(0.0, state.cfg.load_total(), np.random.default_rng(0), log)
    assert str(raised.value) == fault and len(log) == 0


def grid_field():
    g = [[0.2, 1.0, 0.5, 0.0], [0.3, 0.1, 0.9, 0.4], [1.0, 0.2, 0.2, 0.7]]
    return ImmigrationField(grid=np.array(g + [[0.0, 0.6, 0.3, 0.8]]))


def remove_the_old_way(state, row):
    """``_remove_point`` as its load update was written before it took one
    gather and one scatter: the neighbours' loads take ``-contrib``, in
    whole quanta, by a fancy ``+=``, and the load total the sum."""
    cfg = state.cfg
    cell = cfg.upkeep._cell.item(row)
    x = cfg.remove(row)
    rows, squares = cfg.upkeep._neighbors(x, cell)
    delta = -state._a_minus._profile_sq(squares).astype(np.int64)
    cfg._load[rows] += delta
    cfg._total += int(delta.sum())


@pytest.mark.parametrize("dim", [1, 2])
def test_death_update_matches_the_old_arithmetic_bit_for_bit(dim):
    # two copies of one seeded state after 300 events: 60 deaths of
    # uniform rows update the loads and the load total of one by
    # _remove_point and of the other the old way; both stay equal bit for
    # bit, and the load bound stays
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
        assert state.cfg.load_total() == ref.cfg.load_total()
        assert state.cfg.bound == ref.cfg.bound

    same()
    for _ in range(60):
        row = int(rng.integers(len(state.cfg)))
        assert state.cfg._remove_point(row)[2] is None
        remove_the_old_way(ref, row)
        same()
    assert state.cfg.stale_sum() is None


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
    # past 2^63; the index of a store of more than one block keeps 2097151
    # per axis, the most that fit.  Pairs 0.5e-4 apart along each axis and
    # across the wrap carry loads of 0.5
    torus = Torus(1000.0, 3)
    am = triangular(1.0, 1e-4, 3)
    spec = ModelSpec("bolker_pacala", a_plus=am, a_minus=am, m=0.2)
    rng = np.random.default_rng(70)
    points = rng.uniform(0.0, 1000.0, (300, 3))
    close = points[:12].copy()
    for k in range(12):
        close[k, k % 3] += 0.5e-4
    close[0] = [0.25e-4, 500.0, 500.0]
    points[0] = [1000.0 - 0.25e-4, 500.0, 500.0]
    cfg = TorusConfiguration(torus, np.concatenate([points, close]))
    state = SimulationState(spec, cfg)
    assert cfg.upkeep.grid == CellGrid(1000.0, 3, 2097151)
    want = np.zeros(312)
    want[:12] = want[300:] = 0.5
    np.testing.assert_allclose(cfg.loads / load_scale(am), want, rtol=1e-8)  # near 1000
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
        ("bolker_pacala", 1, 100.0, 1.0),
    ],
)


def keeps_terms(side, dim, density):
    """Whether a model of EVENT_PATH_MODELS starts, and stays, at one
    block, so that its store keeps the pair-term matrix, or past one block,
    on the cell index."""
    return density * side**dim < BLOCK_ROWS


def profiled_events(variant, dim, side, density, on_call, on_c_call=None):
    """2000 events of the model under ``sys.setprofile``, which hands the
    code object of every Python-level call to ``on_call`` and, if given,
    every C function called from Python to ``on_c_call``; returns the
    state, its log and the population after each event.

    bolker_pacala on a side of 400 in d=1, or 20 in d=2, keeps n >
    BLOCK_ROWS, so each competition draw is by stochastic acceptance and
    each neighbour query takes the index; on a side of 100 in d=1 it stays at one
    block, at n ~ 100, and so does the migration model: their stores keep
    the pair-term matrix.  The migration model's immigrants come from a
    grid field.  "tabulated" is bolker_pacala in d=1 with tabulated a+ and
    a-, above BLOCK_ROWS too."""
    if variant == "migration":
        spec = ModelSpec(variant, a_minus=gaussian(0.3, 0.5, 2), m=0.2, b=grid_field())
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
    terms = keeps_terms(side, dim, density)
    assert isinstance(state.cfg.upkeep, PairTerms) == terms
    assert max(sizes) <= BLOCK_ROWS if terms else min(sizes) > BLOCK_ROWS
    state.audit()


@EVENT_PATH_MODELS
def test_event_path_wraps_and_files_a_point_in_one_pass(variant, dim, side, density):
    # the store's _in_box wraps a position and finds its flat cell in one
    # pass, exactly once per birth, whose query and insert both take that
    # (position, cell), and never for a death, which queries from the cell
    # its row was filed in; CellGrid serves the event path only by making
    # one stencil for each queried cell whose stencil wraps and the store
    # has not seen, and no event files the store.  A store that keeps the
    # pair-term matrix makes no query: a birth reads the rows in one pass
    # and a death the dying row of the matrix
    calls = Counter()

    def on_call(code):
        if code.co_filename.replace("\\", "/").endswith("sbdsim/geometry.py"):
            calls[code.co_name] += 1

    state, log, _ = profiled_events(variant, dim, side, density, on_call)
    births = int(log.births.sum())
    queries = 0 if keeps_terms(side, dim, density) else 2000
    assert calls["_neighbors"] == queries and calls["_insert"] == births
    assert calls["_in_box"] == births
    assert calls["_file"] == 0
    wrapped = {} if keeps_terms(side, dim, density) else state.cfg.upkeep._wrapped
    assert calls["cell_stencil"] == len(wrapped)
    assert all(isinstance(cell, int) for cell in wrapped)
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
    query = CellIndex._neighbors

    def recorded(self, x, cell):
        queried.add(cell)
        return query(self, x, cell)

    monkeypatch.setattr(CellIndex, "_neighbors", recorded)
    trace = run(spec, cfg, 0.033, rng)
    assert 10_000 < len(cfg) < 10_300 and 1900 < trace.n_events < 2000
    assert cfg.upkeep.grid == CellGrid(2000.0, 1, 618) and len(queried) > 570
    assert {0, 617} <= queried and sorted(cfg.upkeep._wrapped) == [0, 617]


@EVENT_PATH_MODELS
def test_event_path_reduces_only_a_new_load_and_a_total_of_many_blocks(
    variant, dim, side, density
):
    # a ufunc reduction costs a microsecond or two of set-up; the event
    # path makes none, and no ufunc.at either.  A birth's new load, which
    # is also what its neighbours gain, and what a death on the index takes
    # off the load total are each the last element of a running sum.  The
    # load total is kept, so reading it, with the store at one block or
    # more, reduces nothing, and the least left load of a death comes from
    # argmin, the largest new load of a birth on the index from argmax.  A
    # death in a store that keeps the pair-term matrix takes the dying
    # load off the total a second time
    reductions = []

    def on_c_call(fn):
        if isinstance(getattr(fn, "__self__", None), np.ufunc) and fn.__name__ in (
            "reduce",
            "at",
        ):
            reductions.append(f"{fn.__self__.__name__}.{fn.__name__}")

    state, log, sizes = profiled_events(
        variant, dim, side, density, lambda code: None, on_c_call
    )
    births = log.births
    before = np.array(sizes) - np.where(births, 1, -1)  # population at each draw
    many_blocks = int(np.count_nonzero(before > BLOCK_ROWS))
    assert reductions == []
    assert many_blocks == (0 if keeps_terms(side, dim, density) else 2000)


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
            5066,
            "91944845e91ff49c062428ea1c8173fc81cd6367b151de17a4d9e1331a626ee6",
        ),
        (dense_d2, 2306, "2e6c67ebec3adfded0e6d7c2cf47db05a5b7b7505f68423e4a758e2609748106"),
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
    # sha256 of the event times and positions and of the final positions,
    # by id, as little-endian float64, and of the final loads, by id, as
    # little-endian int64 quanta, which the integer pin above does not see.
    # Pinned with numpy's exp on x86-64: a host whose exp rounds otherwise
    # may need its own pin
    spec = ModelSpec(
        "bolker_pacala", a_plus=gaussian(3.0, 0.5, 1), a_minus=gaussian(0.5, 0.5, 1), m=0.5
    )
    rng = np.random.default_rng(2)
    cfg = sample_poisson(Torus(60.0, 1), 5.0, rng)
    assert cfg.upkeep.grid is None and len(cfg) == 287
    trace = run(spec, cfg, 0.17, rng)
    assert cfg.upkeep.grid == CellGrid(60.0, 1, 18) and trace.n_events == 272
    ids, positions = cfg.by_id()
    log = trace.events
    h = hashlib.sha256()
    for col in (log.times, log.positions, positions):
        h.update(col.astype("<f8").tobytes())
    h.update(cfg.loads[cfg._id[: len(cfg)].argsort()].astype("<i8").tobytes())
    assert len(ids) == 279
    pin = "e0d6b4a5f87e280f727213c687bcfca1da9c895c370f6fec198ac876d13a4730"
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
    state = SimulationState(cfg.model, store)
    loads = state.cfg.loads.copy()
    def of_the_roots(kernel, s):
        r = np.sqrt(s)
        return kernel._peak * np.exp(-(r**2) / (2.0 * kernel.sigma**2))

    monkeypatch.setattr(GaussianKernel, "_profile_sq", of_the_roots)
    assert loads.tobytes() == store.kernel_sums(state._a_minus).tobytes()


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


def bulk_and_sequential_runs(dim, side, density, t_end):
    """One seeded run on a store built with its points by sample_poisson
    and one on a store filed first, with the same draws inserted one at a
    time, each cache audited after every event; returns both stores, after
    checking that the runs agree event for event."""
    am = gaussian(0.5, 0.2, dim)
    spec = ModelSpec("bolker_pacala", a_plus=gaussian(1.0, 0.5, dim), a_minus=am, m=0.5)
    torus = Torus(side, dim)
    rng_bulk, rng_seq = np.random.default_rng(21), np.random.default_rng(21)
    bulk = sample_poisson(torus, density, rng_bulk)
    n = rng_seq.poisson(density * torus.volume)
    seq = TorusConfiguration(torus)
    file_on(seq, am.cutoff_radius())
    for x in rng_seq.uniform(0.0, torus.side, (n, dim)):
        insert_point(seq, x)
    assert len(bulk) == len(seq) > 0 and bulk.upkeep.grid is None
    a = run(spec, bulk, t_end=t_end, rng=rng_bulk, audit_every=1)
    b = run(spec, seq, t_end=t_end, rng=rng_seq, audit_every=1)
    assert len(a.events) == len(b.events) > 100
    for ea, eb in zip(a.events, b.events):
        assert (ea.time, ea.kind, ea.point) == (eb.time, eb.kind, eb.point)
        assert ea.parent == eb.parent
        np.testing.assert_array_equal(ea.position, eb.position)
    return bulk, seq


@pytest.mark.parametrize("dim, t_end", [(1, 10.0), (2, 0.6)])
def test_bulk_initial_load_gives_the_sequential_trace(dim, t_end):
    # a store of one block, built with its points or grown by inserts into
    # a store filed first, gives the same run; both keep the pair-term
    # matrix, and the filing goes
    bulk, seq = bulk_and_sequential_runs(dim, 9.0, 2.0, t_end)
    assert bulk.upkeep.grid is seq.upkeep.grid is None


@pytest.mark.parametrize("dim, side", [(1, 150.0), (2, 12.5)])
def test_bulk_initial_load_past_one_block_gives_the_sequential_trace(dim, side):
    # sample_poisson builds a store of more than one block with its points,
    # filed into cells from scratch when the run starts; inserting the same
    # draws one at a time into a store filed first gives the same run
    bulk, seq = bulk_and_sequential_runs(dim, side, 2.0, 0.4)
    cutoff = gaussian(0.5, 0.2, dim).cutoff_radius()
    assert bulk.upkeep.grid == seq.upkeep.grid == CellGrid.for_radius(bulk.torus, cutoff)


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


# The flat-competition chain: migration in d=1 on a side of 2 with b = 4,
# m = 0.5 and a- equal to 0.7 out to 1 = side/2, so every load is 0.7 (n - 1)
# and n is a birth-death chain with births at 8 and deaths at
# n (0.5 + 0.7 (n - 1)).  Its stationary law is
# pi(n) prop to 8^n / prod_{k <= n} k (0.5 + 0.7 (k - 1)).  Near its mean it
# relaxes at a rate of about 4.4, the slope of the death rate there.
FLAT_T_END = 4000.0


def flat_competition_law(n_max=60):
    n = np.arange(n_max)
    steps = [math.log(8.0 / (k * (0.5 + 0.7 * (k - 1)))) for k in n[1:]]
    log_w = np.concatenate([[0.0], np.cumsum(steps)])
    pi = np.exp(log_w - log_w.max())
    return n, pi / pi.sum()


@pytest.fixture(scope="module")
def flat_competition_run():
    a_minus = tabulated([0.0, 1.0], [0.7, 0.7], tail_sup_bound=0.7, tail_mass_bound=1e-12)
    spec = migration_spec(b=4.0, m=0.5, a_minus=a_minus)
    rng = np.random.default_rng(17)
    snapshot_times = tuple(np.arange(1.0, FLAT_T_END + 0.5))  # about 4 relaxation times apart
    return run(spec, TorusConfiguration(Torus(2.0, 1)), FLAT_T_END, rng, snapshot_times)


def test_flat_competition_occupancy_is_the_stationary_law(flat_competition_run):
    # the time-weighted occupancy of each n with pi(n) > 1e-3, against pi(n)
    # within 4 standard errors, which come from the means of 40 batches of
    # 100 time units, some 400 relaxation times each
    trace = flat_competition_run
    assert not trace.guard_tripped and trace.n_events > 50_000
    edges = np.concatenate([[0.0], trace.events.times, [FLAT_T_END]])
    sizes = np.concatenate([[0], np.cumsum(np.where(trace.events.births, 1, -1))])
    n, pi = flat_competition_law()
    states = n[pi > 1e-3]
    assert states.tolist() == list(range(9))
    batches = np.linspace(0.0, FLAT_T_END, 41)
    occupancy = np.zeros((40, states.size))
    for b, (lo, hi) in enumerate(zip(batches[:-1], batches[1:])):
        held = np.clip(np.minimum(edges[1:], hi) - np.maximum(edges[:-1], lo), 0.0, None)
        occupancy[b] = [held[sizes == k].sum() / (hi - lo) for k in states]
    mean, se = occupancy.mean(axis=0), occupancy.std(axis=0, ddof=1) / math.sqrt(40)
    assert np.all(np.abs(mean - pi[states]) <= 4.0 * se)


def test_flat_competition_factorial_moments_are_the_closed_form(flat_competition_run):
    # F1, F2 and F3 of the whole box's count, from statistics.factorial_moments
    # of one snapshot per time unit, within 4 of its standard errors.  The
    # law is sub-Poisson: mean 3.266, variance 1.695, F2 / rho^2 = 0.853 and
    # F3 / rho^3 = 0.624, where a Poisson law reads 1
    snapshots = [s.positions for s in flat_competition_run.snapshots]
    assert len(snapshots) == FLAT_T_END
    n, pi = flat_competition_law()
    exact = [float((f * pi).sum()) for f in (n, n * (n - 1), n * (n - 1) * (n - 2))]
    rho, f2, f3 = exact
    var = float(((n - rho) ** 2 * pi).sum())
    closed_form = [round(x, 3) for x in (rho, var, f2 / rho**2, f3 / rho**3)]
    assert closed_form == [3.266, 1.695, 0.853, 0.624]
    moments = factorial_moments(snapshots, Window((0.0,), (2.0,)), 3)
    for (estimate, se), want in zip(moments, exact):
        assert abs(estimate - want) <= 4.0 * se


def flat_bolker_pacala_law(n0, t, n_max=40):
    """The law at time ``t``, from ``n0`` points, of bolker_pacala with a+
    of mass 2 and the flat a- above: births at 2 n, deaths at
    n (0.5 + 0.7 (n - 1)), and 0 absorbs.  The forward equation of the
    chain cut at ``n_max``, whose births stop there, solved by expm."""
    n = np.arange(n_max + 1)
    birth = np.where(n < n_max, 2.0 * n, 0.0)
    death = n * (0.5 + 0.7 * (n - 1))
    generator = np.diag(birth[:-1], 1) + np.diag(death[1:], -1) - np.diag(birth + death)
    return linalg.expm(generator * t)[n0]


def test_flat_bolker_pacala_law_at_a_fixed_time_is_the_forward_equation():
    # bolker_pacala in d=1 on a side of 2, a+ a triangle of mass 2 and
    # radius 0.5, a- 0.7 out to 1 = side/2, so that every load is
    # 0.7 (n - 1): the population is a birth-death chain absorbed at 0.
    # 3000 replicas from one point to t = 1, against the law of the chain
    # cut at 40 points, which holds a mass below 1e-20, by a chi-square test
    # of the states expected 5 times or more, the rest pooled
    a_minus = tabulated([0.0, 1.0], [0.7, 0.7], tail_sup_bound=0.7, tail_mass_bound=1e-12)
    spec = ModelSpec("bolker_pacala", a_plus=triangular(4.0, 0.5), a_minus=a_minus, m=0.5)
    assert spec.a_plus.mass() == 2.0
    rng, torus, replicas = np.random.default_rng(5), Torus(2.0, 1), 3000
    finals = [
        run(spec, TorusConfiguration(torus, [[0.3]]), 1.0, rng).final_population
        for _ in range(replicas)
    ]
    law = flat_bolker_pacala_law(1, 1.0)
    assert law[-1] < 1e-20
    counts = np.bincount(finals, minlength=law.size)
    common = law * replicas >= 5.0
    observed = np.append(counts[common], counts[~common].sum())
    expected = np.append(law[common], law[~common].sum()) * replicas
    assert stats.chisquare(observed, expected).pvalue > 1e-3

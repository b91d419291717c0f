import math

import numpy as np
import pytest
from scipy import stats

from sbdsim.dynamics import (
    AuditError,
    DynamicsError,
    ModelSpec,
    SimulationState,
    run,
)
from sbdsim.geometry import Torus, TorusConfiguration, sample_poisson
from sbdsim.kernels import ImmigrationField, gaussian, triangular
from sbdsim.oracles import bp_meanfield_density, surgailis_density
from sbdsim.statistics import density


def cfg_with_points(torus, points):
    cfg = TorusConfiguration(torus)
    for p in points:
        cfg.insert(p)
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


# -- rate bookkeeping ------------------------------------------------------------


def test_total_rates_empty_is_absorbing():
    spec = ModelSpec("bolker_pacala", a_plus=triangular(1.0, 1.0, 1), m=1.0)
    state = SimulationState(spec, TorusConfiguration(Torus(10.0, 1)))
    assert state.total_rates() == (0.0, 0.0)
    rng = np.random.default_rng(0)
    trace = run(spec, TorusConfiguration(Torus(10.0, 1)), t_end=1.0, rng=rng)
    assert trace.absorbed and trace.events == []


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
    d = state.death_rates()
    np.testing.assert_allclose(d, 0.5 + am.profile(0.5))
    state.audit()


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
    pts = cfg.positions_array()
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
    start_ids = set(cfg.ids())
    trace = run(spec, cfg, t_end=4.0, rng=rng)
    alive = set(start_ids)
    for ev in trace.events:
        if ev.kind == "birth":
            assert ev.point not in alive
            alive.add(ev.point)
        else:
            assert ev.point in alive
            alive.remove(ev.point)
    assert alive == set(cfg.ids())
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


def test_incremental_caches_survive_audit():
    am = gaussian(1.0, 0.5, 1)
    spec = ModelSpec("bolker_pacala", a_plus=triangular(2.0, 1.0, 1), a_minus=am, m=0.2)
    rng = np.random.default_rng(10)
    cfg = sample_poisson(Torus(12.0, 1), 2.0, rng)
    trace = run(spec, cfg, t_end=15.0, rng=rng, audit_every=100)
    assert len(trace.events) > 1000  # the audit actually exercised many checkpoints


def test_audit_catches_corruption():
    am = triangular(1.0, 1.0, 1)
    spec = ModelSpec("bolker_pacala", a_plus=triangular(1.0, 1.0, 1), a_minus=am, m=0.2)
    state = SimulationState(spec, cfg_with_points(Torus(10.0, 1), [[5.0], [5.5]]))
    state.audit()
    state.cfg.loads[0] += 0.5
    with pytest.raises(AuditError):
        state.audit()


def test_removal_below_zero_load_raises():
    # point 0's load is a- at distance 0.5 = 0.5; corrupted to 0, removing
    # point 1 would take it to -0.5, far beyond a rounding residue
    am = triangular(1.0, 1.0, 1)
    spec = ModelSpec("bolker_pacala", a_plus=triangular(1.0, 1.0, 1), a_minus=am, m=0.2)
    state = SimulationState(spec, cfg_with_points(Torus(10.0, 1), [[5.0], [5.5]]))
    state.cfg.loads[0] -= 0.5
    with pytest.raises(AuditError, match="point 0"):
        state._remove_point(1)


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

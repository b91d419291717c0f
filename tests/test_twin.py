"""A naive twin of the jump chain replays ``run`` exactly, event by event.

The twin keeps the living points in plain arrays, in the store's row order
with its swap-delete, and recomputes every load from scratch at every event
by a minimum-image scan of all pairs, in whole quanta: each pair's term is
a- scaled by S = 2^(LOAD_BITS - e), sup(a-) = f 2^e with f in [0.5, 1), at
its squared length, truncated to int64.  It shares nothing with the fast
path but ``Torus.wrap``, the profiles, masses, integrals and samplers of
the kernels and the immigration field, and the draw source ``BlockDraws``.
It draws from its own generator, seeded as the run's, in ``run``'s order:
the waiting time, the uniform that picks a birth, a natural death or a
death by competition, then the parent row and its displacement, the
immigrant's position, the dying row of a natural death, or the competition
draw; it works out the channel, the rows and the loads itself.  A
competition death, in a store of one block or past it, is drawn as pairs
of a uniform row and a uniform target below a load bound until the target
falls below the row's load.  The twin keeps that bound by the store's
rule: the largest load when the store is built, raised by each birth to
the largest load after it, not reset when the store first passes one
block, and recomputed as the largest load before a draw once the draws
since the last recompute reach the population then.  Loads are exact
sums, so the twin's loads equal the store's, and its times, channels, rows
and positions the run's, bit for bit.

Sixteen named cases pin hand-picked stores and grids, each edge case both
from one block, where the store keeps the pair-term matrix, and from past
one block, on the cell index, and one store that grows from the matrix to
the index; a property test draws the rest of the model space: both
variants, d = 1 to 3, each a- family or none, grids of 1 to 8 cells per
axis and starts of 0 to 300 points.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbdsim.dynamics import BlockDraws, ModelSpec, SimulationState, run
from sbdsim.geometry import BLOCK_ROWS, LOAD_BITS, CellGrid, Torus, TorusConfiguration
from sbdsim.kernels import ImmigrationField, exponential, gaussian, tabulated, triangular


def in_quanta(a_minus):
    """(a- scaled to quanta, the quanta per unit S), or (None, 1.0)."""
    if a_minus is None:
        return None, 1.0
    scale = 2.0 ** (LOAD_BITS - math.frexp(a_minus.sup_norm())[1])
    return a_minus.scaled(scale), scale


def fresh_loads(pos, side, kernel):
    """Each point's load in quanta: the sum, over the others within the
    cutoff, of ``kernel``, a- in quanta, at the squared minimum-image length,
    summed axis by axis, each term truncated to int64."""
    n = pos.shape[0]
    loads = np.zeros(n, dtype=np.int64)
    if kernel is None or n < 2:
        return loads
    square = np.zeros((n, n))
    for axis in range(pos.shape[1]):  # one (n, n) block per axis
        d = np.abs(pos[:, axis, None] - pos[None, :, axis])
        np.minimum(d, side - d, out=d)
        d *= d
        square += d
    kept = np.sqrt(square) <= kernel.cutoff_radius()
    np.fill_diagonal(kept, False)
    i, j = kept.nonzero()
    np.add.at(loads, i, kernel._profile_sq(square[i, j]).astype(np.int64))
    return loads


def replay(spec, torus, start, t_end, seed, trace, states):
    """Run the twin from the rows ``start`` (ids 0..n-1) and compare it,
    bit for bit, with the run's ``trace`` and the store's (ids, loads)
    after each event."""
    rng, draws = np.random.default_rng(seed), BlockDraws()
    log = trace.events
    times, births, positions = log.times, log.births, log.positions
    points, parents = log.points.tolist(), log.parents.tolist()
    pos, ids = start.copy(), list(range(start.shape[0]))
    b_total = 0.0 if spec.b is None else spec.b.integral(torus.side, torus.dim)
    birth_mass = 0.0 if spec.a_plus is None else spec.a_plus.mass()
    kernel, scale = in_quanta(spec.a_minus)
    t, next_id = 0.0, len(ids)
    bound = due = None  # the load bound, and the draws before its recompute
    for i in range(len(log) + 1):
        loads = fresh_loads(pos, torus.side, kernel)
        if bound is None:  # at the build
            bound, due = int(loads.max(initial=0)), len(ids)
        elif births[i - 1]:  # loads only rose, at the birth's
            bound = max(bound, int(loads.max()))
        if i:
            fast_ids, fast_loads = states[i - 1]
            assert fast_ids.tolist() == ids
            assert fast_loads.tolist() == loads.tolist(), i
        n = len(ids)
        competition = int(loads.sum())
        natural = spec.m * n
        b, d = b_total + n * birth_mass, natural + competition / scale
        if b + d <= 0.0:
            assert trace.absorbed and i == len(log)
            break
        t += rng.exponential(1.0 / (b + d))
        if i == len(log):
            assert t > t_end
            break
        assert t == times[i]
        pick = draws.uniform(rng) * (b + d) - b
        assert (pick < 0.0) == births[i]
        if births[i]:
            if spec.b is not None:
                x, parent = spec.b.sample_position(torus.side, torus.dim, rng), -1
            else:
                row = draws.row(n, rng)
                x, parent = pos[row] + spec.a_plus.sample_displacement(rng), ids[row]
            x, pid, next_id = torus.wrap(x), next_id, next_id + 1
            pos = np.concatenate([pos, x[None]])
            ids.append(pid)
        else:  # a uniform row, or a competition draw as the store makes it
            if pick < natural or not competition:
                row = draws.row(n, rng)
            else:
                if not due:
                    bound, due = int(loads.max()), n
                due -= 1
                row = draws.row(n, rng)
                while draws.row(bound, rng) >= loads[row]:
                    row = draws.row(n, rng)
            x, pid, parent = pos[row].copy(), ids[row], -1
            pos[row], ids[row] = pos[-1], ids[-1]  # the store's swap-delete
            pos = pos[:-1]
            ids.pop()
        assert (pid, parent) == (points[i], parents[i])
        assert x.tobytes() == positions[i].tobytes()


def edge_points(side, n_cells, dim, rng):
    """Two sets of points on each cell edge of a grid of ``n_cells`` per
    axis, a float either side of each and a float below ``side``, along the
    first axis.  In the first the other axes sit at that float below
    ``side``, so that pairs differ along the first axis alone; in the
    second they draw from the same values."""
    edges = [k * side / n_cells for k in range(n_cells)]
    pool = edges + [math.nextafter(e, side) for e in edges]
    pool += [math.nextafter(e, 0.0) for e in edges[1:]] + [math.nextafter(side, 0.0)]
    aligned = np.full((len(pool), dim), pool[-1])
    pts = np.concatenate([aligned, rng.choice(pool, (len(pool), dim))])
    pts[:, 0] = pool * 2
    return pts


def edge_case(variant, dim, extra, t_end, cutoff=2.0, grids=(3, 4)):
    """a- tabulated with a positive value at its ``cutoff``, on a side of 8,
    on points at the cell edges of grids of ``grids`` cells per axis, with
    ``extra`` uniform points.  The first grid is the store's: 3 cells of
    8/3 for the cutoff 2, whose cells of 2 put some pairs at a rounded
    distance of exactly the cutoff, 2 cells of 4 for a cutoff in (8/3, 4),
    whose offset 1 is its own negative, and 4 cells of 2 for a cutoff of
    1.9.  The stencils of 3 cells per axis, 2 rings + 1, all wrap; 4, 2
    (rings + 1), is the coarsest grid with cells whose stencils do not."""
    rng = np.random.default_rng(dim)
    torus = Torus(8.0, dim)
    a_minus = tabulated(
        [0.0, cutoff / 2.0, cutoff],
        [0.2, 0.12, 0.04],
        dim,
        tail_sup_bound=0.04,
        tail_mass_bound=0.1,
    )
    assert CellGrid.for_radius(torus, cutoff).n == grids[0]
    if variant == "migration":
        spec = ModelSpec(variant, a_minus=a_minus, m=0.3, b=ImmigrationField(constant=10.0))
    else:
        spec = ModelSpec(variant, a_plus=gaussian(1.5, 0.5, dim), a_minus=a_minus, m=0.2)
    start = [edge_points(8.0, n, dim, rng) for n in grids]
    start.append(rng.uniform(0.0, 8.0, (extra, dim)))
    return spec, torus, np.concatenate(start), t_end


def uniform_case(spec, side, n, t_end):
    dim = spec.dim
    rng = np.random.default_rng(n)
    return spec, Torus(side, dim), rng.uniform(0.0, side, (n, dim)), t_end


GRID_FIELD = ImmigrationField(grid=np.arange(16.0).reshape(4, 4) / 15.0)

# both variants, d = 1, 2 and 3, and each a- family; n stays above BLOCK_ROWS
# in the first case.  The store grids of the edge cases are either side of
# the first with stencils that do not wrap, in d = 1 and 2.  A store that
# starts at one block keeps the pair-term matrix; each edge case is run
# again from past one block, on the cell index, and its store falls to one
# block; the last case's store starts at one block and grows past it, from
# the matrix to the index
CASES = {
    "bolker_pacala-1-gaussian": lambda: uniform_case(
        ModelSpec("bolker_pacala", gaussian(1.0, 1.0, 1), gaussian(0.2, 0.5, 1), m=0.5),
        120.0, 300, 0.7,
    ),
    "migration-2-triangular": lambda: uniform_case(
        ModelSpec("migration", a_minus=triangular(1.0, 1.0, 2), m=0.2, b=GRID_FIELD),
        10.0, 100, 5.0,
    ),
    "bolker_pacala-3-exponential": lambda: uniform_case(
        ModelSpec("bolker_pacala", triangular(1.0, 1.0, 3), exponential(0.3, 0.2, 3), m=0.8),
        12.0, 60, 4.0,
    ),
    "migration-1-tabulated-edges": lambda: edge_case("migration", 1, 2, 5.0),
    "bolker_pacala-2-tabulated-edges": lambda: edge_case("bolker_pacala", 2, 16, 4.0),
    "bolker_pacala-2-tabulated-two-cells": lambda: edge_case(
        "bolker_pacala", 2, 8, 6.0, cutoff=3.5, grids=(2,)
    ),
    "migration-1-tabulated-four-cells": lambda: edge_case(
        "migration", 1, 2, 5.0, cutoff=1.9, grids=(4, 3)
    ),
    "bolker_pacala-2-tabulated-four-cells": lambda: edge_case(
        "bolker_pacala", 2, 16, 4.0, cutoff=1.9, grids=(4, 3)
    ),
    "bolker_pacala-1-tabulated-four-cells-past-one-block": lambda: edge_case(
        "bolker_pacala", 1, 230, 0.4, cutoff=1.9, grids=(4, 3)
    ),
    "migration-1-tabulated-edges-past-one-block": lambda: edge_case("migration", 1, 230, 0.6),
    "bolker_pacala-2-tabulated-edges-past-one-block": lambda: edge_case(
        "bolker_pacala", 2, 230, 0.6
    ),
    "bolker_pacala-2-tabulated-two-cells-past-one-block": lambda: edge_case(
        "bolker_pacala", 2, 250, 0.6, cutoff=3.5, grids=(2,)
    ),
    "migration-1-tabulated-four-cells-past-one-block": lambda: edge_case(
        "migration", 1, 230, 0.6, cutoff=1.9, grids=(4, 3)
    ),
    "bolker_pacala-2-tabulated-four-cells-past-one-block": lambda: edge_case(
        "bolker_pacala", 2, 230, 0.6, cutoff=1.9, grids=(4, 3)
    ),
    "bolker_pacala-2-tabulated-across-one-block": lambda: uniform_case(
        ModelSpec("bolker_pacala", gaussian(1.4, 1.0, 2), a_minus_of("tabulated", 2, 0.05), m=1.0),
        30.0, 240, 1.0,
    ),
}


def run_against_twin(spec, torus, start, t_end):
    """Run ``spec`` from the points ``start`` to ``t_end`` with seed 7,
    recording the store's (ids, loads) after each event, and replay the
    twin against it; return the trace and the states."""
    states = []
    apply = SimulationState._apply_event

    def recorded(self, b, d, rng, log):
        apply(self, b, d, rng, log)
        n = len(self.cfg)
        states.append((self.cfg._id[:n].copy(), self.cfg.loads.copy()))

    SimulationState._apply_event = recorded
    try:
        cfg = TorusConfiguration(torus, start)
        start = cfg._pos[: len(cfg)].copy()
        trace = run(spec, cfg, t_end, np.random.default_rng(7))
    finally:
        SimulationState._apply_event = apply
    replay(spec, torus, start, t_end, 7, trace, states)
    return trace, states


@pytest.mark.parametrize("name", list(CASES))
def test_run_matches_its_naive_twin(name):
    # the run's kinds, ids, parents, times and positions equal the twin's
    # bit for bit, and after every event its store holds the twin's rows in
    # the twin's order, with the twin's loads
    spec, torus, start, t_end = CASES[name]()
    trace, states = run_against_twin(spec, torus, start, t_end)
    assert 300 <= trace.n_events <= 2000 and not trace.guard_tripped
    sizes = [ids.size for ids, _ in states]
    if name == "bolker_pacala-1-gaussian":  # every competition draw on the index
        assert min(sizes) > BLOCK_ROWS
    if name.endswith("past-one-block"):  # on the index, the store falls to one block
        assert len(start) > BLOCK_ROWS >= min(sizes)
    if name.endswith("across-one-block"):  # from the matrix to the index
        assert len(start) <= BLOCK_ROWS < max(sizes)


def a_minus_of(family, dim, weight):
    """An a- of ``family`` with total weight about ``weight``, or None."""
    if family == "gaussian":
        return gaussian(weight, 0.4, dim)
    if family == "triangular":
        return triangular(weight, 1.5, dim)
    if family == "exponential":
        return exponential(weight, 0.1, dim)
    if family == "tabulated":  # positive at its cutoff
        return tabulated([0.0, 0.7, 1.4], [weight, weight / 2.0, weight / 5.0], dim,
                         tail_sup_bound=weight / 5.0, tail_mass_bound=0.1)  # fmt: skip
    return None


@settings(max_examples=60)
@given(
    variant=st.sampled_from(["bolker_pacala", "migration"]),
    dim=st.integers(min_value=1, max_value=3),
    family=st.sampled_from(["gaussian", "triangular", "exponential", "tabulated", None]),
    cells=st.integers(min_value=2, max_value=9),
    whole=st.booleans(),
    fraction=st.floats(min_value=0.05, max_value=0.95),
    n=st.integers(min_value=0, max_value=300),
    events=st.integers(min_value=100, max_value=300),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_every_model_matches_its_naive_twin(
    variant, dim, family, cells, whole, fraction, n, events, seed
):
    # either variant in d = 1, 2 or 3, with any a- family or none, on a
    # side of ``cells`` cutoffs of a-, a whole number (the store files 1 to
    # 8 cells per axis, one cutoff wide and the cutoff a float from a cell
    # width) or not (2 to 8 cells per axis), from 0 to 300 uniform points,
    # so that some stores pass BLOCK_ROWS, for about ``events`` events
    rng = np.random.default_rng(seed)
    a_minus = a_minus_of(family, dim, float(rng.uniform(0.01, 0.2)))
    cutoff = 1.5 if a_minus is None else a_minus.cutoff_radius()
    side = cutoff * (cells if whole or cells == 9 else cells + fraction)
    torus = Torus(side, dim)
    if a_minus is not None:
        assert 1 <= CellGrid.for_radius(torus, cutoff).n <= 8
    m = float(rng.uniform(1.0, 1.5))  # at least the birth rate: no run explodes
    if variant == "migration":
        b = ImmigrationField(constant=float(rng.uniform(0.5, 2.0)) * n / torus.volume + 0.5)
        spec = ModelSpec(variant, a_minus=a_minus, m=m, b=b)
    else:
        a_plus = gaussian(1.0, side * fraction / 14.0, dim)
        spec = ModelSpec(variant, a_plus=a_plus, a_minus=a_minus, m=m)
    start = rng.uniform(0.0, side, (n, dim))
    b0 = 0.0 if spec.b is None else spec.b.integral(side, dim)
    b0 += 0.0 if spec.a_plus is None else n * spec.a_plus.mass()
    kernel, scale = in_quanta(a_minus)
    d0 = m * n + int(fresh_loads(torus.wrap(start), side, kernel).sum()) / scale
    t_end = events / (b0 + d0) if b0 + d0 > 0.0 else 1.0
    trace, _ = run_against_twin(spec, torus, start, t_end)
    assert not trace.guard_tripped
    assert trace.n_events == 0 if b0 + d0 == 0.0 else trace.n_events > 0

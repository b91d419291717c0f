import inspect
import json
import math
from pathlib import Path

import numpy as np
import pytest

from sbdsim.certificate import SearchGrid, certify, verify_certificate
from sbdsim.config import (
    FIELDS,
    KERNEL_FAMILIES,
    MAX_DEFAULT_SNAPSHOTS,
    ConfigError,
    initial_configuration,
    load_config,
    parse_config,
    resolved_config_dict,
)
from sbdsim.dynamics import run
from sbdsim.geometry import CellGrid, Torus, sample_poisson
from sbdsim.kernels import exponential, gaussian, tabulated, triangular
from sbdsim.statistics import build_moment_report, pair_correlation

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

KERNELS = [
    gaussian(0.7, 1.3, 2),
    triangular(2.0, 0.5, 1),
    exponential(1.5, 0.25, 3),
    tabulated([0.0, 0.5, 1.0], [2.0, 1.0, 0.5], 1, tail_sup_bound=0.5, tail_mass_bound=0.1),
]


def test_kernel_config_roundtrip_all_families():
    assert {type(k) for k in KERNELS} == set(KERNEL_FAMILIES.values())
    grid = np.linspace(0.0, 3.0, 61)
    row = FIELDS["model.a_plus"]
    for kernel in KERNELS:
        data = row.write(kernel)
        back = row.read(data, "model.a_plus", {"torus.dim": kernel.dim})
        assert type(back) is type(kernel) and back.dim == kernel.dim
        assert row.write(back) == data
        np.testing.assert_array_equal(back.profile(grid), kernel.profile(grid))


@pytest.mark.parametrize(
    "params, where",
    [
        ({"radii": [0.0, 0.5, float("inf")], "values": [1.0, 0.5, 0.0]}, "model.a_minus"),
        (
            {"radii": [0.0, 1.0], "values": [1.0, 0.5], "tail_sup_bound": float("nan")},
            "model.a_minus.params.tail_sup_bound",
        ),
    ],
)
def test_tabulated_non_finite_radii_or_tail_bounds_are_config_errors(params, where):
    data = {"family": "tabulated", "params": params, "dim": 1}
    with pytest.raises(ConfigError) as err:
        FIELDS["model.a_minus"].read(data, "model.a_minus", {"torus.dim": 1})
    assert err.value.path == where
    assert "finite" in str(err.value)


def test_immigration_grid_needs_the_torus_s_axes():
    data = {
        "model": {"variant": "migration", "b": {"grid": [[1.0, 2.0], [0.5, 0.5]]}},
        "torus": {"L": 20.0, "d": 1},
    }
    with pytest.raises(ConfigError) as err:
        parse_config(data)
    assert err.value.path == "model.b"
    assert str(err.value) == "config error at model.b: grid has 2 axes, torus.d is 1"
    data["torus"]["d"] = 2
    assert parse_config(data).model.b.dim == 2


def test_empty_immigration_grid_is_a_config_error():
    data = {
        "model": {"variant": "migration", "b": {"grid": []}},
        "torus": {"L": 20.0, "d": 1},
    }
    with pytest.raises(ConfigError, match="nonzero extent") as err:
        parse_config(data)
    assert err.value.path == "model.b"


@pytest.mark.parametrize("lo, hi", [([math.nan], [20.0]), ([0.0], [math.inf])])
def test_window_bounds_must_be_finite(lo, hi):
    data = {
        "model": {"variant": "migration", "b": {"constant": 1.0}},
        "torus": {"L": 20.0, "d": 1},
        "analysis": {"window": {"lo": lo, "hi": hi}},
    }
    with pytest.raises(ConfigError, match="finite") as err:
        parse_config(data)
    assert err.value.path == "analysis.window"


@pytest.mark.parametrize(
    "field, library, parameter",
    [
        ("certificate.omega", certify, "omega"),
        ("certificate.trials", verify_certificate, "trials"),
        ("certificate.size_max", verify_certificate, "size_max"),
        ("analysis.n_max", build_moment_report, "n_max"),
        ("analysis.g_bins", build_moment_report, "g_bins"),
        ("analysis.g_bins", pair_correlation, "n_bins"),
    ],
)
def test_config_defaults_are_the_library_defaults(field, library, parameter):
    # one constant sets both, so a run from a config and a library call agree
    assert FIELDS[field].default is inspect.signature(library).parameters[parameter].default


def test_unknown_kernel_family_reports_path():
    data = {"family": "cauchy", "params": {}, "dim": 1}
    with pytest.raises(ConfigError) as err:
        FIELDS["model.a_minus"].read(data, "model.a_minus", {"torus.dim": 1})
    assert err.value.path == "model.a_minus.family"


@pytest.mark.parametrize("g_r_max, ok", [(15.0, False), (10.0000001, False), (10.0, True)])
def test_explicit_g_r_max_must_not_exceed_half_the_box(g_r_max, ok):
    data = {
        "model": {"variant": "migration", "b": {"constant": 1.0}},
        "torus": {"L": 20.0, "d": 1},
        "analysis": {"g_r_max": g_r_max},
    }
    if ok:
        assert parse_config(data).g_r_max == g_r_max
        return
    with pytest.raises(ConfigError) as err:
        parse_config(data)
    assert err.value.path == "analysis.g_r_max"


def with_certificate(block: dict) -> dict:
    return {
        "model": {"variant": "migration", "b": {"constant": 1.0}},
        "torus": {"L": 20.0, "d": 1},
        "certificate": block,
    }


def test_stale_certificate_epsilons_is_a_config_error():
    # epsilon used to change theta; it is derived now, so a config that still
    # sets it is refused rather than silently ignored
    for block in ({"epsilons": [0.5], "radii": [0.25]}, {"epsilons": [0.5]}):
        with pytest.raises(ConfigError, match="derived from the cell sum") as err:
            parse_config(with_certificate(block))
        assert err.value.path == "certificate.epsilons"


def test_certificate_grid_override_needs_only_radii():
    cfg = parse_config(with_certificate({"radii": [0.25, 0.5]}))
    assert cfg.cert_grid == SearchGrid(radii=(0.25, 0.5), h_factors=(0.5, 1.0, 2.0))
    assert cfg.tight_packing is True
    resolved = resolved_config_dict(cfg)
    assert resolved["certificate"] == {
        "omega": 1.0,
        "radii": [0.25, 0.5],
        "h_factors": [0.5, 1.0, 2.0],
        "trials": 100_000,
        "size_max": 30,
        "tight_packing": True,
    }
    assert parse_config(resolved).cert_grid == cfg.cert_grid
    assert parse_config(with_certificate({"h_factors": [1.0], "radii": [1]})).cert_grid == (
        SearchGrid(radii=(1.0,), h_factors=(1.0,))
    )
    with pytest.raises(ConfigError) as err:
        parse_config(with_certificate({"h_factors": [1.0]}))
    assert err.value.path == "certificate.radii"


@pytest.mark.parametrize(
    "block",
    [{"radii": [math.nan, 0.5]}, {"radii": [math.inf]}, {"radii": [0.5], "h_factors": [math.nan]}],
)
def test_certificate_grid_values_must_be_finite(block):
    with pytest.raises(ConfigError, match="finite positive") as err:
        parse_config(with_certificate(block))
    assert err.value.path == "certificate"


def test_manifest_with_loose_packing_replays_loose():
    # manifests written before the densest packing became the default say so
    assert parse_config(with_certificate({"tight_packing": False})).tight_packing is False
    assert parse_config(with_certificate({})).tight_packing is True


def shipped(name: str) -> dict:
    return json.loads((CONFIGS / f"{name}.json").read_text())


def set_at(data: dict, path: str, value) -> dict:
    *blocks, key = path.split(".")
    node = data
    for name in blocks:
        node = node[name]
    node[key] = value
    return data


@pytest.mark.parametrize(
    "block, bad",
    [
        ("torus", [20.0, 1]),
        ("model", "bolker_pacala"),
        ("init", 1.0),
        ("schedule", [1]),
        ("analysis", 3),
        ("certificate", None),
        ("guard", None),
        ("output", "runs/x"),
        ("model.a_plus.params", [3.0, 0.5]),
    ],
)
def test_every_block_must_be_an_object(block, bad):
    with pytest.raises(ConfigError, match="expected an object") as err:
        parse_config(set_at(shipped("competition_1d"), block, bad))
    assert err.value.path == block


def with_tabulated_a_minus() -> dict:
    data = shipped("competition_1d")
    data["model"]["a_minus"] = {
        "family": "tabulated",
        "params": {
            "radii": [0.0, 1.0],
            "values": [1.0, 0.5],
            "tail_sup_bound": 0.5,
            "tail_mass_bound": 0.1,
        },
        "dim": 1,
    }
    return data


@pytest.mark.parametrize(
    "path, bad",
    [
        ("certificate.tight_packing", "false"),
        ("output.dir", 5),
        ("model.a_minus.params.tail_sup_bound", "0.5"),
        ("model.a_minus.params.tail_mass_bound", "0.1"),
    ],
)
def test_scalars_are_typed(path, bad):
    # "false" is not false, and a tabulated tail bound is a number like any
    # other; the same config with the JSON value's own type parses
    kernel = parse_config(with_tabulated_a_minus()).model.a_minus
    assert (kernel.tail_sup_bound, kernel.tail_mass_bound) == (0.5, 0.1)
    with pytest.raises(ConfigError) as err:
        parse_config(set_at(with_tabulated_a_minus(), path, bad))
    assert err.value.path == path


def test_relative_paths_start_at_the_config_directory(tmp_path, monkeypatch):
    # the points of init.csv and the table of a tabulated kernel's csv are
    # found next to the config, wherever the run starts
    (tmp_path / "cfg").mkdir()
    (tmp_path / "cfg" / "points.csv").write_text("# x\n1.5\n2.5\n")
    (tmp_path / "cfg" / "table.csv").write_text("0.0,1.0\n1.0,0.5\n2.0,0.0\n")
    data = set_at(shipped("competition_1d"), "init", {"csv": "points.csv"})
    a_minus = {"family": "tabulated", "params": {"csv": "table.csv"}, "dim": 1}
    set_at(data, "model.a_minus", a_minus)
    (tmp_path / "cfg" / "cfg.json").write_text(json.dumps(data))
    monkeypatch.chdir(tmp_path)
    cfg = load_config("cfg/cfg.json")
    np.testing.assert_array_equal(cfg.init_points, [[1.5], [2.5]])
    np.testing.assert_array_equal(cfg.model.a_minus.values, [1.0, 0.5, 0.0])
    assert cfg.out_dir.absolute() == tmp_path / "cfg" / "runs" / "competition_1d"


@pytest.mark.parametrize("name", ["competition_1d", "free_migration", "long_dispersal_certificate"])
def test_resolved_config_is_a_fixed_point(monkeypatch, name):
    # loaded by a path relative to the working directory, as on the command
    # line: the resolved output.dir is absolute and reads back as itself
    monkeypatch.chdir(CONFIGS.parent)
    resolved = resolved_config_dict(load_config(Path("configs") / f"{name}.json"))
    assert resolved["output"]["dir"] == str(CONFIGS / shipped(name)["output"]["dir"])
    assert resolved_config_dict(parse_config(resolved)) == resolved


def competition_config(dim):
    """The shipped competition_1d model on a box of density-5 points in
    ``dim``, run to t = 1."""
    data = shipped("competition_1d")
    for kernel in ("a_plus", "a_minus"):
        data["model"][kernel]["dim"] = dim
    side = 60.0 if dim == 1 else 12.0
    data["torus"] = {"L": side, "d": dim}
    data["schedule"] = {"t_end": 1.0}
    data["analysis"]["window"] = {"lo": [0.0] * dim, "hi": [side] * dim}
    return parse_config(data)


@pytest.mark.parametrize(
    "make, n_cells, filed",
    [
        (lambda: competition_config(1), 18, True),
        (lambda: competition_config(2), 3, True),
        (lambda: load_config(CONFIGS / "long_dispersal_certificate.json"), 19, False),
    ],
    ids=["competition d=1", "competition d=2", "long_dispersal_certificate"],
)
def test_library_path_is_the_config_path(make, n_cells, filed):
    # a store on a bare Torus(side, dim) picks the grid the config path
    # gets, from the competition cutoff alone, so a seeded run gives the
    # same trace; long_dispersal_certificate's a+ reaches further than its
    # a-, and the grid still follows a-: 19 cells, each as wide as the
    # cutoff of 1 and its rounding pad, where a+ would give 3.  Its store,
    # of one block, keeps the pair-term matrix and files no grid; the
    # competition stores start past one block and are filed on it
    cfg = make()
    torus = Torus(cfg.torus.side, cfg.torus.dim)
    assert cfg.torus == torus
    logs, grids = [], []
    for library in (True, False):
        rng = np.random.default_rng(5)
        if library:
            conf = sample_poisson(torus, cfg.init_poisson, rng)
        else:
            conf = initial_configuration(cfg, rng)
        logs.append(run(cfg.model, conf, cfg.t_end, rng).events)
        grids.append(conf.upkeep.grid)
    lib, conf_log = logs
    assert len(lib) == len(conf_log) > 100
    for column in ("times", "births", "positions", "points", "parents"):
        np.testing.assert_array_equal(getattr(lib, column), getattr(conf_log, column))
    a_minus = cfg.model.a_minus.cutoff_radius()
    grid = CellGrid.for_radius(torus, a_minus)
    assert grids[0] == grids[1] == (grid if filed else None)
    assert grid.n == n_cells
    a_plus = cfg.model.a_plus.cutoff_radius()
    if a_plus > a_minus:
        assert CellGrid.for_radius(torus, a_plus).n == 3


def default_cadence(name, a_minus_weight=None):
    """The resolved snapshot times of a shipped config without its own."""
    raw = json.loads((CONFIGS / f"{name}.json").read_text())
    raw["schedule"].pop("snapshot_times", None)
    if a_minus_weight is not None:
        raw["model"]["a_minus"]["params"]["weight"] = a_minus_weight
    return parse_config(raw, base_dir=CONFIGS).snapshot_times


def test_default_cadence_of_the_shipped_configs():
    # burn_in + k / mass(a-), or tenths of t_end without a-, then t_end
    assert load_config(CONFIGS / "long_dispersal_certificate.json").snapshot_times == (
        2.0, 3.0, 4.0,
    )  # fmt: skip
    assert default_cadence("competition_1d") == (6.0, 8.0)
    assert default_cadence("free_migration") == tuple(
        round(0.2 * k, 12) for k in range(10)
    ) + (2.0,)


def test_default_cadence_is_burn_in_plus_multiples_of_its_step():
    # a running sum of 1/300 drifts: it gave 7.996666666666 where
    # 6 + 599/300 rounds to 7.996666666667
    times = default_cadence("competition_1d", a_minus_weight=300.0)
    assert len(times) == 601
    assert times == tuple(round(6.0 + k / 300.0, 12) for k in range(600)) + (8.0,)
    assert times[-2] == 7.996666666667


@pytest.mark.parametrize("burn_in", [1.0 / 3.0, 2.0 / 3.0])
def test_default_cadence_starts_at_burn_in(burn_in):
    # times are rounded to 12 decimals: 1/3 rounds down to 0.333333333333,
    # which must not drop the first snapshot, and 2/3 up to 0.666666666667
    raw = json.loads((CONFIGS / "long_dispersal_certificate.json").read_text())
    raw["schedule"] = {"t_end": 4.0, "burn_in": burn_in}
    times = parse_config(raw, base_dir=CONFIGS).snapshot_times
    assert times[0] == max(burn_in, round(burn_in, 12)) and times[-1] == 4.0
    assert times[1:-1] == tuple(round(burn_in + k, 12) for k in range(1, 4))


@pytest.mark.parametrize("weight", [1e5, 1e6])
def test_default_cadence_is_bounded(weight):
    # 2e5 and 2e6 steps of 1 / mass(a-) fit between burn_in 6 and t_end 8;
    # the step widens so that the run takes at most MAX_DEFAULT_SNAPSHOTS
    times = default_cadence("competition_1d", a_minus_weight=weight)
    assert len(times) == MAX_DEFAULT_SNAPSHOTS
    assert (times[0], times[-1]) == (6.0, 8.0)
    gaps = np.diff(times)
    assert gaps.min() > 0.99 * 2.0 / (MAX_DEFAULT_SNAPSHOTS - 1)
    assert gaps.max() < 1.01 * 2.0 / (MAX_DEFAULT_SNAPSHOTS - 1)


def test_snapshot_times_must_be_distinct():
    raw = json.loads((CONFIGS / "free_migration.json").read_text())
    raw["schedule"]["snapshot_times"] = [1.0, 2.0, 1.0]
    with pytest.raises(ConfigError, match="must be distinct") as err:
        parse_config(raw, base_dir=CONFIGS)
    assert err.value.path == "schedule.snapshot_times"

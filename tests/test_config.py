import json
from pathlib import Path

import numpy as np
import pytest

from sbdsim.certificate import SearchGrid
from sbdsim.config import (
    KERNEL_FAMILIES,
    ConfigError,
    initial_configuration,
    kernel_from_config,
    kernel_to_config,
    load_config,
    parse_config,
    resolved_config_dict,
)
from sbdsim.dynamics import run
from sbdsim.geometry import CellGrid, Torus, sample_poisson
from sbdsim.kernels import exponential, gaussian, tabulated, triangular

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

KERNELS = [
    gaussian(0.7, 1.3, 2),
    triangular(2.0, 0.5, 1),
    exponential(1.5, 0.25, 3),
    tabulated([0.0, 0.5, 1.0], [2.0, 1.0, 0.5], 1, tail_sup_bound=0.5, tail_mass_bound=0.1),
]


def test_kernel_config_roundtrip_all_families():
    assert {type(k) for k in KERNELS} == {cls for cls, _, _ in KERNEL_FAMILIES.values()}
    grid = np.linspace(0.0, 3.0, 61)
    for kernel in KERNELS:
        data = kernel_to_config(kernel)
        back = kernel_from_config(data, "model.a_plus")
        assert type(back) is type(kernel) and back.dim == kernel.dim
        assert kernel_to_config(back) == data
        np.testing.assert_array_equal(back.profile(grid), kernel.profile(grid))


def test_unknown_kernel_family_reports_path():
    data = {"family": "cauchy", "params": {}, "dim": 1}
    with pytest.raises(ConfigError) as err:
        kernel_from_config(data, "model.a_minus")
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


def test_manifest_with_loose_packing_replays_loose():
    # manifests written before the densest packing became the default say so
    assert parse_config(with_certificate({"tight_packing": False})).tight_packing is False
    assert parse_config(with_certificate({})).tight_packing is True


def competition_config(dim):
    """The shipped competition_1d model on a box of density-5 points in
    ``dim``, run to t = 1."""
    data = json.loads((CONFIGS / "competition_1d.json").read_text())
    for kernel in ("a_plus", "a_minus"):
        data["model"][kernel]["dim"] = dim
    side = 40.0 if dim == 1 else 12.0
    data["torus"] = {"L": side, "d": dim}
    data["schedule"] = {"t_end": 1.0}
    data["analysis"]["window"] = {"lo": [0.0] * dim, "hi": [side] * dim}
    return parse_config(data)


@pytest.mark.parametrize(
    "make, n_cells",
    [
        (lambda: competition_config(1), 12),
        (lambda: competition_config(2), 8),
        (lambda: load_config(CONFIGS / "long_dispersal_certificate.json"), 20),
    ],
    ids=["competition d=1", "competition d=2", "long_dispersal_certificate"],
)
def test_library_path_is_the_config_path(make, n_cells):
    # a store on a bare Torus(side, dim) picks the grid the config path
    # gets, from the competition cutoff alone, so a seeded run gives the
    # same trace; long_dispersal_certificate's a+ reaches further than its
    # a-, and the grid still follows a-: 20 cells of 1, where a+ would
    # give 8
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
        grids.append(conf.grid)
    lib, conf_log = logs
    assert len(lib) == len(conf_log) > 100
    for column in ("times", "births", "positions", "points", "parents"):
        np.testing.assert_array_equal(getattr(lib, column), getattr(conf_log, column))
    a_minus = cfg.model.a_minus.cutoff_radius()
    assert grids[0] == grids[1] == CellGrid.for_radius(torus, a_minus)
    assert grids[0].n == n_cells
    a_plus = cfg.model.a_plus.cutoff_radius()
    if a_plus > a_minus:
        assert CellGrid.for_radius(torus, a_plus).n == 8

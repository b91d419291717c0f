import numpy as np
import pytest

from sbdsim.certificate import SearchGrid
from sbdsim.config import (
    KERNEL_FAMILIES,
    ConfigError,
    kernel_from_config,
    kernel_to_config,
    parse_config,
    resolved_config_dict,
)
from sbdsim.kernels import exponential, gaussian, tabulated, triangular

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

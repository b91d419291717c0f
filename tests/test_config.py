import numpy as np
import pytest

from sbdsim.config import (
    KERNEL_FAMILIES,
    ConfigError,
    kernel_from_config,
    kernel_to_config,
    parse_config,
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

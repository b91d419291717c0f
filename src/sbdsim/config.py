"""Run configuration: JSON ingestion, validation, defaults, manifests.

Configs are plain JSON.  Validation errors name the offending field path so
a bad config fails with a usage message, not a traceback.  Every run writes
a manifest that echoes the fully resolved config (defaults filled in);
feeding a manifest back in reproduces the run bit for bit.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .certificate import SearchGrid
from .dynamics import DEFAULT_MAX_POPULATION, ModelSpec
from .geometry import Torus, TorusConfiguration, Window
from .kernels import (
    ExponentialKernel,
    GaussianKernel,
    ImmigrationField,
    RadialKernel,
    TabulatedKernel,
    TriangularKernel,
    exponential,
    gaussian,
    tabulated,
    triangular,
)

# family -> (kernel class, factory, parameter names in factory order)
KERNEL_FAMILIES = {
    "gaussian": (GaussianKernel, gaussian, ("weight", "sigma")),
    "triangular": (TriangularKernel, triangular, ("height", "radius")),
    "exponential": (ExponentialKernel, exponential, ("weight", "scale")),
    "tabulated": (
        TabulatedKernel,
        tabulated,
        ("radii", "values", "tail_sup_bound", "tail_mass_bound"),
    ),
}


class ConfigError(ValueError):
    """Invalid configuration; message carries the JSON field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"config error at {path}: {message}")


def _require(data: dict, key: str, path: str):
    if key not in data:
        raise ConfigError(f"{path}.{key}", "missing required field")
    return data[key]


def _as_number(value, path: str, minimum=None, strict_min=None) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(path, f"expected a number, got {value!r}")
    v = float(value)
    if not math.isfinite(v):
        raise ConfigError(path, "must be finite")
    if minimum is not None and v < minimum:
        raise ConfigError(path, f"must be >= {minimum}, got {v}")
    if strict_min is not None and v <= strict_min:
        raise ConfigError(path, f"must be > {strict_min}, got {v}")
    return v


def _as_int(value, path: str, minimum=None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(path, f"must be >= {minimum}, got {value}")
    return value


def load_points_csv(path: Path, dim: int) -> np.ndarray:
    """Read initial positions, one point per row, dim columns."""
    rows = []
    with open(path, newline="") as fh:
        for i, row in enumerate(csv.reader(fh)):
            if not row or row[0].startswith("#"):
                continue
            if len(row) != dim:
                raise ConfigError(
                    f"init.csv row {i}", f"expected {dim} columns, got {len(row)}"
                )
            rows.append([float(v) for v in row])
    return np.array(rows, dtype=float).reshape(-1, dim)


def kernel_from_config(data, path: str, dim_expected: int | None = None):
    if data is None:
        return None
    if not isinstance(data, dict):
        raise ConfigError(path, "expected a kernel object or null")
    family = _require(data, "family", path)
    dim = _as_int(_require(data, "dim", path), f"{path}.dim", minimum=1)
    if dim_expected is not None and dim != dim_expected:
        raise ConfigError(f"{path}.dim", f"must equal the torus dimension {dim_expected}")
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"{path}.params", "expected an object")
    if not isinstance(family, str) or family not in KERNEL_FAMILIES:
        raise ConfigError(f"{path}.family", f"unknown kernel family {family!r}")
    _, factory, names = KERNEL_FAMILIES[family]
    try:
        if family != "tabulated":
            return factory(
                *(
                    _as_number(
                        _require(params, name, f"{path}.params"),
                        f"{path}.params.{name}",
                        strict_min=0.0,
                    )
                    for name in names
                ),
                dim,
            )
        if "csv" in params:
            table = np.loadtxt(params["csv"], delimiter=",", ndmin=2)
            radii, values = table[:, 0], table[:, 1]
        else:
            radii = params.get("radii")
            values = params.get("values")
            if radii is None or values is None:
                raise ConfigError(
                    f"{path}.params", "tabulated needs csv or radii+values"
                )
        return factory(
            np.asarray(radii, dtype=float),
            np.asarray(values, dtype=float),
            dim,
            **{name: float(params.get(name, 0.0)) for name in names[2:]},
        )
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(path, str(exc)) from exc


def immigration_from_config(data, path: str):
    if data is None:
        return None
    if not isinstance(data, dict):
        raise ConfigError(path, "expected an intensity object or null")
    try:
        if "constant" in data:
            return ImmigrationField(constant=_as_number(
                data["constant"], f"{path}.constant", minimum=0.0))
        if "grid" in data:
            return ImmigrationField(grid=np.asarray(data["grid"], dtype=float))
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(path, str(exc)) from exc
    raise ConfigError(path, "expected a 'constant' or 'grid' intensity")


@dataclass
class RunConfig:
    """Fully resolved run configuration."""

    model: ModelSpec
    torus: Torus
    init_poisson: float | None
    init_points: np.ndarray | None
    t_end: float
    snapshot_times: tuple[float, ...]
    burn_in: float
    replicas: int
    seed: int
    window: Window
    n_max: int
    g_bins: int
    g_r_max: float | None
    omega: float
    cert_grid: SearchGrid | None
    cert_trials: int
    cert_size_max: int
    tight_packing: bool
    out_dir: Path
    max_population: int
    audit_every: int
    raw: dict = field(default_factory=dict, repr=False)


def _default_snapshot_times(t_end: float, burn_in: float, model: ModelSpec):
    """Snapshot cadence defaults to the competition time scale."""
    if model.a_minus is not None and model.a_minus.mass() > 0.0:
        step = 1.0 / model.a_minus.mass()
    else:
        step = t_end / 10.0 if t_end > 0.0 else 1.0
    times = []
    s = burn_in
    while s < t_end - 1e-12:
        times.append(round(s, 12))
        s += step
    times.append(t_end)
    return tuple(t for t in times if t >= burn_in)


def parse_config(data: dict, base_dir: Path | None = None) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("$", "top level must be a JSON object")
    if "config" in data and isinstance(data["config"], dict):
        data = data["config"]  # accept a manifest wherever a config is accepted
    base = Path(base_dir) if base_dir else Path.cwd()

    torus_block = _require(data, "torus", "$")
    side = _as_number(_require(torus_block, "L", "torus"), "torus.L", strict_min=0.0)
    dim = _as_int(_require(torus_block, "d", "torus"), "torus.d", minimum=1)

    model_block = _require(data, "model", "$")
    variant = _require(model_block, "variant", "model")
    a_plus = kernel_from_config(model_block.get("a_plus"), "model.a_plus", dim)
    a_minus = kernel_from_config(model_block.get("a_minus"), "model.a_minus", dim)
    b = immigration_from_config(model_block.get("b"), "model.b")
    m = _as_number(model_block.get("m", 0.0), "model.m", minimum=0.0)
    try:
        model = ModelSpec(variant=variant, a_plus=a_plus, a_minus=a_minus, m=m, b=b)
    except Exception as exc:
        raise ConfigError("model", str(exc)) from exc

    cutoffs = [k.cutoff_radius() for k in (a_plus, a_minus) if k is not None]
    torus = Torus.for_cutoff(side, dim, max(cutoffs) if cutoffs else 0.0)

    init_block = data.get("init", {"poisson": 1.0})
    init_poisson = None
    init_points = None
    if "poisson" in init_block:
        init_poisson = _as_number(init_block["poisson"], "init.poisson", minimum=0.0)
    elif "csv" in init_block:
        init_points = load_points_csv(base / init_block["csv"], dim)
    elif "points" in init_block:
        init_points = np.asarray(init_block["points"], dtype=float).reshape(-1, dim)
    else:
        raise ConfigError("init", "expected 'poisson', 'csv', or 'points'")

    schedule = data.get("schedule", {})
    t_end = _as_number(schedule.get("t_end", 1.0), "schedule.t_end", minimum=0.0)
    burn_in = _as_number(
        schedule.get("burn_in", t_end / 2.0), "schedule.burn_in", minimum=0.0
    )
    if burn_in > t_end:
        raise ConfigError("schedule.burn_in", "must not exceed t_end")
    if "snapshot_times" in schedule:
        times = schedule["snapshot_times"]
        if not isinstance(times, list) or not times:
            raise ConfigError("schedule.snapshot_times", "expected a nonempty list")
        snapshot_times = tuple(
            _as_number(s, f"schedule.snapshot_times[{i}]", minimum=0.0)
            for i, s in enumerate(times)
        )
        if any(s > t_end for s in snapshot_times):
            raise ConfigError("schedule.snapshot_times", "times must not exceed t_end")
    else:
        snapshot_times = _default_snapshot_times(t_end, burn_in, model)

    replicas = _as_int(data.get("replicas", 1), "replicas", minimum=1)
    seed = _as_int(data.get("seed", 0), "seed", minimum=0)

    analysis = data.get("analysis", {})
    if "window" in analysis:
        w = analysis["window"]
        try:
            window = Window(tuple(w["lo"]), tuple(w["hi"]))
        except Exception as exc:
            raise ConfigError("analysis.window", str(exc)) from exc
        if window.dim != dim:
            raise ConfigError("analysis.window", f"dimension must be {dim}")
        if any(h > side for h in window.hi):
            raise ConfigError("analysis.window", "window exceeds the box")
    else:
        window = Window((0.0,) * dim, (side,) * dim)
    n_max = _as_int(analysis.get("n_max", 3), "analysis.n_max", minimum=1)
    g_bins = _as_int(analysis.get("g_bins", 20), "analysis.g_bins", minimum=1)
    g_r_max = None
    if "g_r_max" in analysis:
        g_r_max = _as_number(
            analysis["g_r_max"], "analysis.g_r_max", strict_min=0.0
        )
    elif a_minus is not None or a_plus is not None:
        radius = max(
            k.characteristic_radius() for k in (a_plus, a_minus) if k is not None
        )
        g_r_max = min(side / 2.0, 5.0 * radius)

    cert = data.get("certificate", {})
    omega = _as_number(cert.get("omega", 1.0), "certificate.omega", strict_min=0.0)
    cert_grid = None
    if any(k in cert for k in ("epsilons", "radii", "h_factors")):
        for key in ("epsilons", "radii"):
            if key not in cert:
                raise ConfigError(
                    f"certificate.{key}", "needed when overriding the search grid"
                )
        try:
            cert_grid = SearchGrid(
                epsilons=tuple(cert["epsilons"]),
                radii=tuple(cert["radii"]),
                h_factors=tuple(cert.get("h_factors", (0.5, 1.0, 2.0))),
            )
        except Exception as exc:
            raise ConfigError("certificate", str(exc)) from exc
    cert_trials = _as_int(cert.get("trials", 100_000), "certificate.trials", minimum=1)
    cert_size_max = _as_int(cert.get("size_max", 30), "certificate.size_max", minimum=1)
    tight_packing = bool(cert.get("tight_packing", False))

    output = data.get("output", {})
    out_dir = Path(output.get("dir", "runs/latest"))
    if not out_dir.is_absolute():
        out_dir = base / out_dir

    guard = data.get("guard", {})
    max_population = _as_int(
        guard.get("max_population", DEFAULT_MAX_POPULATION),
        "guard.max_population",
        minimum=1,
    )
    audit_every = _as_int(guard.get("audit_every", 0), "guard.audit_every", minimum=0)

    return RunConfig(
        model=model,
        torus=torus,
        init_poisson=init_poisson,
        init_points=init_points,
        t_end=t_end,
        snapshot_times=snapshot_times,
        burn_in=burn_in,
        replicas=replicas,
        seed=seed,
        window=window,
        n_max=n_max,
        g_bins=g_bins,
        g_r_max=g_r_max,
        omega=omega,
        cert_grid=cert_grid,
        cert_trials=cert_trials,
        cert_size_max=cert_size_max,
        tight_packing=tight_packing,
        out_dir=out_dir,
        max_population=max_population,
        audit_every=audit_every,
        raw=data,
    )


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError("$", f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError("$", f"invalid JSON: {exc}") from exc
    return parse_config(data, base_dir=path.parent)


def kernel_to_config(kernel: RadialKernel | None):
    if kernel is None:
        return None
    for family, (cls, _, names) in KERNEL_FAMILIES.items():
        if isinstance(kernel, cls):
            return {
                "family": family,
                "params": {
                    name: np.asarray(getattr(kernel, name)).tolist() for name in names
                },
                "dim": kernel.dim,
            }
    raise ConfigError("model", f"cannot serialize kernel type {type(kernel)!r}")


def resolved_config_dict(cfg: RunConfig) -> dict:
    """The config with every default made explicit; manifests embed this."""
    model = {
        "variant": cfg.model.variant,
        "a_plus": kernel_to_config(cfg.model.a_plus),
        "a_minus": kernel_to_config(cfg.model.a_minus),
        "m": cfg.model.m,
    }
    if cfg.model.b is not None:
        if cfg.model.b.grid is None:
            model["b"] = {"constant": cfg.model.b.constant}
        else:
            model["b"] = {"grid": cfg.model.b.grid.tolist()}
    else:
        model["b"] = None
    out = {
        "model": model,
        "torus": {"L": cfg.torus.side, "d": cfg.torus.dim},
        "init": (
            {"poisson": cfg.init_poisson}
            if cfg.init_poisson is not None
            else {"points": cfg.init_points.tolist()}
        ),
        "schedule": {
            "t_end": cfg.t_end,
            "snapshot_times": list(cfg.snapshot_times),
            "burn_in": cfg.burn_in,
        },
        "replicas": cfg.replicas,
        "seed": cfg.seed,
        "analysis": {
            "window": {"lo": list(cfg.window.lo), "hi": list(cfg.window.hi)},
            "n_max": cfg.n_max,
            "g_bins": cfg.g_bins,
            **({"g_r_max": cfg.g_r_max} if cfg.g_r_max is not None else {}),
        },
        "certificate": {
            "omega": cfg.omega,
            **(
                {
                    "epsilons": list(cfg.cert_grid.epsilons),
                    "radii": list(cfg.cert_grid.radii),
                    "h_factors": list(cfg.cert_grid.h_factors),
                }
                if cfg.cert_grid is not None
                else {}
            ),
            "trials": cfg.cert_trials,
            "size_max": cfg.cert_size_max,
            "tight_packing": cfg.tight_packing,
        },
        "guard": {
            "max_population": cfg.max_population,
            "audit_every": cfg.audit_every,
        },
        "output": {"dir": str(cfg.out_dir)},
    }
    return out


def replica_rng(seed: int, replica: int) -> np.random.Generator:
    """Independent stream per replica: the seed list [seed, replica] feeds
    numpy's SeedSequence, whose documented hash mixes them into the state."""
    return np.random.default_rng(np.random.SeedSequence([seed, replica]))


def initial_configuration(
    cfg: RunConfig, rng: np.random.Generator
) -> TorusConfiguration:
    from .geometry import sample_poisson

    if cfg.init_poisson is not None:
        return sample_poisson(cfg.torus, cfg.init_poisson, rng)
    conf = TorusConfiguration(cfg.torus)
    for x in cfg.init_points:
        conf.insert(x)
    return conf

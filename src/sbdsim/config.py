"""Run configuration: one table of fields, read from JSON and written back.

``FIELDS`` lists each config field once; ``parse_config`` walks it to read
and check a config, ``resolved_config_dict`` to write it back with every
default made explicit.  Errors name the field path, so a bad config fails
with a usage message, not a traceback.  Relative paths in a config start at
its directory.  Every run writes a manifest that embeds the resolved config,
with ``output.dir`` absolute; feeding a manifest back in reproduces the run
bit for bit, into the same directory.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from operator import attrgetter
from pathlib import Path
from typing import Callable

import numpy as np

from .certificate import CertificationError, SearchGrid
from .certificate import DEFAULT_OMEGA, DEFAULT_SIZE_MAX, DEFAULT_TRIALS
from .dynamics import DEFAULT_MAX_POPULATION, DynamicsError, ModelSpec, RefusedStart
from .geometry import Torus, TorusConfiguration, Window
from .kernels import (
    ExponentialKernel,
    GaussianKernel,
    ImmigrationField,
    TabulatedKernel,
    TriangularKernel,
)
from .statistics import DEFAULT_BINS, DEFAULT_N_MAX

# family -> kernel class; a config's params are the class's fields but dim
KERNEL_FAMILIES = {
    "gaussian": GaussianKernel,
    "triangular": TriangularKernel,
    "exponential": ExponentialKernel,
    "tabulated": TabulatedKernel,
}

# the default snapshot cadence takes at most this many times
MAX_DEFAULT_SNAPSHOTS = 1000


class ConfigError(ValueError):
    """Invalid configuration; message carries the JSON field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"config error at {path}: {message}")


def _require(data: dict, key: str, path: str):
    if key not in data:
        raise ConfigError(f"{path}.{key}", "missing required field")
    return data[key]


def _as_type(value, path: str, kind: type = dict, what: str = "an object"):
    if not isinstance(value, kind):
        raise ConfigError(path, f"expected {what}, got {value!r}")
    return value


def _as_number(value, path: str, minimum=None, strict_min=None, most=None) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(path, f"expected a number, got {value!r}")
    v = float(value)
    if not math.isfinite(v):
        raise ConfigError(path, "must be finite")
    if minimum is not None and v < minimum:
        raise ConfigError(path, f"must be >= {minimum}, got {v}")
    if strict_min is not None and v <= strict_min:
        raise ConfigError(path, f"must be > {strict_min}, got {v}")
    if most is not None and v > most:
        raise ConfigError(path, f"must be <= {most}, got {v}")
    return v


def _as_int(value, path: str, minimum=None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(path, f"must be >= {minimum}, got {value}")
    return value


def _as_points(rows, path: str, dim: int) -> np.ndarray:
    """Positions as an (n, dim) array of finite floats; a flat list in d=1."""
    try:
        points = np.array(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(path, f"expected rows of {dim} numbers: {exc}") from None
    if points.size == 0 or (dim == 1 and points.ndim == 1):
        points = points.reshape(-1, dim)
    if points.ndim != 2 or points.shape[1] != dim or not np.isfinite(points).all():
        raise ConfigError(path, f"expected rows of {dim} finite numbers")
    return points


def _number(minimum=None, strict_min=None, most=None):
    """A reader of a number; ``most`` is a function of the values read so far."""
    return lambda value, path, got: _as_number(
        value, path, minimum, strict_min, None if most is None else most(got)
    )


def _integer(minimum: int):
    return lambda value, path, got: _as_int(value, path, minimum)


def _kind(kind: type, what: str):
    return lambda value, path, got: _as_type(value, path, kind, what)


def _kernel_params(cls) -> list[str]:
    """A kernel family's parameter names, in its constructor's order."""
    return [f.name for f in fields(cls) if f.name != "dim"]


def _read_kernel(data, path, got):
    data = _as_type(data, path)
    family = _require(data, "family", path)
    dim = _as_int(_require(data, "dim", path), f"{path}.dim", minimum=1)
    if dim != got["torus.dim"]:
        raise ConfigError(f"{path}.dim", f"must equal torus.d = {got['torus.dim']}")
    where = f"{path}.params"
    params = _as_type(data.get("params", {}), where)
    if not isinstance(family, str) or family not in KERNEL_FAMILIES:
        raise ConfigError(f"{path}.family", f"unknown kernel family {family!r}")
    cls = KERNEL_FAMILIES[family]
    names = _kernel_params(cls)
    try:
        if family != "tabulated":
            args = (
                _as_number(_require(params, n, where), f"{where}.{n}", strict_min=0.0)
                for n in names
            )
            return cls(*args, dim=dim)
        if "csv" in params:  # a file of (radius, value) rows
            table = np.loadtxt(got["base_dir"] / params["csv"], delimiter=",", ndmin=2)
            radii, values = table.T[:2]
        elif "radii" in params and "values" in params:
            radii, values = params["radii"], params["values"]
        else:
            raise ConfigError(where, "tabulated needs csv or radii+values")
        tails = {n: _as_number(params.get(n, 0.0), f"{where}.{n}") for n in names[2:]}
        return cls(radii, values, dim=dim, **tails)
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(path, str(exc)) from exc


def _write_kernel(kernel):
    for family, cls in KERNEL_FAMILIES.items():
        if isinstance(kernel, cls):
            params = {
                n: np.asarray(getattr(kernel, n)).tolist() for n in _kernel_params(cls)
            }
            return {"family": family, "params": params, "dim": kernel.dim}
    raise ConfigError("model", f"cannot serialize kernel type {type(kernel)!r}")


def _read_immigration(data, path, got):
    data = _as_type(data, path)
    if "constant" in data:
        return ImmigrationField(constant=_as_number(
            data["constant"], f"{path}.constant", minimum=0.0))
    if "grid" not in data:
        raise ConfigError(path, "expected a 'constant' or 'grid' intensity")
    try:
        b = ImmigrationField(grid=np.asarray(data["grid"], dtype=float))
    except (TypeError, ValueError) as exc:
        raise ConfigError(path, str(exc)) from exc
    if b.dim != got["torus.dim"]:
        raise ConfigError(path, f"grid has {b.dim} axes, torus.d is {got['torus.dim']}")
    return b


def _write_immigration(b):
    return {"constant": b.constant} if b.grid is None else {"grid": b.grid.tolist()}


def _read_init_points(block, path, got):
    """Points inline or in a CSV file of one point per row (# starts a
    comment), or None when the block gives a Poisson density."""
    block = _as_type(block, path)
    if "poisson" in block:
        return None
    if "csv" in block:
        try:
            rows = np.loadtxt(got["base_dir"] / block["csv"], delimiter=",", ndmin=2)
        except (OSError, TypeError, ValueError) as exc:
            raise ConfigError(f"{path}.csv", f"cannot read points: {exc}") from None
        return _as_points(rows, f"{path}.csv", got["torus.dim"])
    if "points" in block:
        return _as_points(block["points"], f"{path}.points", got["torus.dim"])
    raise ConfigError(path, "expected 'poisson', 'csv', or 'points'")


def _read_snapshot_times(times, path, got) -> tuple[float, ...]:
    if not isinstance(times, list) or not times:
        raise ConfigError(path, "expected a nonempty list")
    times = tuple(
        _as_number(s, f"{path}[{i}]", minimum=0.0, most=got["t_end"])
        for i, s in enumerate(times)
    )
    if len(set(times)) < len(times):  # snapshots.csv tells them apart by time alone
        raise ConfigError(path, "snapshot times must be distinct")
    return times


def _default_snapshot_times(got) -> tuple[float, ...]:
    """Snapshot cadence defaults to the competition time scale: burn_in +
    k * step before t_end, rounded to 12 decimals but not below burn_in, then
    t_end, the step widened so that there are at most MAX_DEFAULT_SNAPSHOTS
    times."""
    t_end, burn_in, a_minus = got["t_end"], got["burn_in"], got["model.a_minus"]
    if a_minus is not None and a_minus.mass() > 0.0:
        step = 1.0 / a_minus.mass()
    else:
        step = t_end / 10.0 if t_end > 0.0 else 1.0
    step = max(step, (t_end - burn_in) / (MAX_DEFAULT_SNAPSHOTS - 1))
    times = []
    for k in range(MAX_DEFAULT_SNAPSHOTS - 1):
        s = burn_in + k * step
        if s >= t_end - 1e-12:
            break
        times.append(max(round(s, 12), burn_in))
    return (*times, t_end)


def _read_window(w, path, got) -> Window:
    w = _as_type(w, path)
    try:
        window = Window(tuple(w["lo"]), tuple(w["hi"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(path, str(exc)) from exc
    if window.dim != got["torus.dim"]:
        raise ConfigError(path, f"dimension must be {got['torus.dim']}")
    if any(h > got["torus.side"] for h in window.hi):
        raise ConfigError(path, "window exceeds the box")
    return window


def _default_g_r_max(got) -> float | None:
    """Five interaction radii, at most half the box; None without kernels."""
    kernels = [got[k] for k in ("model.a_plus", "model.a_minus") if got[k] is not None]
    if not kernels:
        return None
    radius = max(k.characteristic_radius() for k in kernels)
    return min(got["torus.side"] / 2.0, 5.0 * radius)


def _read_grid(block, path, got) -> SearchGrid | None:
    """The certificate block's override of the search grid, if any; the
    retired ``epsilons`` is refused."""
    block = _as_type(block, path)
    if "epsilons" in block:
        raise ConfigError(
            f"{path}.epsilons",
            "no longer an option: epsilon is derived from the cell sum, "
            "riemann_upper_sum(h) - mass",
        )
    if "radii" not in block and "h_factors" not in block:
        return None
    radii = _require(block, "radii", path)
    try:
        return SearchGrid(radii, block.get("h_factors", SearchGrid.h_factors))
    except (TypeError, ValueError, CertificationError) as exc:
        raise ConfigError(path, str(exc)) from exc


def _write_grid(grid):
    return {"radii": list(grid.radii), "h_factors": list(grid.h_factors)}


def _read_out_dir(value, path, got) -> Path:
    """A directory; a relative one starts at the config's directory."""
    return got["base_dir"] / _as_type(value, path, str, "a string")


_MISSING = object()  # a field without a default, or a path without a value


@dataclass(frozen=True)
class Field:
    """One row of ``FIELDS``.

    ``attr`` is the ``RunConfig`` attribute the field fills (``model.m`` for
    one of the ``ModelSpec``).  ``read(value, path, got)`` checks a JSON
    value, given ``got``, the values read before it by attribute and
    ``base_dir``.  ``default`` is the value, or a function of ``got`` that
    gives it.  A field whose default is None reads and writes null as None;
    any other field's None is left out of the JSON.  ``write`` turns any
    other value back into JSON; a dict it returns for a block is merged into
    the block.
    """

    attr: str
    read: Callable
    default: object = _MISSING
    write: Callable = lambda value: value


FIELDS = {
    "torus.L": Field("torus.side", _number(strict_min=0.0)),
    "torus.d": Field("torus.dim", _integer(1)),
    "model.variant": Field("model.variant", lambda value, path, got: value),
    "model.a_plus": Field("model.a_plus", _read_kernel, None, _write_kernel),
    "model.a_minus": Field("model.a_minus", _read_kernel, None, _write_kernel),
    "model.m": Field("model.m", _number(minimum=0.0), 0.0),
    "model.b": Field("model.b", _read_immigration, None, _write_immigration),
    "init": Field(
        "init_points",
        _read_init_points,
        lambda got: None,
        lambda points: {"points": points.tolist()},
    ),
    "init.poisson": Field(
        "init_poisson",
        _number(minimum=0.0),
        lambda got: 1.0 if got["init_points"] is None else None,
    ),
    "schedule.t_end": Field("t_end", _number(minimum=0.0), 1.0),
    "schedule.burn_in": Field(
        "burn_in",
        _number(minimum=0.0, most=lambda got: got["t_end"]),
        lambda got: got["t_end"] / 2.0,
    ),
    "schedule.snapshot_times": Field(
        "snapshot_times", _read_snapshot_times, _default_snapshot_times, list
    ),
    "replicas": Field("replicas", _integer(1), 1),
    "seed": Field("seed", _integer(0), 0),
    "analysis.window": Field(
        "window",
        _read_window,
        lambda got: Window(
            (0.0,) * got["torus.dim"], (got["torus.side"],) * got["torus.dim"]
        ),
        lambda w: {"lo": list(w.lo), "hi": list(w.hi)},
    ),
    "analysis.n_max": Field("n_max", _integer(1), DEFAULT_N_MAX),
    "analysis.g_bins": Field("g_bins", _integer(1), DEFAULT_BINS),
    "analysis.g_r_max": Field(
        "g_r_max",
        _number(strict_min=0.0, most=lambda got: got["torus.side"] / 2.0),
        _default_g_r_max,
    ),
    "certificate.omega": Field("omega", _number(strict_min=0.0), DEFAULT_OMEGA),
    "certificate": Field("cert_grid", _read_grid, lambda got: None, _write_grid),
    "certificate.trials": Field("cert_trials", _integer(1), DEFAULT_TRIALS),
    "certificate.size_max": Field("cert_size_max", _integer(2), DEFAULT_SIZE_MAX),
    "certificate.tight_packing": Field("tight_packing", _kind(bool, "a boolean"), True),
    "guard.max_population": Field(
        "max_population", _integer(1), DEFAULT_MAX_POPULATION
    ),
    "guard.audit_every": Field("audit_every", _integer(0), 0),
    "output.dir": Field(
        "out_dir",
        _read_out_dir,
        lambda got: got["base_dir"] / "runs/latest",
        lambda out_dir: str(out_dir.absolute()),
    ),
}


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


def _pop_part(got: dict, head: str) -> dict:
    prefix = head + "."
    return {a[len(prefix):]: got.pop(a) for a in list(got) if a.startswith(prefix)}


def parse_config(data: dict, base_dir: Path | None = None) -> RunConfig:
    """Read, default and check every field of ``FIELDS``, in its order."""
    data = _as_type(data, "$")
    if isinstance(data.get("config"), dict):
        data = data["config"]  # accept a manifest wherever a config is accepted
    got = {"base_dir": Path(base_dir) if base_dir else Path.cwd()}
    for path, field in FIELDS.items():
        block, _, key = path.rpartition(".")  # an absent block reads as empty
        node = _as_type(data.get(block, {}), block) if block else data
        value = node.get(key, _MISSING)
        if value is _MISSING:
            if field.default is _MISSING:
                raise ConfigError(path, "missing required field")
            value = field.default(got) if callable(field.default) else field.default
        elif value is not None or field.default is not None:
            value = field.read(value, path, got)
        got[field.attr] = value
    del got["base_dir"]
    try:
        model = ModelSpec(**_pop_part(got, "model"))
    except DynamicsError as exc:
        raise ConfigError("model", str(exc)) from exc
    return RunConfig(model=model, torus=Torus(**_pop_part(got, "torus")), **got)


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError("$", f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError("$", f"invalid JSON: {exc}") from exc
    return parse_config(data, base_dir=path.parent)


def resolved_config_dict(cfg: RunConfig) -> dict:
    """The config with every default made explicit; manifests embed this."""
    out = {}
    for path, field in FIELDS.items():
        value = attrgetter(field.attr)(cfg)
        if value is not None:
            value = field.write(value)
        elif field.default is not None:
            continue
        block, _, key = path.rpartition(".")
        node = out.setdefault(block, {}) if block else out
        if isinstance(value, dict):
            node.setdefault(key, {}).update(value)
        else:
            node[key] = value
    return out


def replica_rng(seed: int, replica: int) -> np.random.Generator:
    """Independent stream per replica: the seed list [seed, replica] feeds
    numpy's SeedSequence, whose documented hash mixes them into the state."""
    return np.random.default_rng(np.random.SeedSequence([seed, replica]))


def initial_configuration(
    cfg: RunConfig, rng: np.random.Generator
) -> TorusConfiguration | RefusedStart:
    """A replica's start: the config's points, or a Poisson draw, made as
    ``geometry.sample_poisson`` makes it.  A Poisson count past
    ``max_population`` draws no position and comes back as a
    ``RefusedStart``, which ``run`` refuses as it refuses any start above
    the guard, so an oversized start allocates nothing."""
    torus = cfg.torus
    if cfg.init_poisson is None:
        return TorusConfiguration(torus, cfg.init_points)
    n = rng.poisson(cfg.init_poisson * torus.volume)
    if n > cfg.max_population:
        return RefusedStart(torus, n)
    return TorusConfiguration(torus, rng.uniform(0.0, torus.side, (n, torus.dim)))

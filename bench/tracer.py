"""Span tracer for the benchmark's traced run, and the per-layer metrics.

The tracer replaces the functions each sbdsim layer exposes with wrappers
that record one span per call: name, start, end, parent span and workload
run id.  It patches the name each caller looks up -- ``cli`` imports ``run``
and friends by name, so ``sbdsim.cli.run`` is patched next to
``sbdsim.dynamics.run`` -- and restores every original afterwards.  Spans
stay in compact in-memory columns and are written out once the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (owner, attribute, span name).  An owner is a module or "module:Class".
TARGETS = (
    ("sbdsim.config", "load_config", "config.load_config"),
    ("sbdsim.cli", "load_config", "config.load_config"),
    ("sbdsim.config", "parse_config", "config.parse_config"),
    ("sbdsim.config", "initial_configuration", "config.initial_configuration"),
    ("sbdsim.cli", "initial_configuration", "config.initial_configuration"),
    ("sbdsim.geometry", "sample_poisson", "geometry.sample_poisson"),
    ("sbdsim.geometry:TorusConfiguration", "insert", "geometry.insert"),
    ("sbdsim.geometry:TorusConfiguration", "remove", "geometry.remove"),
    ("sbdsim.geometry:TorusConfiguration", "neighbors_within", "geometry.neighbors_within"),
    ("sbdsim.geometry:TorusConfiguration", "kernel_sum_at", "geometry.kernel_sum_at"),
    ("sbdsim.kernels:RadialKernel", "profile", "kernels.profile"),
    ("sbdsim.kernels:RadialKernel", "sample_displacement", "kernels.sample_displacement"),
    ("sbdsim.kernels:GaussianKernel", "sample_displacement", "kernels.sample_displacement"),
    ("sbdsim.dynamics", "run", "dynamics.run"),
    ("sbdsim.cli", "run", "dynamics.run"),
    ("sbdsim.dynamics:SimulationState", "total_rates", "dynamics.total_rates"),
    ("sbdsim.dynamics:SimulationState", "death_rates", "dynamics.death_rates"),
    ("sbdsim.cli", "cmd_simulate", "cli.cmd_simulate"),
    ("sbdsim.cli", "build_moment_report", "statistics.build_moment_report"),
    ("sbdsim.statistics", "pair_correlation", "statistics.pair_correlation"),
    ("sbdsim.certificate", "certify", "certificate.certify"),
    ("sbdsim.certificate", "verify_certificate", "certificate.verify_certificate"),
    ("sbdsim.certificate", "u_theta", "certificate.u_theta"),
    ("sbdsim.certificate", "riemann_upper_sum", "certificate.riemann_upper_sum"),
    ("sbdsim.certificate:Certificate", "self_check", "certificate.self_check"),
)


def _points_arg(args, kwargs):
    return kwargs["points"] if "points" in kwargs else args[0]


# A hook turns one call into a number stored with its span.
HOOKS = {
    # neighbours found by the query
    "geometry.neighbors_within": lambda args, kwargs, result: len(result[0]),
    # 1 when the configuration has fewer than two points and so can refute nothing
    "certificate.u_theta": lambda args, kwargs, result: float(
        len(_points_arg(args, kwargs)) < 2
    ),
}


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Tracer:
    """Records spans around calls into the package while installed."""

    def __init__(self):
        self.t0 = perf_counter()
        self.names: list[str] = []
        self._code: dict[str, int] = {}
        self.codes = array("i")
        self.parents = array("i")
        self.runs = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.values = array("d")
        self.run_id = 0
        self.missing: list[str] = []
        self._stack = [-1]

    def code_of(self, name: str) -> int:
        if name not in self._code:
            self._code[name] = len(self.names)
            self.names.append(name)
        return self._code[name]

    def _wrap(self, fn, name: str):
        code = self.code_of(name)
        hook = HOOKS.get(name)
        codes, parents, runs = self.codes, self.parents, self.runs
        starts, ends, values, stack = self.starts, self.ends, self.values, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(codes)
            codes.append(code)
            parents.append(stack[-1])
            runs.append(self.run_id)
            values.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                values[idx] = hook(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore."""
        restore = []
        try:
            for owner_name, attr, name in TARGETS:
                owner = _resolve(owner_name)
                if isinstance(owner, type):
                    original = owner.__dict__.get(attr)
                else:
                    original = getattr(owner, attr, None)
                if original is None:
                    self.missing.append(f"{owner_name}.{attr}")
                    continue
                setattr(owner, attr, self._wrap(original, name))
                restore.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def columns(self) -> dict:
        return {
            "code": np.frombuffer(self.codes, dtype=np.intc),
            "parent": np.frombuffer(self.parents, dtype=np.intc),
            "run": np.frombuffer(self.runs, dtype=np.intc),
            "start": np.frombuffer(self.starts, dtype=float) - self.t0,
            "end": np.frombuffer(self.ends, dtype=float) - self.t0,
            "value": np.frombuffer(self.values, dtype=float),
        }

    def write(self, path) -> None:
        """Write every span as gzip-compressed CSV, times in s since creation."""
        cols = self.columns()
        with gzip.open(path, "wt") as fh:
            fh.write("id,name,start_s,end_s,parent,run,value\n")
            for i in range(len(cols["code"])):
                fh.write(
                    f"{i},{self.names[cols['code'][i]]},{cols['start'][i]!r},"
                    f"{cols['end'][i]!r},{cols['parent'][i]},{cols['run'][i]},"
                    f"{cols['value'][i]!r}\n"
                )


# name -> unit, in the order BENCHMARK.json lists them.
LAYER_METRICS = {
    "dynamics.self_us_per_event": "us",
    "dynamics.total_rates_us": "us",
    "dynamics.death_rates_us": "us",
    "dynamics.events": "count",
    "dynamics.births": "count",
    "dynamics.deaths": "count",
    "dynamics.state_build_s": "s",
    "geometry.neighbors_within_calls": "count",
    "geometry.neighbors_within_us": "us",
    "geometry.neighbors_found_mean": "count",
    "geometry.insert_us": "us",
    "geometry.remove_us": "us",
    "geometry.kernel_sum_at_calls": "count",
    "geometry.kernel_sum_at_us": "us",
    "geometry.sample_poisson_s": "s",
    "kernels.profile_calls": "count",
    "kernels.profile_us": "us",
    "kernels.sample_displacement_us": "us",
    "cli.self_s": "s",
    "cli.trace_bytes": "bytes",
    "statistics.build_moment_report_s": "s",
    "statistics.pair_correlation_s": "s",
    "certificate.u_theta_calls": "count",
    "certificate.u_theta_us": "us",
    "certificate.verify_self_us_per_trial": "us",
    "certificate.trivial_trials_frac": "ratio",
    "certificate.certify_s": "s",
    "certificate.riemann_upper_sum_calls": "count",
    "certificate.self_check_s": "s",
    "config.load_s": "s",
    "config.initial_configuration_s": "s",
    "package.import_s": "s",
    "trace.overhead_frac": "ratio",
}


def layer_metrics(tracer: Tracer, runs, counts: dict) -> dict:
    """Per-layer metrics from the spans of one traced unit.

    ``runs`` are the simulator calls of that unit as timed from outside (see
    ``workloads.LoopClock``), in call order, so the k-th one is the k-th
    ``dynamics.run`` span.  ``counts`` carries numbers measured outside the
    spans: trials, trace_bytes, import_s and overhead_frac.  A metric whose
    spans never fired is None: absent, not zero.
    """
    cols = tracer.columns()
    code, parent = cols["code"], cols["parent"]
    start, end, value = cols["start"], cols["end"], cols["value"]
    dur = end - start
    dur_us = dur * 1e6
    has_parent = parent >= 0
    child_s = np.zeros(dur.size)
    np.add.at(child_s, parent[has_parent], dur[has_parent])
    self_s = dur - child_s
    layer = np.array([n.split(".")[0] for n in tracer.names], dtype=object)[code]

    def mask(*names):
        codes = [tracer._code[n] for n in names if n in tracer._code]
        return np.isin(code, codes)

    def calls(name):
        n = int(mask(name).sum())
        return n or None

    def mean(name, of):
        m = mask(name)
        return float(of[m].mean()) if m.any() else None

    def total_s(*names):
        """Time in the named spans, not counting one nested inside another."""
        m = mask(*names)
        if not m.any():
            return None
        outer = m & ~(has_parent & m[np.where(has_parent, parent, 0)])
        return float(dur[outer].sum())

    run_idx = np.flatnonzero(mask("dynamics.run"))
    dyn = {}
    if runs and len(runs) == run_idx.size:
        events = sum(r.trace.n_events for r in runs)
        births = sum(r.births for r in runs)
        loop_self = 0.0
        for idx, rec in zip(run_idx, runs):
            # the loop starts at the first random draw; geometry and kernels
            # calls inside it are those layers' time, not the loop's, and the
            # benchmark's gauge is nobody's
            kids = (parent == idx) & np.isin(layer, ("geometry", "kernels"))
            kids &= start >= rec.first_draw - tracer.t0
            loop = end[idx] - (rec.first_draw - tracer.t0) - rec.gauge_wall_s
            loop_self += loop - dur[kids].sum()
        dyn = {
            "dynamics.self_us_per_event": loop_self / events * 1e6 if events else None,
            "dynamics.events": events,
            "dynamics.births": births,
            "dynamics.deaths": events - births,
            "dynamics.state_build_s": sum(r.first_draw - r.start for r in runs),
        }

    trials = counts.get("trials")
    verify = mask("certificate.verify_certificate")
    cmd = mask("cli.cmd_simulate")
    return {
        **dict.fromkeys(LAYER_METRICS),
        **dyn,
        "dynamics.total_rates_us": mean("dynamics.total_rates", dur_us),
        "dynamics.death_rates_us": mean("dynamics.death_rates", dur_us),
        "geometry.neighbors_within_calls": calls("geometry.neighbors_within"),
        "geometry.neighbors_within_us": mean("geometry.neighbors_within", dur_us),
        "geometry.neighbors_found_mean": mean("geometry.neighbors_within", value),
        "geometry.insert_us": mean("geometry.insert", dur_us),
        "geometry.remove_us": mean("geometry.remove", dur_us),
        "geometry.kernel_sum_at_calls": calls("geometry.kernel_sum_at"),
        "geometry.kernel_sum_at_us": mean("geometry.kernel_sum_at", dur_us),
        "geometry.sample_poisson_s": total_s("geometry.sample_poisson"),
        "kernels.profile_calls": calls("kernels.profile"),
        "kernels.profile_us": mean("kernels.profile", dur_us),
        "kernels.sample_displacement_us": mean("kernels.sample_displacement", dur_us),
        "cli.self_s": float(self_s[cmd].sum()) if cmd.any() else None,
        "cli.trace_bytes": counts.get("trace_bytes"),
        "statistics.build_moment_report_s": total_s("statistics.build_moment_report"),
        "statistics.pair_correlation_s": total_s("statistics.pair_correlation"),
        "certificate.u_theta_calls": calls("certificate.u_theta"),
        "certificate.u_theta_us": mean("certificate.u_theta", dur_us),
        "certificate.verify_self_us_per_trial": (
            float(self_s[verify].sum() / trials * 1e6) if verify.any() and trials else None
        ),
        "certificate.trivial_trials_frac": mean("certificate.u_theta", value),
        "certificate.certify_s": total_s("certificate.certify"),
        "certificate.riemann_upper_sum_calls": calls("certificate.riemann_upper_sum"),
        "certificate.self_check_s": total_s("certificate.self_check"),
        "config.load_s": total_s("config.load_config", "config.parse_config"),
        "config.initial_configuration_s": total_s("config.initial_configuration"),
        "package.import_s": counts.get("import_s"),
        "trace.overhead_frac": counts.get("overhead_frac"),
    }

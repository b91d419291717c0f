"""Smoke test and negative control for the benchmark itself.

Kept out of the package's test suite so that timing never fails it:

    python3 -m pytest bench/test_bench.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace, declared", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_every_metric_with_its_unit(trace, declared):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run_bench.py"), "--workload", "all",
         "--seed", "2", "--seconds", "1", "--trace", str(trace), "--scale", "0.01"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )  # fmt: skip
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC[declared]}
    for workload in (w["name"] for w in SPEC["workloads"]):
        got = {
            key.split("/", 1)[1]: metric
            for key, metric in result["metrics"].items()
            if key.startswith(workload + "/")
        }
        assert set(got) == set(want), workload
        for name, metric in got.items():
            assert metric["unit"] == want[name]
            assert isinstance(metric["value"], (int, float))


class HeavierDispersal(workloads.CertifyLongDispersal):
    """Attacks the seed certificate with a dispersal kernel 100x heavier."""

    def verify_kernels(self, cfg):
        return cfg.model.a_plus.scaled(100.0), cfg.model.a_minus


def test_negative_control_fails_the_gate(tmp_path):
    # theta_cert ~0.082 against a+ scaled 100x acts like theta ~8, far above
    # the theta ~1.23 that a few thousand random clusters already refute
    workload = HeavierDispersal(seed=2, seconds=0.0, scale=0.05, work_dir=tmp_path)
    outcome = workloads.measure(workload, seconds=0.0)
    assert outcome.attempted > 5000
    assert outcome.failed / outcome.attempted > 0.0

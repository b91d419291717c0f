import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args",
    [
        ("certificate_table.py", ["--trials", "200"]),
        ("clustering_dichotomy.py", ["--replicas", "3", "--t-end", "0.5"]),
        ("free_migration_density.py", ["--replicas", "3", "--t-end", "0.5"]),
    ],
)
def test_script_runs_at_a_tiny_size(script, args, tmp_path):
    # each documented example script runs to the end on the package sources
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()

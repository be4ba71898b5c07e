"""The scripts under scripts/ run end to end.

Each runs in its own interpreter with one BLAS thread and the source tree
on the path, as their docstrings say to run them.  The digest's hashes are
not pinned: the band product's rounding depends on the BLAS build.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120)


def test_trajectory_digest_prints_one_hash_per_case():
    proc = run_script("trajectory_digest.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 15
    for line in lines:
        assert re.fullmatch(r"\S+ +[0-9a-f]{64}", line), line


def test_coarse_step_transient_tabulates_every_step_and_mesh():
    proc = run_script("coarse_step_transient.py", "--t-final", "0.5",
                      "--split", "0.25")
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split()[:2] == ["dt", "n"]
    assert len(rows) == 12
    for row in rows:
        assert len(row.split()) == 5, row


def test_coarse_step_transient_rejects_an_empty_late_window():
    proc = run_script("coarse_step_transient.py", "--t-final", "1")
    assert proc.returncode == 2
    assert "--split" in proc.stderr
    assert proc.stdout == ""

"""The worked examples script prints exactly the recorded numbers."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import nfkit

ROOT = Path(__file__).resolve().parent.parent


# under -O every re-checked bound and identity must still hold, since the
# checks raise instead of asserting
@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["default", "optimize"])
def test_paper_examples_match_golden_output(flags):
    env = dict(os.environ, PYTHONPATH=str(Path(nfkit.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, *flags, str(ROOT / "scripts" / "run_paper_examples.py")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (ROOT / "tests" / "golden" / "paper_examples.txt").read_text()

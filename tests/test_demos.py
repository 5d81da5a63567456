"""The shipped demos run to completion against the package sources."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def test_all_demos_found():
    assert [d.name for d in DEMOS] == [
        "01_barcodes.py", "02_timeline.py", "03_linearization.py",
        "04_bounds.py"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.name)
def test_demo_runs(demo):
    # under python and python -O, which strips asserts
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for flags in ([], ["-O"]):
        run = subprocess.run([sys.executable, *flags, str(demo)], cwd=ROOT,
                             env=env, capture_output=True, text=True)
        assert run.returncode == 0, (flags, run.stderr)
        assert "Traceback" not in run.stderr
        assert run.stdout

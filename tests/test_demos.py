"""Each quick demo runs to completion as a script.

04 (mask-vs-weight training) is left out: it runs several times longer
than the others together, and criterion 5 of the acceptance suite covers
the same harness.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ("01_masked_networks", "02_single_agent_mask_training",
         "03_collaborative_training", "05_wire_format_and_cost",
         "06_output_gap_bounds")


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr

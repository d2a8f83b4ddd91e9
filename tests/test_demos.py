"""The README's worked examples run to completion.

Only the fast demos run here; the training and Grad-CAM demos repeat what
the acceptance tests already exercise and take far longer.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["01_tensor_autodiff.py", "02_pipeline_anatomy.py", "05_splits_and_protocol.py"])
def test_demo_exits_zero(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run([sys.executable, str(REPO / "demos" / script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert list(tmp_path.iterdir()) == []   # demos write nothing to the working directory

"""The library quick start in README.md runs as written."""

import re
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs(tmp_path, child_env):
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    proc = subprocess.run(
        [sys.executable, "-c", block], cwd=tmp_path, env=child_env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    eta_temporal, tail_noise_photons = map(float, proc.stdout.split())
    assert 0.0 < eta_temporal < 1.0
    assert tail_noise_photons > 0.0

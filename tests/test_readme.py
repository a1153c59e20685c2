"""The library quick start and the CLI examples in README.md run as written."""

import re
import shlex
import subprocess
import sys
from pathlib import Path

from quduct.calibration import OCCUPANCY_CSV_HEADER
from quduct.registry import REGISTRY_HEADER
from quduct.spectra import SPECTRUM_CSV_HEADER

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


def test_readme_cli_examples_run(tmp_path, child_env):
    """Every ``quduct ...`` line of the CLI "Examples" block, with its
    continuation lines, runs from an empty directory, as ``python -m quduct.cli``."""
    (block,) = re.findall(r"^Examples:\n\n```\n(.*?)^```", README.read_text(), re.M | re.S)
    commands = block.replace("\\\n", " ").splitlines()
    assert len(commands) == 6
    example_cfg = str(README.parent / "src" / "quduct" / "data" / "example_device.cfg")
    for command in commands:
        program, *argv = shlex.split(command)
        assert program == "quduct"
        argv = [example_cfg if arg == "src/quduct/data/example_device.cfg" else arg
                for arg in argv]
        proc = subprocess.run(
            [sys.executable, "-m", "quduct.cli", *argv], cwd=tmp_path, env=child_env,
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, (command, proc.stderr)
        assert proc.stderr == "", command


def test_readme_csv_section_lists_the_three_headers():
    section = README.read_text().split("\n## CSV input files\n", 1)[1].split("\n## ", 1)[0]
    headers = re.findall(r"^\|.*\| `([^`]*)` \|$", section, re.M)
    assert headers == [",".join(header) for header in
                       (REGISTRY_HEADER, OCCUPANCY_CSV_HEADER, SPECTRUM_CSV_HEADER)]

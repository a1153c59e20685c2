"""The library quick start and the CLI examples in README.md run as written."""

import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

from quduct.calibration import OCCUPANCY_CSV_HEADER
from quduct.registry import REGISTRY_HEADER
from quduct.spectra import SPECTRUM_CSV_HEADER

README = Path(__file__).resolve().parent.parent / "README.md"
EXAMPLE_CFG = str(README.parent / "src" / "quduct" / "data" / "example_device.cfg")


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


def _cli_examples() -> list:
    """(command, argv) of every ``quduct ...`` line of the CLI "Examples"
    block, with its continuation lines, the example config given by its
    absolute path."""
    (block,) = re.findall(r"^Examples:\n\n```\n(.*?)^```", README.read_text(), re.M | re.S)
    commands = block.replace("\\\n", " ").splitlines()
    assert len(commands) == 6
    examples = []
    for command in commands:
        program, *argv = shlex.split(command)
        assert program == "quduct"
        examples.append((command, [EXAMPLE_CFG if arg == "src/quduct/data/example_device.cfg"
                                   else arg for arg in argv]))
    return examples


def test_readme_cli_examples_run(tmp_path, child_env):
    """Every CLI example runs from an empty directory, as ``python -m quduct.cli``."""
    for command, argv in _cli_examples():
        proc = subprocess.run(
            [sys.executable, "-m", "quduct.cli", *argv], cwd=tmp_path, env=child_env,
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, (command, proc.stderr)
        assert proc.stderr == "", command


def test_no_other_subcommand_loads_the_filter_or_spectrum_module(tmp_path, child_env):
    """The CLI examples other than filter-analysis, and sweep, optimize, xi-e
    and fit-occupancy on tiny inputs, run in one process that never imports
    ``quduct.filters`` or ``quduct.spectra``."""
    records = tmp_path / "records.csv"
    records.write_text(",".join(OCCUPANCY_CSV_HEADER) + "\n"
                       "1000,0.713,0.05,microwave\n4000,0.752,0.05,microwave\n"
                       "9000,0.817,0.05,microwave\n")
    argvs = [argv for _, argv in _cli_examples() if argv[0] != "filter-analysis"] + [
        ["sweep", "--config", EXAMPLE_CFG, "--direction", "up", "--range-hz", "1000:2000",
         "--n", "3", "--gamma-o-hz", "11000"],
        ["optimize", "--config", EXAMPLE_CFG, "--direction", "up", "--gamma-o-hz", "11000"],
        ["xi-e", "--xi-o", "0.4", "--eps-cl", "1", "--ratio-det", "1", "--kappa-e-over-ext", "1",
         "--kappa-o-ext-over", "1", "--gamma-o-over-e", "1", "--gain-o-over-e", "1"],
        ["fit-occupancy", "--records", str(records)],
    ]
    assert len(argvs) == 9
    code = ("import contextlib, io, json, sys\n"
            "from quduct.cli import cli_dispatch\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [cli_dispatch(argv) for argv in json.loads(sys.argv[1])]\n"
            "print(codes, [m for m in ('quduct.filters', 'quduct.spectra') if m in sys.modules])\n")
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(argvs)], cwd=tmp_path, env=child_env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.stderr == ""
    assert proc.stdout == f"{[0] * len(argvs)} []\n"


def test_readme_csv_section_lists_the_three_headers():
    section = README.read_text().split("\n## CSV input files\n", 1)[1].split("\n## ", 1)[0]
    headers = re.findall(r"^\|.*\| `([^`]*)` \|$", section, re.M)
    assert headers == [",".join(header) for header in
                       (REGISTRY_HEADER, OCCUPANCY_CSV_HEADER, SPECTRUM_CSV_HEADER)]

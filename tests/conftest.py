"""Fixtures shared by the test modules."""

import os
import shutil
import tempfile
from pathlib import Path

import pytest

import quduct


def pytest_configure(config):
    """Load the one hypothesis profile: derandomized, with no example database
    and no deadline, so every run draws the same examples.  Point hypothesis's
    storage, which it fills even with ``database=None``, at a temporary
    directory instead of ``.hypothesis/`` in the working one."""
    try:
        from hypothesis import settings
        from hypothesis.configuration import set_hypothesis_home_dir
    except ImportError:  # the tests that use hypothesis fail on their own import
        return
    settings.register_profile("quduct", derandomize=True, database=None, deadline=None)
    settings.load_profile("quduct")
    home = tempfile.mkdtemp(prefix="quduct-hypothesis-")
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))
    set_hypothesis_home_dir(home)


@pytest.fixture
def child_env():
    """Environment for a child Python that imports the quduct under test.

    PYTHONPATH starts with the absolute directory holding the ``quduct``
    this process imported (``src/`` or site-packages), followed by the
    inherited entries, so a child finds the same package whatever its
    working directory is.
    """
    package_root = str(Path(quduct.__file__).resolve().parent.parent)
    inherited = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join([package_root, *inherited]))

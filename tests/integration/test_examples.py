"""Every script under ``examples/`` runs to completion.

Each is run as its own process, as a reader would run it, with the
source tree on the path.  Part of the ``figures`` suite (a few seconds
to a quarter minute per script), which tier-1 deselects::

    PYTHONPATH=src python -m pytest -m figures tests/integration/test_examples.py
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

pytestmark = pytest.mark.figures

ROOT = Path(__file__).resolve().parents[2]
SCRIPTS = sorted((ROOT / "examples").glob("*.py"))


def test_every_example_is_collected():
    assert len(SCRIPTS) >= 6


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.stem)
def test_example_exits_cleanly(script, tmp_path):
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    )}
    done = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]

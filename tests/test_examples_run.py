"""Smoke tests: every example script runs to completion.

The examples are the library's documented entry points (deliverable-level
API usage); each embeds its own assertions, so a clean exit means the
documented behaviour holds.
"""

import pathlib
import re
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
ALL_EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))

#: generous per-script budget; the heaviest (homogenization: 12 solver
#: runs) takes ~1 minute on a laptop
TIMEOUT_S = 420


def test_examples_directory_populated():
    """``examples/`` holds exactly the scripts README.md lists: a script
    added without a README entry, or a listed one that is gone, fails."""
    readme = (EXAMPLES_DIR.parent / "README.md").read_text()
    entry_points = readme.split("More entry points in `examples/`:")[1]
    listed = set(re.findall(r"`(\w+\.py)`", entry_points.split("\n\n")[0]))
    assert "quickstart.py" in ALL_EXAMPLES
    assert set(ALL_EXAMPLES) == listed


@pytest.mark.parametrize("script", ALL_EXAMPLES)
def test_example_runs(script):
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
    )
    assert proc.returncode == 0, (
        f"{script} failed:\nstdout:\n{proc.stdout[-2000:]}\n"
        f"stderr:\n{proc.stderr[-2000:]}"
    )
    assert proc.stdout.strip(), f"{script} produced no output"

"""Every demo script, and the README's library quick start, runs to completion
from a fresh copy, under the suite's warning rules (``-X dev -W error``)."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(path: Path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", str(path)],
        cwd=path.parent,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize(
    "script", sorted((ROOT / "demos").glob("0*.py")), ids=lambda path: path.name
)
def test_demo_runs(script, tmp_path):
    copy = tmp_path / script.name
    shutil.copy(script, copy)
    done = run_script(copy)
    assert done.returncode == 0, done.stderr


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"^```python\n(.*?)^```", section, re.M | re.S)
    assert block is not None, "no python block under 'Library quick start'"
    script = tmp_path / "quick_start.py"
    script.write_text(block.group(1))
    done = run_script(script)
    assert done.returncode == 0, done.stderr

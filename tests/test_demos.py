"""Each demo script and README example runs from a checkout, prints its story and
writes no file."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                           re.DOTALL | re.MULTILINE)
# written by the test runner itself, not by a demo
RUNNER_DIRS = {".git", ".pytest_cache", ".hypothesis", "__pycache__"}


def _tree(root):
    files = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in RUNNER_DIRS]
        for name in filenames:
            st = os.stat(os.path.join(dirpath, name))
            files[os.path.relpath(os.path.join(dirpath, name), root)] = (st.st_size,
                                                                        st.st_mtime_ns)
    return files


def test_every_demo_is_collected():
    assert [p.name for p in DEMOS] == ["catalog_tour.py", "certify_operators.py",
                                       "cfl_comparison.py", "kernel_verdicts.py",
                                       "vortex_decay.py"]


def _run_quietly(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    before = _tree(ROOT)
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert _tree(ROOT) == before


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    _run_quietly([str(demo)])


def test_readme_has_python_examples():
    # the quick start and the exact certification
    assert len(README_BLOCKS) == 2


@pytest.mark.parametrize("block", README_BLOCKS)
def test_readme_example_runs(block):
    _run_quietly(["-c", block])

"""Each demo script, README example and README command line runs from a checkout,
prints its story and writes no file into the checkout."""

import hashlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text()
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, re.DOTALL | re.MULTILINE)
# each line of the "Command line" block, comment dropped
COMMAND_BLOCK = re.search(r"^## Command line\n\n```\n(.*?)^```$", README, re.DOTALL | re.MULTILINE)
README_COMMANDS = [shlex.split(line, comments=True) for line in COMMAND_BLOCK[1].splitlines()]
# written by the test runner itself, not by a demo
RUNNER_DIRS = {".git", ".pytest_cache", ".hypothesis", "__pycache__"}
# sha256 of a demo's stdout, recorded while vortex_benchmark still looped over eps itself
DEMO_STDOUT_SHA256 = {
    "vortex_decay": "c1731bb07f634495f1e0e25937a47e6018774087f7fd7b169a89a4978968c1d8",
}


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


def _run_quietly(argv, cwd=ROOT):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    before = _tree(ROOT)
    proc = subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert _tree(ROOT) == before
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    out = _run_quietly([str(demo)])
    if demo.stem in DEMO_STDOUT_SHA256:
        assert hashlib.sha256(out.encode()).hexdigest() == DEMO_STDOUT_SHA256[demo.stem]


def test_readme_has_python_examples():
    # the quick start and the exact certification
    assert len(README_BLOCKS) == 2


@pytest.mark.parametrize("block", README_BLOCKS)
def test_readme_example_runs(block):
    _run_quietly(["-c", block])


def test_readme_has_command_lines():
    assert len(README_COMMANDS) == 6
    assert all(argv[0] == "acousticfd" for argv in README_COMMANDS)


@pytest.mark.parametrize("argv", README_COMMANDS, ids=lambda argv: " ".join(argv[1:]))
def test_readme_command_runs(argv, tmp_path):
    # the console script is `python -m acousticfd.cli`; files such as --out land in tmp_path
    _run_quietly(["-m", "acousticfd.cli", *argv[1:]], cwd=tmp_path)

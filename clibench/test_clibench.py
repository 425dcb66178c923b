"""Self-tests of the benchmark harness.

Run from the repository root: python3 -m pytest clibench
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SRC = os.path.join(ROOT, "src")
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_same_seed_gives_same_argv_lists():
    for w in workloads.WORKLOADS:
        assert workloads.commands(w, 7) == workloads.commands(w, 7)
        assert workloads.commands(w, 7) != workloads.commands(w, 8)


def test_metric_names_and_specs_match_benchmark_json():
    bench = _benchmark_json()
    e2e = {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]}
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert all(METRIC_NAME.match(n) for n in list(e2e) + list(per_layer))
    assert e2e == run.END_TO_END
    assert per_layer == layers.PER_LAYER
    assert set(layers.layer_metrics([], 1, 0.0)) == set(layers.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_tiny_traced_run_spans_every_wrapped_function(tmp_path):
    runner = run.Runner(SRC, str(tmp_path))
    cmds = [["certify"],
            ["analyze", "--scheme", "multid", "--k-samples", "4"],
            ["simulate", "--scheme", "roe", "--grid", "16", "--eps", "0.5", "--t-end", "15",
             "--out", workloads.OUT],
            ["sweep", "--scheme", "roe", "--grid", "16"]]
    names = set()
    for argv in cmds:
        rec = runner.run(argv, trace=True)
        assert rec["spans"], rec["reason"]
        names |= {span[2] for span in rec["spans"]}
    assert names == set(tracing.SPAN_NAMES)
    assert os.listdir(tmp_path) == []


def test_failures_are_counted_and_do_not_crash_the_runner(tmp_path):
    fake = tmp_path / "src" / "acousticfd"
    fake.mkdir(parents=True)
    (fake / "__init__.py").write_text("")
    (fake / "cli.py").write_text("def build_parser():\n    return None\n\n\n"
                                 "def main(argv):\n    raise RuntimeError('boom')\n")
    work = tmp_path / "work"
    work.mkdir()
    crashed = run.Runner(str(tmp_path / "src"), str(work)).run(["catalog"], trace=False)
    assert crashed["reason"].startswith("traceback") and "boom" in crashed["reason"]
    unknown = run.Runner(SRC, str(work)).run(["analyze", "--scheme", "nosuch"], trace=False)
    assert unknown["exit"] == 2 and unknown["reason"] and not unknown["known_defect"]
    values, _ = run.end_to_end([crashed, unknown], [run.pass_wall([crashed, unknown])])
    assert values["pass_rate"] == 0.0


def test_known_defect_covers_only_small_eps_analyze_of_preserving_schemes():
    assert checks.known_defect(["analyze", "--scheme", "multid", "--eps", "0.000001"])
    assert not checks.known_defect(["analyze", "--scheme", "roe", "--eps", "0.000001"])
    assert not checks.known_defect(["analyze", "--scheme", "multid", "--eps", "0.0001"])
    assert not checks.known_defect(["sweep", "--scheme", "multid", "--eps", "0.000001"])


def test_tail_percentile_leaves_ten_samples_beyond():
    for n in (20, 31, 62, 100, 1000):
        p = run.tail_percentile(n)
        values = list(range(n))
        assert sum(v > run.percentile(values, p) for v in values) >= 10


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "clibench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    command = [sys.executable] + _benchmark_json()["command"][1:]
    proc = subprocess.run(command + ["--workload", "exact", "--seed", "1", "--seconds", "1",
                                     "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

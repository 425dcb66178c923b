"""End-to-end benchmark of the acousticfd command line.

Usage (from the root of a source checkout):

    python3 clibench/run.py --workload exact|symbol|vortex|sweep --seed N \
        --seconds S --trace 0|1

A single client runs the workload's seeded command list as a closed loop:
each command starts in a fresh interpreter (`child.py`) only after the
previous one has ended, because a CLI user pays the import on every call.
Whole passes over the list repeat a fixed number of times, set by
--seconds. Every output is checked against reference values
(`checks.py`).

Command times are reported in units of a fixed reference kernel that each
child times just before and just after its command (`child.py`), because
the shared host's speed drifts by up to 1.5x within tens of seconds; the
wall-clock seconds are printed beside them.

With --trace 0 the last stdout line reports the end-to-end metrics; with
--trace 1 untraced and traced passes alternate, and it reports per-layer
metrics from spans recorded around the calls into each module
(`tracing.py`, `layers.py`). Earlier lines name each metric with its unit,
list failing commands and give the run's metadata.
"""

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_ref": ("ref", "lower"),
    "cmd_mean_ref": ("ref", "lower"),
    "cmd_tail_ref": ("ref", "lower"),
    "pass_rate": ("ratio", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
}

COMMAND_TIMEOUT_S = 60.0
LAST_START_S = 110.0  # no command starts later, so a run ends within 180 s
SETUP_PROBES = 8  # interpreter starts timed before the first pass
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")


class Runner:
    """Runs commands one at a time in fresh interpreters and checks them."""

    def __init__(self, src, work):
        self.src = src
        self.work = work
        self.started = time.monotonic()
        self.count = 0

    def out_of_time(self):
        return time.monotonic() - self.started > LAST_START_S

    def _spawn(self, job):
        """Run child.py on one job; returns (spawn time, wall, result dict or failure reason)."""
        self.count += 1
        job_path, result_path, err_path = (os.path.join(self.work, "cmd%d.%s" % (self.count, ext))
                                           for ext in ("job", "json", "err"))
        with open(job_path, "w") as fh:
            json.dump(dict(job, src=self.src), fh)
        try:
            with open(err_path, "w") as err:
                spawn = time.monotonic()
                proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"),
                                         job_path, result_path], cwd=self.work,
                                        stdin=subprocess.DEVNULL, stdout=err, stderr=err)
                # a blocking wait sees the exit at once; wait(timeout) polls every 50 ms
                killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
                killer.start()
                try:
                    proc.wait()
                finally:
                    killer.cancel()
                    killer.join()
                wall = time.monotonic() - spawn
            if proc.returncode == -signal.SIGKILL:
                return spawn, wall, "killed after the %.0f s timeout" % COMMAND_TIMEOUT_S
            try:
                with open(result_path) as fh:
                    res = json.load(fh)
            except (OSError, ValueError):
                with open(err_path) as fh:
                    tail = fh.read().strip().splitlines()[-1:]
                return spawn, wall, "child died: %s" % (tail[0] if tail else "no output")
            if not os.path.abspath(res["module_file"]).startswith(os.path.abspath(self.src) + os.sep):
                return spawn, wall, "imported %s, not from %s" % (res["module_file"], self.src)
            return spawn, wall, res
        finally:
            for path in (job_path, result_path, err_path):
                if os.path.exists(path):
                    os.remove(path)

    def setup_probe(self):
        """Seconds from interpreter spawn to CLI imported and parser built, or None."""
        if self.out_of_time():
            return None
        spawn, _, res = self._spawn({"argv": None, "trace": False})
        return res["ready"] - spawn if isinstance(res, dict) else None

    def run(self, argv, trace):
        """One command; returns its record. Never raises for a failing command."""
        out_dir = os.path.join(self.work, "out%d" % (self.count + 1))
        real_argv = [out_dir if a == workloads.OUT else a for a in argv]
        spawn, wall, res = self._spawn({"argv": real_argv, "trace": bool(trace)})
        rec = {"id": self.count, "argv": argv, "trace": bool(trace), "wall": wall,
               "setup": None, "cmd_s": None, "ref_s": None, "exit": None, "rss_kb": None,
               "spans": None, "reason": None, "known_defect": None}
        if not isinstance(res, dict):
            rec["reason"] = res
        else:
            rec.update(setup=res["ready"] - spawn, cmd_s=res["cmd_s"], ref_s=res["ref_s"],
                       exit=res["exit"], rss_kb=res["maxrss_kb"], spans=res["spans"])
            if res["traceback"]:
                rec["reason"] = "traceback: %s" % res["traceback"].strip().splitlines()[-1]
            else:
                rec["reason"] = checks.check(real_argv, res["exit"], res["stdout"], out_dir)
        if rec["reason"] is not None:
            rec["known_defect"] = checks.known_defect(argv)
        shutil.rmtree(out_dir, ignore_errors=True)
        return rec


def run_pass(runner, cmds, trace):
    """All commands of the list, in order; returns their records."""
    records = []
    for argv in cmds:
        if runner.out_of_time():
            break
        records.append(runner.run(argv, trace))
    return records


def pass_wall(records):
    """(seconds, reference units) of one pass: its wall clock, and that over
    the mean reference-kernel time of its commands."""
    wall = sum(r["wall"] for r in records)
    refs = [r["ref_s"] for r in records if r["ref_s"]]
    return wall, wall / statistics.fmean(refs) if refs else 0.0


def run_workload(runner, workload, cmds, seconds, trace):
    """Set-up probes, then a fixed number of whole passes over the command list.

    The pass count comes from --seconds and the workload's nominal pass time
    alone, so a commit does the same work as its parent whatever the machine's
    speed; a run stops early only when no command may start any more.
    Traced runs repeat an untraced pass followed by a traced one, so both see
    the same machine state.
    """
    rounds = max(1, int(seconds // (workloads.NOMINAL_PASS_S[workload] * (2 if trace else 1))))
    run = {"setups": [runner.setup_probe() for _ in range(SETUP_PROBES)],
           "plain": [], "traced": [], "plain_walls": [], "traced_walls": []}
    for _ in range(rounds):
        for kind, enabled in (("plain", True), ("traced", trace)):
            if enabled and not runner.out_of_time():
                recs = run_pass(runner, cmds, kind == "traced")
                run[kind] += recs
                run[kind + "_walls"].append(pass_wall(recs))
    return run


def tail_percentile(n):
    """Highest whole percentile with at least ten samples beyond it; 50 below 20 samples."""
    return max(50, math.floor(100.0 * (n - 10) / n)) if n else 50


def _median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, p):
    """Nearest-rank percentile: the smallest value with p% of samples at or below it.

    p50 is the interpolated median, which is steadier over the few commands
    of a vortex or sweep run.
    """
    if p == 50:
        return _median(values)
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def end_to_end(records, walls, probes=()):
    """End-to-end metric values and the notes printed beside them.

    walls holds the (seconds, reference units) pair of each pass.
    """
    timed = [r for r in records if r["cmd_s"] is not None and r["ref_s"]]
    cmd_refs = [r["cmd_s"] / r["ref_s"] for r in timed]
    setups = [x for x in list(probes) + [r["setup"] for r in records] if x is not None]
    wrong = sum(r["reason"] is not None for r in records)
    p = tail_percentile(len(cmd_refs))
    values = {
        "setup_s": _median(setups),
        "wall_ref": _median([ref for _, ref in walls]),
        "cmd_mean_ref": statistics.fmean(cmd_refs) if cmd_refs else 0.0,
        "cmd_tail_ref": percentile(cmd_refs, p) if cmd_refs else 0.0,
        "pass_rate": 1.0 - wrong / len(records),
        "peak_rss_mb": max((r["rss_kb"] or 0) for r in records) / 1024.0,
    }
    cmd_mean_s = statistics.fmean(r["cmd_s"] for r in timed) if timed else 0.0
    ref_ms = 1e3 * _median([r["ref_s"] for r in timed])
    notes = {"cmd_mean_ref": "mean of n=%d commands; %.4g s; reference kernel %.4g ms"
                             % (len(cmd_refs), cmd_mean_s, ref_ms),
             "cmd_tail_ref": "p%d of n=%d commands" % (p, len(cmd_refs)),
             "wall_ref": "median of %d passes; %.4g s"
                         % (len(walls), _median([seconds for seconds, _ in walls])),
             "setup_s": "median of %d interpreter starts" % len(setups),
             "pass_rate": "%d of %d commands correct" % (len(records) - wrong, len(records))}
    return values, notes


def source_digest(src):
    h = hashlib.sha256()
    pkg = os.path.join(src, "acousticfd")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def metadata(args, cmds, src):
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {"git_sha": git_sha(ROOT), "src_sha256_16": source_digest(src),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "nproc": os.cpu_count(), "affinity_cpus": affinity,
            "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "argv": cmds}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "acousticfd", "cli.py")):
        print("error: no acousticfd sources under %s" % src, file=sys.stderr)
        return 2
    cmds = workloads.commands(args.workload, args.seed)
    scratch = os.path.join(ROOT, ".clibench_work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        runner = Runner(src, work)
        run = run_workload(runner, args.workload, cmds, args.seconds, args.trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not os.listdir(scratch):
            os.rmdir(scratch)

    records = run["plain"] + run["traced"]
    if not records:
        print("error: no command started within %.0f s" % LAST_START_S, file=sys.stderr)
        return 1
    if args.trace:
        plain_wall = _median([ref for _, ref in run["plain_walls"]])
        traced_wall = _median([ref for _, ref in run["traced_walls"]])
        overhead = traced_wall / plain_wall - 1.0 if plain_wall else 0.0
        values = layers.layer_metrics([r["spans"] for r in run["traced"] if r["spans"]],
                                      len(run["traced_walls"]), overhead)
        specs, notes = layers.PER_LAYER, {}
    else:
        values, notes = end_to_end(run["plain"], run["plain_walls"], run["setups"])
        specs = END_TO_END

    unexpected = [r for r in records if r["reason"] and not r["known_defect"]]
    known = [r for r in records if r["reason"] and r["known_defect"]]
    for r in unexpected:
        print("FAILED %s: %s" % (" ".join(r["argv"]), r["reason"]))
    for r in known:
        print("known defect %s: %s [%s]" % (" ".join(r["argv"]), r["reason"], r["known_defect"]))
    for name, (unit, _) in specs.items():
        note = "  (%s)" % notes[name] if name in notes else ""
        print("%-44s %14.6g %-6s%s" % (name, values[name], unit, note))
    meta = metadata(args, cmds, src)
    print(json.dumps({"meta": meta}, sort_keys=True))

    metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _) in specs.items()}
    print(json.dumps({"correct": not unexpected, "attempted": len(records),
                      "failed": len(unexpected), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

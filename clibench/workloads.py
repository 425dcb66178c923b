"""Seeded command lists for the four benchmark workloads.

Each workload is a list of argv lists for the `acousticfd` CLI. The seed
only picks values and order; the CLI never sees it. The token OUT in an
argv stands for a fresh output directory that the runner substitutes per
command.
"""

import random

WORKLOADS = ("exact", "symbol", "vortex", "sweep")

OUT = "{out}"

CATALOG = ("central", "roe", "lowmach1", "lowmach2", "lowmach3", "multid")
ANALYZE_EPS = ("1", "0.01", "0.0001", "0.000001")

VORTEX_GRID = 64
SWEEP_GRID = 64

# Upper estimate of one pass, in seconds, on a 2-core reference machine. A run
# makes floor(--seconds / this) passes, so the pass count, and with it each
# percentile's rank, is the same on the parent and the child commit.
NOMINAL_PASS_S = {"exact": 3.5, "symbol": 12.0, "vortex": 6.0, "sweep": 10.0}


def _num(x):
    """Short, exact decimal text for a seeded float."""
    return "%.6g" % x


def _log_uniform(rng, lo_exp, hi_exp):
    return float(_num(10.0 ** rng.uniform(lo_exp, hi_exp)))


def exact_commands(rng):
    cmds = [["certify"]]
    for div in ("central", "averaged"):
        for radius in ("2", "3"):
            cmds.append(["certify", "--divergence", div, "--radius", radius])
    rng.shuffle(cmds)
    return cmds


def symbol_commands(rng):
    cmds = [["analyze", "--scheme", s, "--eps", e] for s in CATALOG for e in ANALYZE_EPS]
    for i in range(6):
        a1 = 0.0 if i < 3 else round(rng.uniform(0.1, 2.0), 3)
        a2, a3, a4 = (round(rng.uniform(-2.0, 2.0), 3) for _ in range(3))
        # eps is not seeded, so every seed analyzes the same mix of cases
        eps = ANALYZE_EPS[i % 2]
        cmds.append(["analyze", "--scheme", "dimsplit", "--eps", eps,
                     "--a1", repr(a1), "--a2", repr(a2), "--a3", repr(a3), "--a4", repr(a4)])
    cmds.append(["catalog"])
    rng.shuffle(cmds)
    return cmds


def vortex_commands(rng):
    # t_end = 30 eps at the default CFL 0.45 on 64^2 is 4267 steps for every eps
    cmds = []
    for scheme in ("roe", "multid", "multid"):
        eps = _log_uniform(rng, -3.0, 0.0)
        cmds.append(["simulate", "--scheme", scheme, "--grid", str(VORTEX_GRID),
                     "--eps", _num(eps), "--t-end", repr(30.0 * eps), "--out", OUT])
    rng.shuffle(cmds)
    return cmds


def sweep_commands(rng):
    # one roe to two multid, as in vortex, so the median command is a multid one
    # and not the mean of a 1.4 s roe and a 4 s multid command
    cmds = [["sweep", "--scheme", scheme, "--grid", str(SWEEP_GRID),
             "--eps", _num(_log_uniform(rng, -3.0, 0.0))] for scheme in ("roe", "multid", "multid")]
    rng.shuffle(cmds)
    return cmds


_LISTS = {"exact": exact_commands, "symbol": symbol_commands,
             "vortex": vortex_commands, "sweep": sweep_commands}


def commands(workload, seed):
    """The workload's argv lists for this seed; the same seed gives the same lists."""
    return _LISTS[workload](random.Random("%s:%d" % (workload, seed)))

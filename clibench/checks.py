"""Output checks for every benchmark command.

The reference values below were recorded from acousticfd at the commit that
added this benchmark and agree with the paper's claims. `check` returns None
for a correct output and a one-line reason otherwise.
"""

import json
import os

PRESERVING = ("central", "lowmach1", "lowmach2", "lowmach3", "multid")
CATALOG = ("central", "roe", "lowmach1", "lowmach2", "lowmach3", "multid")

# nullspace dimensions of the consistency problem beyond radius 1; certify
# expects 0 and 2, which hold at radius 1 only, so these commands exit 1
NULLSPACE_DIMS = {("central", 2): 4, ("central", 3): 12,
                  ("averaged", 2): 8, ("averaged", 3): 18}

MAX_STABLE_CFL = {"roe": 0.5, "multid": 1.0}

VORTEX_STEPS = 4267
ROE_RATE_TIMES_EPS = 0.30706258615
MULTID_DUX_RETENTION = 1.00578673383
REL_TOL = 1e-6

# analyze misjudges stationarity-preserving schemes at eps <= 1e-5: det_scan
# applies one relative SVD tolerance to rows that mix 1/eps^2 with c^2
DEFECT_EPS = 1e-5


def flag(argv, name, default=None):
    """Value that follows --name in argv."""
    key = "--" + name
    return argv[argv.index(key) + 1] if key in argv else default


def known_defect(argv):
    """Why this command is known to fail at the recorded reference, or None."""
    if (argv[0] == "analyze" and flag(argv, "scheme") in PRESERVING
            and float(flag(argv, "eps", "1")) <= DEFECT_EPS):
        return "small-eps stationarity misjudgment in det_scan"
    return None


def _close(value, ref):
    return value is not None and abs(value - ref) <= REL_TOL * abs(ref)


def _check_certify(argv, code, doc):
    div = flag(argv, "divergence", "both")
    radius = int(flag(argv, "radius", "1"))
    if radius == 1 and div == "both":
        if code != 0 or not doc.get("certified"):
            return "radius-1 certify not certified (exit %s)" % code
        if doc.get("central_nullspace_dim") != 0 or doc.get("averaged_nullspace_dim") != 2:
            return "radius-1 nullspace dims %s/%s, want 0/2" % (
                doc.get("central_nullspace_dim"), doc.get("averaged_nullspace_dim"))
        return None
    if code not in (0, 1):
        return "exit %s" % code
    want = NULLSPACE_DIMS[(div, radius)]
    got = doc.get("%s_nullspace_dim" % div)
    if got != want:
        return "%s nullspace dim %s at radius %d, want %d" % (div, got, radius, want)
    return None


def _check_analyze(argv, code, doc):
    scheme = flag(argv, "scheme")
    truth = scheme in PRESERVING or (scheme == "dimsplit" and float(flag(argv, "a1", "0")) == 0.0)
    if doc.get("verdict") is not truth:
        return "verdict %s, want %s" % (doc.get("verdict"), truth)
    if code != 0:
        return "exit %s with a correct verdict" % code
    return None


def _check_catalog(argv, code, doc):
    names = [s.get("name") for s in doc.get("schemes", [])]
    if code != 0 or names != list(CATALOG):
        return "catalog lists %s (exit %s)" % (names, code)
    flags = [s.get("stationarity_preserving_expected") for s in doc["schemes"]]
    if flags != [n in PRESERVING for n in CATALOG]:
        return "catalog preservation flags %s" % flags
    return None


def _check_sweep(argv, code, doc):
    want = MAX_STABLE_CFL[flag(argv, "scheme")]
    if code != 0 or doc.get("max_stable_cfl") != want:
        return "max_stable_cfl %s, want %s (exit %s)" % (doc.get("max_stable_cfl"), want, code)
    return None


def _check_simulate(argv, code, doc, out_dir):
    if code != 0:
        return "exit %s" % code
    scheme = flag(argv, "scheme")
    eps = float(flag(argv, "eps"))
    run = doc["runs"][0]
    if run.get("n_steps") != VORTEX_STEPS:
        return "n_steps %s, want %d" % (run.get("n_steps"), VORTEX_STEPS)
    missing = [f for f in run.get("files", {}).values()
               if not os.path.getsize(os.path.join(out_dir, f))]
    if missing or len(run.get("files", {})) != 3:
        return "output files %s" % run.get("files")
    if scheme == "roe":
        rate = run.get("lambda_fit")
        if not _close(rate * eps if rate is not None else None, ROE_RATE_TIMES_EPS):
            return "lambda_fit*eps %s, want %s" % (rate and rate * eps, ROE_RATE_TIMES_EPS)
    elif not _close(run.get("dux_retention"), MULTID_DUX_RETENTION):
        return "dux_retention %s, want %s" % (run.get("dux_retention"), MULTID_DUX_RETENTION)
    return None


def _load_doc(argv, stdout, out_dir):
    if argv[0] == "simulate":
        path = os.path.join(out_dir, "simulate_%s.json" % flag(argv, "scheme"))
        with open(path) as fh:
            return json.load(fh)
    return json.loads(stdout)


def check(argv, code, stdout, out_dir=None):
    """None when the command's output matches the reference, else the reason."""
    try:
        doc = _load_doc(argv, stdout, out_dir)
    except (OSError, ValueError) as err:
        return "no JSON document (exit %s): %s" % (code, err)
    try:
        if argv[0] == "simulate":
            return _check_simulate(argv, code, doc, out_dir)
        return {"certify": _check_certify, "analyze": _check_analyze,
                "catalog": _check_catalog, "sweep": _check_sweep}[argv[0]](argv, code, doc)
    except (KeyError, TypeError, IndexError, AttributeError, OSError) as err:
        return "malformed output (exit %s): %r" % (code, err)

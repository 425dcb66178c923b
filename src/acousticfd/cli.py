"""Command line front end.

Commands: analyze | certify | simulate | sweep | catalog.
Exit codes: 0 pass, 1 certification/verdict failure, 2 usage error,
3 instability during a simulation.
"""

import argparse
import json
import math
import os
import re
import sys

from .fourier import det_scan, eigenvalue_scaling_check, generic_phases
from .grid import AcousticParams, GridSpec
from .laurent import (consistency_nullspace, has_rank_two, moore_symmetry_scan,
                      operator_identity_check, spans_match)
from .schemes import CATALOG_NAMES, diffusion_scale, make_scheme
from .stencils import (averaged_div, central_div, consistent_diffusion,
                       rational_string)
from .timestep import CFL_NORMALIZATION, InstabilityError, cfl_dt, cfl_sweep, check_dt
from .experiments import (checked_divergence_row, extract_conserved_operator,
                          gresho_vortex, json_document, vortex_benchmark, write_json)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_UNSTABLE = 3

# every option once: name -> (default, argparse keywords). The flag is --name with "-"
# for "_" and the name is also the flat JSON config key.
OPTIONS = {
    "scheme": (None, {}),
    "a1": (0.0, {"type": float}),
    "a2": (0.0, {"type": float}),
    "a3": (0.0, {"type": float}),
    "a4": (0.0, {"type": float}),
    "eps": (1.0, {"type": float}),
    "c": (1.0, {"type": float}),
    "grid": ("50", {"metavar": "NX[,NY]"}),
    "dx": (None, {"type": float}),
    "dy": (None, {"type": float}),
    "cfl": (0.45, {"type": float}),
    "t_end": (0.3, {"type": float}),
    "k_samples": (200, {"type": int}),
    "out": (None, {"metavar": "DIR"}),
    "divergence": ("both", {"choices": ("central", "averaged", "both")}),
    "radius": (1, {"type": int}),
    "identity_only": (False, {"action": "store_true"}),
}

GRID_OPTIONS = ("eps", "c", "grid", "dx", "dy")
SCHEME_OPTIONS = ("scheme", "a1", "a2", "a3", "a4") + GRID_OPTIONS

# (name, help line, the options its command reads)
SUBCOMMANDS = (
    ("analyze", "kernel-dimension verdict for one scheme",
     SCHEME_OPTIONS + ("k_samples", "out")),
    ("certify", "exact rational certificates for divergence operators",
     ("out", "divergence", "radius", "identity_only")),
    ("simulate", "vortex run: series, decay fit, final field",
     SCHEME_OPTIONS + ("cfl", "t_end", "out")),
    ("sweep", "max stable CFL scan on vortex data", SCHEME_OPTIONS + ("out",)),
    ("catalog", "list built-in schemes and their claims", GRID_OPTIONS + ("out",)),
)
READS = {name: reads for name, _, reads in SUBCOMMANDS}
# a token read as a negative number, so a flag takes it as its value: argparse's own
# pattern misses the exponent forms such as -1e-3, while -inf and -nan stay flags
NEGATIVE_NUMBER = re.compile(r"^-\.?\d")


def build_parser():
    """The parser with every subcommand, each with its flags: the options its command reads."""
    ap = argparse.ArgumentParser(prog="acousticfd",
                                 description="semi-discrete acoustic schemes: "
                                             "kernel analysis, exact certification, vortex runs",
                                 allow_abbrev=False)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_text, reads in SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p._negative_number_matcher = NEGATIVE_NUMBER
        p.add_argument("--config", default=None, help="flat JSON config; flags win")
        for option in reads:
            # default None marks "not given", so the config can fill it in
            p.add_argument("--" + option.replace("_", "-"), dest=option, default=None,
                           **OPTIONS[option][1])
    return ap


def table_parse(argv):
    """argv read off OPTIONS and READS, without building argparse, as the Namespace that
    build_parser().parse_args(argv) returns; None for an argv it cannot read exactly: help, an
    unknown or dropped flag, a missing or malformed value, a bad choice, or a value token that
    argparse's _parse_optional reads as a flag: one led by "-", unless it is a lone "-", matches
    NEGATIVE_NUMBER, or holds a space and neither starts "-h" nor names a flag before an "="."""
    if not argv or argv[0] not in READS:
        return None
    values = dict.fromkeys(("config",) + READS[argv[0]])
    flags = {"--" + name.replace("_", "-"): name for name in values}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, text = token.partition("=")
        if flag not in flags:
            return None
        name = flags[flag]
        keywords = OPTIONS[name][1] if name in OPTIONS else {}
        if keywords.get("action") == "store_true":
            if eq:  # argparse refuses a value for a switch
                return None
            values[name] = True
            continue
        if not eq:
            text = next(tokens, None)
            if text is None or (text.startswith("-") and text != "-"
                                and not NEGATIVE_NUMBER.match(text)
                                and (" " not in text or text[:2] == "-h"
                                     or text.partition("=")[0] in (*flags, "--help"))):
                return None
        elif text == "--":  # a missing value, which argparse reads as an empty list
            return None
        try:
            value = keywords.get("type", str)(text)
        except ValueError:
            return None
        if value not in keywords.get("choices", (value,)):
            return None
        values[name] = value
    return argparse.Namespace(command=argv[0], **values)


def parse_args(argv):
    """The table's Namespace for argv. A line the table declines runs no command: argparse is
    built only to print help or its error and exit. It takes one such kind, a flag whose `=`
    value is exactly "--", read by _get_values as an empty list: that flag exits alone."""
    args = table_parse(argv)
    if args is None:
        parser = build_parser()
        parser.parse_args(argv)
        flag = next((t[:-3] for t in argv[1:] if re.fullmatch(r"--[^ =]+=--", t)), None)
        if flag:
            parser.parse_args([argv[0], flag])
        parser.error("cannot read %s" % " ".join(argv))
    return args


def config_tokens(path, command):
    """A flat JSON config as `--name=value` tokens for `command`'s parser, which checks them
    as it checks flags. null means not given; keys only other subcommands read are ignored."""
    try:
        with open(path) as fh:
            loaded = json.load(fh)
    except (OSError, ValueError) as err:
        raise UsageError("cannot read config %s: %s" % (path, err))
    if not isinstance(loaded, dict):
        raise UsageError("config must be a flat JSON object")
    unknown = sorted(set(loaded) - set(OPTIONS))
    if unknown:
        raise UsageError("unknown config keys: %s" % ", ".join(unknown))
    tokens = []
    for name in READS[command]:
        value, flag = loaded.get(name), "--" + name.replace("_", "-")
        switch = OPTIONS[name][1].get("action") == "store_true"
        if value is None:
            continue
        if switch != isinstance(value, bool) or isinstance(value, (list, dict)):
            raise UsageError("config %s = %s: %s takes %s" % (name, json.dumps(value), flag,
                             "true or false" if switch else "a string or a number"))
        # a switch is its flag when true and nothing when false
        tokens += ([flag] if value else []) if switch else ["%s=%s" % (flag, value)]
    return tokens


def merge_config(args):
    """The options the command reads: flags win over the config, whose tokens were parsed
    ahead of them, over defaults."""
    return {key: OPTIONS[key][0] if getattr(args, key) is None else getattr(args, key)
            for key in READS[args.command]}


class UsageError(Exception):
    pass


def checked(make, *args, **kwargs):
    """Run make; a value it rejects, or an exact value beyond the float range, is a usage error."""
    try:
        return make(*args, **kwargs)
    except (ValueError, OverflowError) as err:
        raise UsageError(str(err))


def parse_grid(cfg):
    spec = cfg["grid"]
    parts = spec.split(",")
    try:
        # three or more parts fail to unpack, which is a ValueError too
        nx, ny = map(int, parts if len(parts) > 1 else parts * 2)
    except ValueError:
        raise UsageError("bad --grid %r, want NX or NX,NY" % spec)
    return checked(GridSpec, nx=nx, ny=ny, dx=cfg["dx"], dy=cfg["dy"])


def parse_params(cfg):
    return checked(AcousticParams, c=cfg["c"], eps=cfg["eps"])


def build_scheme(cfg, grid, params):
    name = cfg["scheme"]
    if name is None:
        raise UsageError("--scheme is required")
    if name not in CATALOG_NAMES + ("dimsplit",):
        raise UsageError("unknown scheme %r (catalog: %s, dimsplit)"
                         % (name, ", ".join(CATALOG_NAMES)))
    return make_scheme(name, params, grid, **_scheme_kwargs(cfg))


def emit_json(doc, cfg, name):
    if cfg["out"]:
        path = os.path.join(cfg["out"], name)
        write_json(path, doc)
        print(path)
    else:
        sys.stdout.write(json_document(doc))


def _scheme_kwargs(cfg):
    """dimsplit's finite a1..a4; any other scheme takes them only at their default 0."""
    kwargs = {key: cfg[key] for key in ("a1", "a2", "a3", "a4")}
    if cfg["scheme"] != "dimsplit":
        given = ["--" + key for key, value in kwargs.items() if value != 0]
        if given:
            raise UsageError("%s set dimsplit coefficients; --scheme %s takes none"
                             % (", ".join(given), cfg["scheme"]))
        return {}
    for key, value in kwargs.items():
        if not math.isfinite(value):
            raise UsageError("--%s must be finite, got %r" % (key, value))
    return kwargs


def cmd_analyze(cfg):
    spec = build_scheme(cfg, parse_grid(cfg), parse_params(cfg))
    k_samples = cfg["k_samples"]
    if k_samples < 1:
        raise UsageError("--k-samples must be at least 1, got %d" % k_samples)
    # M^ beyond the float range, or a float symbol whose sum overflows, is a usage error
    scan = checked(det_scan, spec, phases=generic_phases(k_samples))
    # the exact rank of M^ decides; the float scan's scan_verdict is reported beside it
    verdict, expected = has_rank_two(spec.unitless), spec.claims["stationarity_preserving"]
    doc = dict(scan.to_json_dict(), verdict=verdict, expected=expected)
    doc["config"] = {k: cfg[k] for k in ("scheme", "eps", "c", "grid", "k_samples")}
    doc["eigenvalue_scaling"] = eigenvalue_scaling_check(spec)

    if verdict:
        # each closed-form row is written only once its exact check holds
        try:
            doc["divergence_row"] = checked_divergence_row(spec).to_json_dict()
        except RuntimeError as err:
            doc["divergence_row_error"] = str(err)
        try:
            wu, wv, wp = extract_conserved_operator(spec)
            doc["conserved_operator"] = {"wu": wu.to_json_dict(), "wv": wv.to_json_dict(),
                                         "wp": wp.to_json_dict(), "exact": True}
        except (ValueError, RuntimeError) as err:
            doc["conserved_operator_error"] = str(err)

    emit_json(doc, cfg, "analyze_%s.json" % spec.name)
    # scaling is reported but only the claim comparison decides the exit code:
    # user-supplied diffusion coefficients are fixed numbers with no c/eps law
    return EXIT_OK if verdict == expected else EXIT_FAIL


def cmd_certify(cfg):
    radius = cfg["radius"]
    if radius < 1:
        raise UsageError("--radius must be at least 1, got %d" % radius)
    report, failures = {}, []

    ident = operator_identity_check()
    report["operator_identities"] = ident
    if not ident["ok"]:
        failures.append("operator identity: %r" % ident)

    if not cfg["identity_only"]:
        which = cfg["divergence"]
        if which in ("central", "both"):
            basis = consistency_nullspace(central_div(), radius=radius)
            report["central_nullspace_dim"] = len(basis)
            if len(basis) != 0:
                failures.append("central divergence admits a consistent diffusion: dim %d"
                                % len(basis))
                report["central_nullspace"] = [r.to_json_dict() for r in basis]
        if which in ("averaged", "both"):
            basis = consistency_nullspace(averaged_div(), radius=radius)
            report["averaged_nullspace_dim"] = len(basis)
            report["averaged_nullspace"] = [r.to_json_dict() for r in basis]
            expected = [consistent_diffusion(1, 0), consistent_diffusion(0, 1)]
            matches = len(basis) == 2 and spans_match(basis, expected, radius=radius)
            report["averaged_basis_matches_consistent_diffusion"] = matches
            if not matches:
                failures.append("averaged-divergence nullspace does not match the "
                                "consistent diffusion pair")
        if which == "both":
            scan = moore_symmetry_scan()
            report["symmetry_scan"] = [
                {"gamma": rational_string(*r["gamma"].as_integer_ratio()),
                 "beta": rational_string(*r["beta"].as_integer_ratio()),
                 "dim": r["dim"], "is_averaged": r["is_averaged"]} for r in scan]
            bad = [r for r in scan if (r["dim"] > 0) != r["is_averaged"]]
            if bad:
                failures.append("nullspace dimension positive off the averaged ray: %r"
                                % [(str(r["gamma"]), r["dim"]) for r in bad])

    report["failures"] = failures
    report["certified"] = not failures
    emit_json(report, cfg, "certify.json")
    if failures:
        for f in failures:
            print("FAIL:", f, file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def cmd_simulate(cfg):
    spec = build_scheme(cfg, parse_grid(cfg), parse_params(cfg))
    try:
        # a step control the run rejects, or M beyond the float range, is a usage error
        report = checked(vortex_benchmark, spec, cfg["t_end"], cfl=cfg["cfl"], out_dir=cfg["out"])
    except InstabilityError as err:
        doc = {"error": "instability", "step": err.step,
               "last_stable_time": err.t, "scheme": spec.name,
               "cfl": cfg["cfl"], "eps": cfg["eps"]}
        emit_json(doc, cfg, "simulate_failed.json")
        return EXIT_UNSTABLE
    emit_json(report, cfg, "simulate_%s.json" % spec.name)
    return EXIT_OK


def cmd_sweep(cfg):
    grid = parse_grid(cfg)
    spec = build_scheme(cfg, grid, parse_params(cfg))
    cfl_grid = [round(0.05 * k, 2) for k in range(1, 33)]
    # every point's time step is checked before the vortex is sampled and the first march, as
    # simulate checks its one: one beyond the float range is a usage error naming its options
    for cfl in cfl_grid:
        checked(check_dt, cfl_dt(spec.params, grid, cfl))
    # M beyond the float range is a usage error naming its entry
    result = checked(cfl_sweep, spec, gresho_vortex(grid), cfl_grid)
    result["scheme"] = spec.name
    result["eps"] = cfg["eps"]
    result["grid"] = [grid.nx, grid.ny]
    emit_json(result, cfg, "sweep_%s.json" % spec.name)
    return EXIT_OK


def cmd_catalog(cfg):
    grid = parse_grid(cfg)
    params = parse_params(cfg)
    doc = {"schemes": [], "normalization": CFL_NORMALIZATION}
    for name in CATALOG_NAMES:
        spec = make_scheme(name, params, grid)
        entry = {"name": name, "claims": spec.claims,
                 "stationarity_preserving_expected": spec.claims["stationarity_preserving"]}
        if spec.diffusion is not None:
            entry["diffusion"] = {"a%d" % k: rational_string(*(a * f).as_integer_ratio())
                                  for k, (a, f) in
                                  enumerate(zip(spec.diffusion, diffusion_scale(params)), 1)}
        doc["schemes"].append(entry)
    emit_json(doc, cfg, "catalog.json")
    return EXIT_OK


COMMANDS = {"analyze": cmd_analyze, "certify": cmd_certify,
            "simulate": cmd_simulate, "sweep": cmd_sweep,
            "catalog": cmd_catalog}


def make_out_dir(path):
    """Create --out and its missing parents before any work; return those it made,
    deepest first. A path no directory can take is a usage error naming it."""
    made, head = [], os.path.abspath(path)
    while not os.path.lexists(head):
        made.append(head)
        head = os.path.dirname(head)
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as err:
        raise UsageError("cannot make --out directory %s: %s" % (path, err.strerror))
    return made


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parse_args(argv)
    try:
        if args.config:
            # the config's entries go ahead of the flags, so the flags win
            args = parse_args(argv[:1] + config_tokens(args.config, args.command) + argv[1:])
        cfg = merge_config(args)
        made = make_out_dir(cfg["out"]) if cfg["out"] else []
        try:
            return COMMANDS[args.command](cfg)
        except UsageError:
            # a usage error leaves nothing behind: the directories made for it go again
            for path in made:
                os.rmdir(path)
            raise
    except UsageError as err:
        print("error:", err, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

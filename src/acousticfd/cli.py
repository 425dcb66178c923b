"""Command line front end.

Commands: analyze | certify | simulate | sweep | catalog.
Exit codes: 0 pass, 1 certification/verdict failure, 2 usage error,
3 instability during a simulation.
"""

import json
import math
import os
import sys
from fractions import Fraction

from .fourier import det_scan, eigenvalue_scaling_check
from .grid import AcousticParams, GridSpec
from .laurent import (consistency_nullspace, has_rank_two, moore_family, moore_symmetry_scan,
                      operator_identity_check, spans_match)
from .schemes import CATALOG_NAMES, catalog, diffusion_scale, make_scheme
from .stencils import (averaged_div, central_div, consistent_diffusion,
                       rational_string)
from .timestep import CFL_NORMALIZATION, InstabilityError, cfl_dt, cfl_sweep, check_dt
from .experiments import (checked_divergence_row, extract_conserved_operator,
                          gresho_vortex, json_document, vortex_benchmark, write_json)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_UNSTABLE = 3

# every option once: name -> (default, type, metavar or the tuple of choices). The flag is
# --name with "-" for "_", and the name is also the flat JSON config key.
OPTIONS = {
    "scheme": (None, str, "SCHEME"),
    "a1": (0.0, float, "A1"),
    "a2": (0.0, float, "A2"),
    "a3": (0.0, float, "A3"),
    "a4": (0.0, float, "A4"),
    "eps": (1.0, float, "EPS"),
    "c": (1.0, float, "C"),
    "grid": ("50", str, "NX[,NY]"),
    "dx": (None, float, "DX"),
    "dy": (None, float, "DY"),
    "cfl": (0.45, float, "CFL"),
    "t_end": (0.3, float, "T_END"),
    "out": (None, str, "DIR"),
    "divergence": ("both", str, ("central", "averaged", "both", "none")),
    "radius": (1, int, "RADIUS"),
}
# the flags' rows: the options and --config, which names the file that sets them
ROWS = dict(OPTIONS, config=(None, str, "CONFIG"))

GRID_OPTIONS = ("eps", "c", "grid", "dx", "dy")
SCHEME_OPTIONS = ("scheme", "a1", "a2", "a3", "a4") + GRID_OPTIONS

# (name, help line, the options its command reads)
SUBCOMMANDS = (
    ("analyze", "kernel-dimension verdict for one scheme",
     SCHEME_OPTIONS + ("out",)),
    ("certify", "exact rational certificates for divergence operators",
     ("out", "divergence", "radius")),
    ("simulate", "vortex run: series, decay fit, final field",
     SCHEME_OPTIONS + ("cfl", "t_end", "out")),
    ("sweep", "max stable CFL scan on vortex data", SCHEME_OPTIONS + ("out",)),
    ("catalog", "list built-in schemes and their claims", GRID_OPTIONS + ("out",)),
)
READS = {name: reads for name, _, reads in SUBCOMMANDS}
HELP_FLAGS = ("-h", "--help")


def flag(name):
    return "--" + name.replace("_", "-")


def build_parser():
    """Each command's flag table, {command: {"--flag": option name}}: --config and the
    options the command reads."""
    return {command: {flag(name): name for name in ("config",) + reads}
            for command, reads in READS.items()}


FLAGS = build_parser()


def help_text(command=None):
    """The help screen of command, or of the program, rendered from SUBCOMMANDS and ROWS."""
    if command is None:
        usage = "[-h] {%s} ..." % ",".join(READS)
        about = "semi-discrete acoustic schemes: kernel analysis, exact certification, vortex runs"
        rows = [(name, line) for name, line, _ in SUBCOMMANDS]
    else:
        usage = command + " [-h] [--flag VALUE] ..."
        about = dict((name, line) for name, line, _ in SUBCOMMANDS)[command] + \
            "\n--config reads a flat JSON object of these options; flags win over it"
        rows = []
        for text, name in FLAGS[command].items():
            default, _, spec = ROWS[name]
            text += " {%s}" % ",".join(spec) if isinstance(spec, tuple) else " " + spec
            rows.append((text, "default: %s" % default))
    width = max(len(text) for text, _ in rows) + 2
    return "usage: acousticfd %s\n\n%s\n\n%s" % (
        usage, about, "".join("  %-*s%s\n" % (width, text, note) for text, note in rows))


def convert(name, text, where):
    """text as option name's value; where, the flag or config key, names it in an error."""
    _, kind, spec = ROWS[name]
    try:
        value = kind(text)
    except ValueError:
        raise UsageError("%s: invalid %s value: %r" % (where, kind.__name__, text))
    if isinstance(spec, tuple) and value not in spec:
        raise UsageError("%s: invalid choice: %r (choose from %s)" % (where, text, ", ".join(spec)))
    return value


def parse_line(argv):
    """argv's command and the options its flags give, {name: value}, read off FLAGS; None
    once -h or --help, if no flag took it as its value, has printed its help. Every flag takes
    a value: the text after its "=", else the next token whatever it starts with."""
    if not argv or argv[0] not in FLAGS:
        if argv and argv[0] in HELP_FLAGS:
            sys.stdout.write(help_text())
            return None
        raise UsageError("%s (commands: %s)" % ("unknown command %r" % argv[0] if argv else
                                                "a command is required", ", ".join(READS)))
    command, tokens, items, given = argv[0], iter(argv[1:]), [], {}
    for token in tokens:
        if token in HELP_FLAGS:
            sys.stdout.write(help_text(command))
            return None
        head, eq, text = token.partition("=")
        name = FLAGS[command].get(head)
        if name and not eq:
            text = next(tokens, None)
        items.append((token, name, text))
    for token, name, text in items:
        if name is None:
            raise UsageError("%s takes no %s" % (command, token))
        if text is None:
            raise UsageError("%s needs a value" % token)
        given[name] = convert(name, text, flag(name))
    return command, given


def options(command, given):
    """The options command reads: the flags given win over their --config file, a flat JSON
    object whose values are read as the flags' text would be, which wins over the defaults.
    null means not given; keys only other subcommands read are ignored."""
    cfg = {name: OPTIONS[name][0] for name in READS[command]}
    path = given.get("config")
    if path:
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
        for name in READS[command]:
            value = loaded.get(name)
            if value is None:
                continue
            if isinstance(value, (bool, list, dict)):
                raise UsageError("config %s = %s: %s takes a string or a number"
                                 % (name, json.dumps(value), flag(name)))
            cfg[name] = convert(name, "%s" % value, "config " + name)
    cfg.update((name, value) for name, value in given.items() if name != "config")
    return cfg


class UsageError(Exception):
    pass


def checked(make, *args, **kwargs):
    """Run make; a value it rejects, an exact value beyond the float range, or an array too
    large to allocate, which only the grid's size asks for, is a usage error."""
    try:
        return make(*args, **kwargs)
    except (ValueError, OverflowError) as err:
        raise UsageError(str(err))
    except MemoryError as err:
        raise UsageError("--grid is too large: %s" % err)


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
        given = [flag(key) for key, value in kwargs.items() if value != 0]
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
    # M^ beyond the float range, or a float symbol whose sum overflows, is a usage error
    scan = checked(det_scan, spec)
    # the exact rank of M^ decides; the float scan's scan_verdict is reported beside it
    verdict, expected = has_rank_two(spec.unitless), spec.claims["stationarity_preserving"]
    doc = dict(scan.to_json_dict(), verdict=verdict, expected=expected)
    doc["config"] = {k: cfg[k] for k in cfg if k != "out"}
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
    radius, which = cfg["radius"], cfg["divergence"]
    if radius < 1 and which != "none":
        raise UsageError("--radius must be at least 1, got %d" % radius)
    report, failures = {}, []

    ident = operator_identity_check()
    report["operator_identities"] = ident
    if not ident["ok"]:
        failures.append("operator identity: %r" % ident)

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
        family = moore_family()
        gamma = family["singular_gamma"]
        report["moore_family"] = dict(family, singular_gamma=None if gamma is None
                                      else rational_string(*gamma.as_integer_ratio()))
        if gamma != Fraction(1, 8):
            failures.append("the restricted determinant %r in k = 16 gamma does not vanish "
                            "at gamma = 1/8 alone" % family["det_coefficients"])

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
    # so is M beyond the float range, naming its entry: derived before the vortex can warn
    checked(getattr, spec, "stencil")
    result = checked(cfl_sweep, spec, checked(gresho_vortex, grid), cfl_grid)
    result.update(config={k: cfg[k] for k in cfg if k != "out"},
                  scan="descending, stops at the first stable point")
    emit_json(result, cfg, "sweep_%s.json" % spec.name)
    return EXIT_OK


def cmd_catalog(cfg):
    grid = parse_grid(cfg)
    params = parse_params(cfg)
    doc = {"schemes": [], "normalization": CFL_NORMALIZATION}
    for name, spec in catalog(params, grid).items():
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
    try:
        line = parse_line(argv)
        if line is None:
            return EXIT_OK
        command, cfg = line[0], options(*line)
        made = make_out_dir(cfg["out"]) if cfg["out"] else []
        try:
            return COMMANDS[command](cfg)
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

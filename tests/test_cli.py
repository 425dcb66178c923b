"""End-to-end command line behavior: exit codes, artifacts, determinism."""

import contextlib
import filecmp
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from acousticfd import cli, laurent
from acousticfd.cli import (COMMANDS, EXIT_FAIL, EXIT_OK, EXIT_UNSTABLE, EXIT_USAGE, OPTIONS,
                            READS, SUBCOMMANDS, UsageError, build_parser, main, options,
                            parse_line)
from acousticfd.experiments import gresho_vortex, write_timeseries_csv
from acousticfd.fourier import det_scan
from acousticfd.grid import AcousticParams, GridSpec, write_field_csv
from acousticfd.schemes import CATALOG_NAMES, make_scheme
from acousticfd.timestep import StepControl, cfl_dt, cfl_sweep, run

from helpers import oracle_given, oracle_options, p_column_added_to_u, strict_json


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_analyze_roe_matches_claim(tmp_path):
    rc = main(["analyze", "--scheme", "roe", "--grid", "16", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    doc = _read_json(tmp_path / "analyze_roe.json")
    assert doc["verdict"] is False and doc["expected"] is False
    assert doc["eigenvalue_scaling"]["passed"] is True
    assert all(s["kernel_dim"] == 0 for s in doc["samples"] if s["kind"] == "generic")
    assert "conserved_operator" not in doc


def test_analyze_sp_scheme_includes_operator(tmp_path):
    rc = main(["analyze", "--scheme", "lowmach2", "--grid", "12", "--eps", "0.5", "--c", "2.0",
               "--out", str(tmp_path)])
    assert rc == EXIT_OK
    doc = _read_json(tmp_path / "analyze_lowmach2.json")
    assert doc["verdict"] is True
    assert doc["config"]["eps"] == 0.5
    assert doc["divergence_row"]["bu"]["entries"]
    assert doc["conserved_operator"]["exact"] is True


def test_analyze_dimsplit_verdict_follows_a1(tmp_path):
    rc = main(["analyze", "--scheme", "dimsplit", "--a1", "0.0", "--a2", "0.5",
               "--a3", "0.25", "--a4", "0.1", "--grid", "12", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    doc = _read_json(tmp_path / "analyze_dimsplit.json")
    assert doc["verdict"] is True
    # fixed numeric coefficients have no c/eps scaling law; reported, not fatal
    assert doc["eigenvalue_scaling"]["passed"] is False


@pytest.mark.parametrize("grid,radius,has_wp", [
    (("--grid", "8"), 1, False),
    (("--grid", "12,7", "--dx", "1e-3", "--dy", "0.07"), 2, True),
], ids=["square-8", "aniso-12x7"])
def test_analyze_multid_reports_primitive_vorticity_row(grid, radius, has_wp, capsys):
    # the primitive row has radius 1 on square cells and 2 otherwise, so small grids hold it
    assert main(["analyze", "--scheme", "multid", *grid]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert "conserved_operator_error" not in doc
    op = doc["conserved_operator"]
    assert max(op[k]["radius"] for k in ("wu", "wv", "wp")) == radius
    assert bool(op["wp"]["entries"]) is has_wp


@pytest.mark.parametrize("scheme", ["central", "lowmach1"])
def test_analyze_small_eps_reports_json(tmp_path, scheme):
    # the scan runs on the unitless symbol, so eps = 1e-6 judges like eps = 1
    rc = main(["analyze", "--scheme", scheme, "--eps", "0.000001", "--grid", "16",
               "--out", str(tmp_path)])
    assert rc == EXIT_OK
    doc = _read_json(tmp_path / ("analyze_%s.json" % scheme))
    assert doc["verdict"] is True


def test_usage_errors(capsys):
    # every command that takes a scheme resolves it before any work and lists the catalog
    for command in ("analyze", "simulate", "sweep"):
        assert main([command, "--scheme", "nosuch", "--grid", "8"]) == EXIT_USAGE
        assert capsys.readouterr().err == ("error: unknown scheme 'nosuch' (catalog: central, "
                                           "roe, lowmach1, lowmach2, lowmach3, multid, dimsplit)\n")
    assert main(["analyze", "--grid", "8"]) == EXIT_USAGE
    assert main(["analyze", "--scheme", "roe", "--grid", "eight"]) == EXIT_USAGE


DIMSPLIT_ARGV = ("--scheme", "dimsplit", "--a2", "0.5", "--a3", "-0.3", "--a4", "0.8",
                 "--grid", "12,7", "--dx", "1e-3", "--dy", "0.07")

OUT_OF_RANGE = [
    (["analyze", "--scheme", "roe", "--grid", "2"], "at least 3x3"),
    (["analyze", "--scheme", "roe", "--eps", "0"], "eps > 0"),
    (["analyze", "--scheme", "roe", "--c", "-1"], "c > 0"),
    (["analyze", "--scheme", "roe", "--dx", "0"], "cell widths must be positive"),
    # the scan is one fixed procedure of 200 generic phases: --k-samples is no flag at all
    (["analyze", "--scheme", "roe", "--k-samples", "0"], "analyze takes no --k-samples"),
    (["analyze", "--scheme", "roe", "--k-samples", "-5"], "analyze takes no --k-samples"),
    (["analyze", "--scheme", "roe", "--k-samples", "3"], "analyze takes no --k-samples"),
    (["catalog", "--grid", "1"], "at least 3x3"),
    # a zero size is refused before the default spacing 1/n divides by it
    (["analyze", "--scheme", "roe", "--grid", "0"], "grid must be at least 3x3, got 0x0"),
    (["sweep", "--scheme", "roe", "--grid", "5,0"], "grid must be at least 3x3, got 5x0"),
    (["catalog", "--grid", "0"], "grid must be at least 3x3, got 0x0"),
    # every part of --grid is read: a third one, even an empty one, is refused
    (["analyze", "--scheme", "roe", "--grid", "10,20,30"],
     "bad --grid '10,20,30', want NX or NX,NY"),
    (["analyze", "--scheme", "roe", "--grid", "10,20,"], "bad --grid '10,20,', want NX or NX,NY"),
    (["catalog", "--grid", "8,8,8"], "bad --grid '8,8,8', want NX or NX,NY"),
    (["simulate", "--scheme", "roe", "--grid", "8", "--t-end", "-1"], "t_end"),
    (["simulate", "--scheme", "roe", "--grid", "8", "--t-end", "inf"], "t_end must be finite"),
    (["simulate", "--scheme", "roe", "--grid", "8", "--cfl", "0"], "cfl must be positive"),
    (["simulate", "--scheme", "roe", "--grid", "8", "--cfl", "inf"], "cfl must be positive and finite"),
    (["certify", "--radius", "0"], "--radius"),
    (["simulate"], "--scheme is required"),
    (["analyze", "--scheme", "dimsplit", "--a1", "nan"], "--a1 must be finite"),
    (["analyze", "--scheme", "dimsplit", "--a2", "inf"], "--a2 must be finite"),
    (["analyze", "--scheme", "dimsplit", "--a1", "1e400"], "--a1 must be finite"),
    (["sweep", "--scheme", "dimsplit", "--a3", "inf", "--grid", "8"], "--a3 must be finite"),
    (["simulate", "--scheme", "dimsplit", "--a2", "nan", "--grid", "8"], "--a2 must be finite"),
    # a catalog scheme takes no coefficients: a nonzero or NaN one is named, not dropped
    (["analyze", "--scheme", "roe", "--a1", "5"],
     "--a1 set dimsplit coefficients; --scheme roe takes none"),
    (["simulate", "--scheme", "multid", "--grid", "8", "--a2", "nan"],
     "--a2 set dimsplit coefficients; --scheme multid takes none"),
    (["sweep", "--scheme", "central", "--grid", "8", "--a4", "2", "--a3=-1e-300"],
     "--a3, --a4 set dimsplit coefficients; --scheme central takes none"),
    # exact symbol entries beyond the float range, and a time step that underflows
    (["analyze", "--scheme", "roe", "--dx", "1e-320"],
     "symbol entry (u, u) at cell offset (1, 0) is beyond the float range"),
    (["sweep", "--scheme", "roe", "--grid", "8", "--eps", "1e-320"],
     "symbol entry (u, u) at cell offset (1, 0) is beyond the float range"),
    (["simulate", "--scheme", "roe", "--grid", "8", "--c", "1e160", "--eps", "1e160"],
     "symbol entry (p, u) at cell offset (1, 0) is beyond the float range"),
    # M is derived before the vortex is sampled, which no cell centre of these unit cells
    # holds: both once warned of that on their way to the same error
    (["simulate", "--scheme", "roe", "--grid", "8", "--dx", "1", "--dy", "1", "--c", "1e160",
      "--eps", "1e160"], "symbol entry (p, u) at cell offset (1, 0) is beyond the float range"),
    (["sweep", "--scheme", "roe", "--grid", "8", "--dx", "1", "--dy", "1", "--c", "1e160",
      "--eps", "1e160"], "symbol entry (p, u) at cell offset (1, 0) is beyond the float range"),
    (["simulate", "--scheme", "multid", "--grid", "8", "--c", "1e308", "--eps", "1e-308"],
     "time step dt = cfl*min(dx,dy)*eps/c = 0.0 underflows"),
    # and one that overflows, which once marched to a NaN time or wrote dt as Infinity
    (["simulate", "--scheme", "roe", "--eps", "1.7e308", "--c", "1e-154", "--grid", "3"],
     "time step dt = cfl*min(dx,dy)*eps/c = inf overflows"),
    (["simulate", "--scheme", "roe", "--eps", "1.7e308", "--c", "1e-154", "--grid", "3",
      "--t-end", "0"], "time step dt = cfl*min(dx,dy)*eps/c = inf overflows"),
    # a sweep checks every CFL point's time step before it samples the vortex or marches:
    # this one once marched an infinite dt and reported all 32 points unstable
    (["sweep", "--scheme", "roe", "--c", "5e-324", "--dx", "123456789", "--grid", "3"],
     "time step dt = cfl*min(dx,dy)*eps/c = inf overflows"),
    # and so does simulate before it samples the vortex, which no cell centre of these wide
    # cells holds: it once warned of that on its way to the same error
    (["simulate", "--scheme", "roe", "--c", "5e-324", "--dx", "123456789", "--grid", "3"],
     "time step dt = cfl*min(dx,dy)*eps/c = inf overflows"),
    (["sweep", "--scheme", "multid", "--grid", "8", "--c", "1e308", "--eps", "1e-308"],
     "time step dt = cfl*min(dx,dy)*eps/c = 0.0 underflows"),
    # cell centres beyond the float range give a non-finite initial state, refused on load
    (["simulate", "--scheme", "roe", "--grid", "8", "--dx", "1e308", "--dy", "1e308"],
     "the initial state has a non-finite cell"),
    (["sweep", "--scheme", "roe", "--grid", "8", "--dx", "1e308", "--dy", "1e308"],
     "the initial state has a non-finite cell"),
    # a grid too large for memory names --grid; the first array each line asks for, 711 PiB
    # and 142 PiB, is beyond any 57-bit address space, so neither allocates anything large
    (["sweep", "--scheme", "roe", "--grid", "3,100000000000000000"],
     "error: --grid is too large: Unable to allocate 711. PiB"),
    (["simulate", "--scheme", "roe", "--grid", "100000000", "--t-end", "0.001"],
     "error: --grid is too large: Unable to allocate 142. PiB"),
    # a step count past the limit is written short, beside the flags that set it
    (["simulate", "--scheme", "roe", "--grid", "8", "--cfl", "1e-300", "--t-end", "1"],
     "error: run to t_end wants 8e+300 steps of dt = cfl*min(dx,dy)*eps/c, over the limit of "
     "10000000: raise --cfl or lower --t-end\n"),
    # non-finite spacings and scales name their option
    (["catalog", "--dx", "inf"], "cell widths must be positive and finite, got dx = inf"),
    (["analyze", "--scheme", "roe", "--grid", "8", "--dx", "inf"],
     "cell widths must be positive and finite, got dx = inf"),
    (["simulate", "--scheme", "roe", "--grid", "8", "--dy", "nan"],
     "cell widths must be positive and finite, got dy = nan"),
    (["analyze", "--scheme", "roe", "--c", "inf"], "c must be finite, got inf"),
    (["sweep", "--scheme", "roe", "--grid", "8", "--c=-inf"], "c must be finite, got -inf"),
    (["analyze", "--scheme", "roe", "--eps", "nan"], "eps must be finite, got nan"),
    (["catalog", "--eps", "1e400"], "eps must be finite, got inf"),
    # exact entries in range whose float symbol sums past it: 1/(8 dx) fits, their sum not
    (["analyze", "--scheme", "multid", "--grid", "8", "--dx", "5e-309"],
     "the float symbol of multid overflows: its sum over the stencil leaves the float range"),
    # an --out that cannot be a directory is refused before any work
    (["analyze", "--scheme", "roe", "--grid", "8", "--out", "/dev/null/x"],
     "cannot make --out directory /dev/null/x: Not a directory"),
    (["simulate", "--scheme", "roe", "--grid", "8", "--out", "/dev/null/x"],
     "cannot make --out directory /dev/null/x: Not a directory"),
    (["catalog", "--out", "/dev/null/x"], "cannot make --out directory /dev/null/x: Not a directory"),
    (["certify", "--out", os.devnull], "cannot make --out directory %s: File exists" % os.devnull),
    (["sweep", "--scheme", "roe", "--grid", "8", "--out", os.devnull],
     "cannot make --out directory %s: File exists" % os.devnull),
]


# a usage error prints nothing on stdout and raises no warning on the way
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, message", OUT_OF_RANGE,
                         ids=[" ".join(argv) for argv, _ in OUT_OF_RANGE])
def test_out_of_range_values_are_usage_errors(argv, message, capsys):
    assert main(argv) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and message in err and "Traceback" not in err


# analyze reads only M^, which neither c nor eps enters: these scales once overflowed the
# float M (c/eps = 1e400) or its float symbol, and were refused as usage errors; the
# last two once overflowed k = theta/dx of the continuous generator (an SVD that did not
# converge) and |det M^| (Infinity in the JSON)
UNITLESS_SCALES = {
    "multid-c1e200-eps1e-200": ["--scheme", "multid", "--c", "1e200", "--eps", "1e-200"],
    "roe-c5e153": ["--scheme", "roe", "--c", "5e153", "--grid", "8"],
    "multid-c5e153-eps0.5": ["--scheme", "multid", "--c", "5e153", "--eps", "0.5", "--grid", "8"],
    "central-eps2e-154": ["--scheme", "central", "--eps", "2e-154", "--grid", "8"],
    "dimsplit-a1-0.5-c5e153": ["--scheme", "dimsplit", "--a1", "0.5", "--a2", "0.5",
                               "--c", "5e153", "--grid", "8"],
    "central-dx1e-308": ["--scheme", "central", "--grid", "8", "--dx", "1e-308"],
    "multid-dx1e-110-dy1e-110": ["--scheme", "multid", "--grid", "8", "--dx", "1e-110",
                                 "--dy", "1e-110"],
    "dimsplit-a1-1e-154": ["--scheme", "dimsplit", "--a1", "1e-154", "--grid", "8"],
    "roe-dx1e300": ["--scheme", "roe", "--grid", "8", "--dx", "1e300"],
    # a subnormal a1^ once made numpy warn "divide by zero encountered in det" on stderr
    "dimsplit-a1-4.9e-324-dy3": ["--scheme", "dimsplit", "--a1", "4.9e-324", "--dy", "3"],
}
# the float scan's relative tolerance of 1e-12 misses a1^ = 1e-154 and 4.9e-324, and
# roe's x terms at dx/dy = 1e300: its scan_verdict is true where the exact rank says not
# preserving
SCAN_MISSES = {"dimsplit-a1-0.5-c5e153", "dimsplit-a1-1e-154", "roe-dx1e300",
               "dimsplit-a1-4.9e-324-dy3"}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(UNITLESS_SCALES))
def test_extreme_scales_are_analyzed(name, capsys):
    code = main(["analyze", *UNITLESS_SCALES[name]])
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    # stdout is pure JSON: Infinity and NaN are not
    doc = strict_json(out)
    # the exact rank of M^ decides, whatever the scan says
    assert code == EXIT_OK and doc["verdict"] is doc["expected"]
    assert doc["scan_verdict"] is (doc["verdict"] or name in SCAN_MISSES)


@pytest.mark.parametrize("grid", [("--grid", "24"),
                                  ("--grid", "12,7", "--dx", "1e-3", "--dy", "0.07")],
                         ids=["24", "12x7"])
def test_analyze_writes_no_unchecked_divergence_row(grid, monkeypatch, capsys):
    # lowmach1 with M^'s p-column added to its u-column: rank 2 and its vorticity row stay,
    # its pressure row fails the exact check, and the verdict alone sets the exit code
    from acousticfd import cli

    build = cli.make_scheme
    monkeypatch.setattr(cli, "make_scheme",
                        lambda *args, **kwargs: p_column_added_to_u(build(*args, **kwargs)))
    assert main(["analyze", "--scheme", "lowmach1", *grid]) == EXIT_OK
    doc = strict_json(capsys.readouterr().out)
    assert doc["verdict"] is True
    assert "divergence_row" not in doc
    assert doc["divergence_row_error"].startswith("divergence row fails M (-bv, bu, 0) = 0")
    assert doc["conserved_operator"]["exact"] is True


# a flag takes any float literal after a space as after "="
NEGATIVE_VALUES = [
    (("analyze", "--scheme", "dimsplit", "--grid", "8"), "--a3", "-1e-3"),
    (("analyze", "--scheme", "dimsplit", "--grid", "8"), "--a3", "-1E2"),
    (("analyze", "--scheme", "dimsplit", "--grid", "8"), "--a2", "-.5e1"),
    (("simulate", "--scheme", "dimsplit", "--grid", "8", "--t-end", "0.01"), "--a4", "-2e0"),
    (("sweep", "--scheme", "dimsplit", "--grid", "8"), "--a3", "-1e-1"),
]


@pytest.mark.parametrize("argv,flag,value", NEGATIVE_VALUES,
                         ids=["%s %s %s" % (a[0], f, v) for a, f, v in NEGATIVE_VALUES])
def test_negative_float_literal_follows_its_flag(argv, flag, value, capsys):
    assert main([*argv, flag, value]) == EXIT_OK
    spaced = capsys.readouterr().out
    assert main([*argv, "%s=%s" % (flag, value)]) == EXIT_OK
    assert capsys.readouterr().out == spaced


# the lines that argparse read otherwise, with the exit code, stdout and stderr they give now
# that a flag takes the next token whatever it starts with, or the text after its "=", and -h
# that no flag takes prints help: argparse read -inf, -nan, "-h x" and "--eps" after a flag as
# flags ("expected one argument"), an "=" value of exactly "--" as a missing one, and refused
# --radius=x before it reached -h. The --out lines make their directories. --identity-only, a
# switch until it became --divergence none, is no flag, with or without a value
GRAMMAR_CHANGES = [
    (["analyze", "--scheme", "roe", "--eps", "-inf"], EXIT_USAGE, "",
     "error: eps must be finite, got -inf\n"),
    (["analyze", "--scheme", "dimsplit", "--grid", "8", "--a3", "-nan"], EXIT_USAGE, "",
     "error: --a3 must be finite, got nan\n"),
    (["catalog", "--grid", "8", "--out", "-h x"], EXIT_OK, os.path.join("-h x", "catalog.json\n"),
     ""),
    (["catalog", "--grid", "8", "--out", "--eps"], EXIT_OK,
     os.path.join("--eps", "catalog.json\n"), ""),
    (["catalog", "--grid", "8", "--out=--"], EXIT_OK, os.path.join("--", "catalog.json\n"), ""),
    (["analyze", "--scheme", "roe", "--eps=--"], EXIT_USAGE, "",
     "error: --eps: invalid float value: '--'\n"),
    (["analyze", "--scheme", "roe", "--grid=--"], EXIT_USAGE, "",
     "error: bad --grid '--', want NX or NX,NY\n"),
    (["certify", "--divergence", "none", "--config=--"], EXIT_USAGE, "",
     "error: cannot read config --: [Errno 2] No such file or directory: '--'\n"),
    (["certify", "--radius=x", "-h"], EXIT_OK, cli.help_text("certify"), ""),
    (["certify", "--identity-only"], EXIT_USAGE, "", "error: certify takes no --identity-only\n"),
    (["certify", "--identity-only", "--config=--"], EXIT_USAGE, "",
     "error: certify takes no --identity-only\n"),
]


@pytest.mark.parametrize("argv, code, out, err", GRAMMAR_CHANGES,
                         ids=[" ".join(argv) for argv, _, _, _ in GRAMMAR_CHANGES])
def test_grammar_changes(argv, code, out, err, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    assert capsys.readouterr() == (out, err)
    made = [os.path.dirname(out)] if out.endswith("catalog.json\n") else []
    assert os.listdir(tmp_path) == made and all(os.listdir(d) == ["catalog.json"] for d in made)


def test_out_dir_is_made_once_and_undone_on_usage_error(tmp_path):
    out = tmp_path / "a" / "b"
    assert main(["catalog", "--out", str(out)]) == EXIT_OK
    assert os.listdir(out) == ["catalog.json"]
    # the directories made for a command that ends in a usage error go again
    assert main(["simulate", "--scheme", "roe", "--grid", "8", "--cfl", "inf",
                 "--out", str(tmp_path / "c" / "d")]) == EXIT_USAGE
    assert os.listdir(tmp_path) == ["a"]


def _help(argv, capsys):
    """The help screen main prints for argv, which exits 0 and writes no stderr."""
    assert main(argv) == EXIT_OK
    out, err = capsys.readouterr()
    assert err == ""
    return out


@pytest.mark.parametrize("command", [name for name, _, _ in SUBCOMMANDS])
def test_subcommand_parser_carries_exactly_its_option_rows(command, capsys):
    # the flag table and the help screen both hold --config and the options the command reads
    reads = READS[command]
    assert build_parser()[command] == cli.FLAGS[command] == {
        "--" + name.replace("_", "-"): name for name in ("config", *reads)}
    rows = [line.split() for line in _help([command, "--help"], capsys).splitlines()
            if line.startswith("  --")]
    assert [row[0] for row in rows] == ["--config", *("--" + n.replace("_", "-") for n in reads)]
    for row, name in zip(rows, ("config", *reads)):
        default, _, spec = cli.ROWS[name]
        shown = "{%s}" % ",".join(spec) if isinstance(spec, tuple) else spec
        assert row[1:] == [shown, "default:", str(default)], row


def test_top_level_help_lists_the_subcommands(capsys):
    for argv in (["--help"], ["-h"], ["-h", "analyze"]):
        out = _help(argv, capsys)
        assert out.startswith(USAGE)
        assert [line.split(None, 1) for line in out.splitlines() if line.startswith("  ")] == [
            [name, line] for name, line, _ in SUBCOMMANDS]
    # no command at all, or an unknown one, exits 2 naming the five
    for argv, what in (([], "a command is required"), (["bogus"], "unknown command 'bogus'"),
                       (["--bogus"], "unknown command '--bogus'")):
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr() == ("", "error: %s (commands: analyze, certify, simulate, "
                                           "sweep, catalog)\n" % what)


class RecordingConfig(dict):
    """A config that records every key its command reads."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


# one cheap run of each command; the scheme commands use dimsplit, which reads a1..a4
READ_RUNS = {
    "analyze": ["--scheme", "dimsplit", "--a4", "0.5", "--grid", "4"],
    "certify": [],
    "simulate": ["--scheme", "dimsplit", "--a4", "0.5", "--grid", "4", "--t-end", "0.05"],
    "sweep": ["--scheme", "dimsplit", "--a4", "0.5", "--grid", "4"],
    "catalog": ["--grid", "4"],
}


@pytest.mark.parametrize("command, reads", [(name, reads) for name, _, reads in SUBCOMMANDS],
                         ids=[name for name, _, _ in SUBCOMMANDS])
def test_each_command_reads_every_option_it_takes(command, reads, capsys):
    argv = [command, *READ_RUNS[command]]
    cfg = RecordingConfig(options(*parse_line(argv)))
    assert COMMANDS[command](cfg) == EXIT_OK
    json.loads(capsys.readouterr().out)
    assert cfg.read == set(cfg) == set(reads)


# the (command, flag) pairs that every subcommand once took and its command never read, and
# --k-samples, which no command reads since the scan became one fixed procedure
DROPPED = {
    "analyze": ("cfl", "t_end", "k_samples"),
    "certify": ("scheme", "a1", "a2", "a3", "a4", "eps", "c", "grid", "dx", "dy", "cfl",
                "t_end", "k_samples"),
    "simulate": ("k_samples",),
    "sweep": ("cfl", "t_end", "k_samples"),
    "catalog": ("scheme", "a1", "a2", "a3", "a4", "cfl", "t_end", "k_samples"),
}
DROPPED_PAIRS = [(command, "--" + name.replace("_", "-"))
                 for command, names in DROPPED.items() for name in names]


def test_subcommands_take_44_flags():
    assert len(DROPPED_PAIRS) == 28
    assert sum(len(reads) for _, _, reads in SUBCOMMANDS) == 44
    for command, _, reads in SUBCOMMANDS:
        assert not set(reads) & set(DROPPED[command])


@pytest.mark.parametrize("command, flag", DROPPED_PAIRS, ids=[" ".join(p) for p in DROPPED_PAIRS])
def test_dropped_flags_are_usage_errors(command, flag, capsys):
    value = "roe" if flag == "--scheme" else "1"
    assert main([command, flag, value]) == EXIT_USAGE
    assert capsys.readouterr() == ("", "error: %s takes no %s\n" % (command, flag))


FLAG_PAIRS = [(command, flag) for command, flags in cli.FLAGS.items() for flag in flags]


# no flag is a switch: each one alone at the end of a line is missing its value
@pytest.mark.parametrize("command, flag", FLAG_PAIRS, ids=[" ".join(p) for p in FLAG_PAIRS])
def test_every_flag_takes_a_value(command, flag, capsys):
    assert main([command, flag]) == EXIT_USAGE
    assert capsys.readouterr() == ("", "error: %s needs a value\n" % flag)


def _load_clibench(module):
    """A clibench module loaded by its path, as the benchmark loads it."""
    import importlib.util

    path = os.path.join(os.path.dirname(__file__), os.pardir, "clibench", module + ".py")
    spec = importlib.util.spec_from_file_location("clibench_" + module, path)
    loaded = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(loaded)
    return loaded


def test_benchmark_command_lines_parse():
    workloads = _load_clibench("workloads")
    for workload in workloads.WORKLOADS:
        for seed in range(10):
            for argv in workloads.commands(workload, seed):
                assert parse_line(argv)[0] == argv[0]


def _same_options(given, oracle):
    # repr tells float from int and str, and reads nan as nan: nan != nan
    return ({key: repr(value) for key, value in given.items()}
            == {key: repr(value) for key, value in oracle.items()})


def _parse_quietly(argv):
    """parse_line's reading of argv, or None for a line that does not parse: one that prints
    help or is a usage error."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return parse_line(argv)
        except UsageError:
            return None


# every flag of every command, the dropped ones too, and --config
FLAGS = ["--" + name.replace("_", "-") for name in ("config", *OPTIONS)]
VALUES = ["0.5", "3", "12,7", "-2", "-1e-3", "-.5e1", "-inf", "nan", "1e400", "", "-", "--",
          "central", "averaged", "none", "x", "1.9", "-x", " -1", "1 2", "-h", "-a b", "-h x",
          "--eps=1 2"]
# tokens that are no flag of any command
OTHERS = ["-h", "--help", "--", "--bogus", "-e", "-x1", "--k", "--t_end", "--eps-"]


@st.composite
def command_lines(draw, flags=FLAGS, values=VALUES, others=OTHERS):
    """A command and tokens drawn mostly from its own flags, so that many lines parse. Only
    `flags` are drawn; `values` are the values and `others` the stray tokens besides them."""
    command = draw(st.sampled_from(sorted(READS)))
    own = st.sampled_from([flag for flag in ("--" + name.replace("_", "-")
                                             for name in ("config", *READS[command]))
                           if flag in flags])
    flag, value = st.one_of(own, own, own, st.sampled_from(flags)), st.sampled_from(values)
    pair = st.tuples(flag, value)
    group = st.one_of(pair.map(lambda fv: ["%s=%s" % fv]), pair.map(list), own.map(lambda f: [f]),
                      pair.map(lambda fv: ["%s=%s" % fv]), pair.map(list),
                      st.sampled_from(others + values).map(lambda token: [token]))
    return [command] + [token for tokens in draw(st.lists(group, max_size=3)) for token in tokens]


# the values the parity half draws: a line with a "-"-led value or a stray token is not compared
PLAIN_VALUES = [value for value in VALUES if not value.startswith("-")]


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(argv=command_lines(values=PLAIN_VALUES, others=[]))
@example(argv=["analyze", "--out=--"])
@example(argv=["certify", "--divergence="])
@example(argv=["certify", "--divergence", "none", "x"])
@example(argv=["certify", "--divergence=both", "--divergence", "nope"])
@example(argv=["analyze", "--eps", "-inf"])
@example(argv=["analyze", "--eps", "--", "1"])
@example(argv=["sweep", "--grid", "-", "--out", "-"])
def test_table_parse_declines_or_returns_the_argparse_namespace(argv):
    # on a line argparse accepts whose values do not start with "-", the table reads its flags
    # as argparse does. Every "-"-led token here is a flag of the command, which argparse reads
    # as one, so no value argparse reads starts with "-"
    own = cli.FLAGS.get(argv[0], {})
    if any(token.partition("=")[2].startswith("-")
           or (token.startswith("-") and token.partition("=")[0] not in own)
           for token in argv[1:]):
        return
    with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
        try:
            command, oracle = oracle_given(argv)
        except SystemExit:
            return
    line = _parse_quietly(argv)
    assert line is not None, "the table refused %r, which argparse reads" % argv
    assert line[0] == command and _same_options(line[1], oracle), argv


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(argv=command_lines())
@example(argv=["analyze", "--out=--"])
@example(argv=["catalog", "--out=--", "--out", "made"])
@example(argv=["analyze", "--out=--x=--", "--eps=--"])
@example(argv=["catalog", "--out", "-a b", "--dx", "-2"])
@example(argv=["catalog", "--out", "-a b", "--grid=--"])
def test_declined_lines_run_no_command(argv):
    # a line that does not parse exits on help (0) or a usage error (2)
    if _parse_quietly(argv) is not None:
        return

    def refuse(cfg):
        pytest.fail("%r ran a command on a line the table declines" % argv)

    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(cli.COMMANDS, dict.fromkeys(COMMANDS, refuse)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == EXIT_OK:
        assert {"-h", "--help"} & set(argv) and out.getvalue().startswith("usage:")
        assert err.getvalue() == ""
    else:
        assert code == EXIT_USAGE and out.getvalue() == "", argv
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, argv


# an `=` value of exactly "--" is a value like any other (--out=-- is in GRAMMAR_CHANGES);
# argparse read it as an empty list, which once reached the commands as a traceback (--eps,
# --grid) or as no config at all. F holds {"eps": "--"}
EMPTY_VALUES = [
    (["analyze", "--scheme", "roe", "--eps=--"], "--eps: invalid float value: '--'"),
    (["analyze", "--scheme", "roe", "--grid=--"], "bad --grid '--', want NX or NX,NY"),
    (["certify", "--divergence", "none", "--config=--"],
     "cannot read config --: [Errno 2] No such file or directory: '--'"),
    (["analyze", "--scheme", "roe", "--config", "F"], "config eps: invalid float value: '--'"),
]


@pytest.mark.parametrize("argv, message", EMPTY_VALUES,
                         ids=[" ".join(a) for a, _ in EMPTY_VALUES])
def test_empty_values_are_usage_errors(argv, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "F").write_text(json.dumps({"eps": "--"}))
    # and with an --out ahead of them, which is never left behind
    for line in (argv, [argv[0], "--out", "made", *argv[1:]]):
        assert main(line) == EXIT_USAGE
        assert capsys.readouterr() == ("", "error: %s\n" % message)
    assert os.listdir(tmp_path) == ["F"]


# the run half's pools: no --config and no --out; the float extremes, grids up to 8 and a
# few malformed values; no -h, so that every line runs or exits 2
RUN_FLAGS = [flag for flag in FLAGS if flag not in ("--config", "--out")]
RUN_VALUES = ["0", "1", "-1", "0.5", "2", "3", "8", "5,3", "3,8", "5e-324", "1e-308", "1e-154",
              "1e154", "5e153", "1.7e308", "-1e-3", "nan", "inf", "-inf", "1e400", "central",
              "averaged", "none", "x", "", "-", "--"]
# the three warnings gresho_vortex gives on purpose, which the README documents
VORTEX_WARNINGS = ("vortex centre", "vortex radius .* exceeds distance",
                   "vortex radius .* holds no cell centre")


@st.composite
def runnable_lines(draw):
    """command_lines over the run pools, after a scheme, a grid up to 8 and --t-end 0.005 for
    the commands that read them; the drawn tokens may override these."""
    argv = draw(command_lines(flags=RUN_FLAGS, values=RUN_VALUES, others=[]))
    given_first = {"scheme": draw(st.sampled_from(CATALOG_NAMES + ("dimsplit",))),
                   "grid": draw(st.sampled_from(["3", "8", "5,3"])),
                   "t_end": "0.005"}
    return argv[:1] + [token for name, value in given_first.items() if name in READS[argv[0]]
                       for token in ("--" + name.replace("_", "-"), value)] + argv[1:]


def _cheap(argv):
    """--t-end at most 0.01, a simulate run of at most 2,000 steps by cfl_dt, and --radius at
    most 2; the pools bound grids to 8. A line that does not parse is cheap."""
    line = _parse_quietly(argv)
    if line is None:
        return True
    cfg = options(*line)
    if cfg.get("radius", 1) > 2 or cfg.get("t_end", 0) > 0.01:
        return False
    if argv[0] != "simulate":
        return True
    try:
        dt = cfl_dt(cli.parse_params(cfg), cli.parse_grid(cfg), cfg["cfl"])
        return not cfg["t_end"] / dt > 2000
    except (cli.UsageError, ZeroDivisionError):
        return True


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(argv=runnable_lines())
@example(argv=["analyze", "--scheme", "dimsplit", "--grid", "3", "--a1=--"])
def test_every_line_exits_0_to_3_with_strict_json(argv):
    assume(_cheap(argv))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        for message in VORTEX_WARNINGS:
            warnings.filterwarnings("ignore", message=message, category=UserWarning)
        code = main(argv)
    assert code in (EXIT_OK, EXIT_FAIL, EXIT_USAGE, EXIT_UNSTABLE), argv
    assert "Traceback" not in err.getvalue()
    if code == EXIT_USAGE:
        assert out.getvalue() == "", argv
    else:
        strict_json(out.getvalue())


@pytest.mark.parametrize("argv", [
    ["analyze", "--out", "-"], ["sweep", "--grid", "-"], ["analyze", "--a3", "-1e-3"],
    ["analyze", "--eps=nan", "--eps", "0.5"],
    ["certify", "--divergence=none", "--divergence", "none"],
    ["certify", "--divergence=averaged", "--radius", "3"], ["catalog", "--out="],
    ["simulate", "--scheme", "roe", "--out", "-run 1"], ["analyze", "--eps", "-inf "],
    ["catalog", "--out", "--x=a b"], ["catalog", "--out", "--scheme=a b"],
], ids=" ".join)
def test_table_parse_reads_these_as_argparse_does(argv):
    command, oracle = oracle_given(argv)
    line = parse_line(argv)
    assert line[0] == command and _same_options(line[1], oracle)


# a value that starts with "-" and holds a space is a value; these once ended in a traceback,
# and argparse read the last two as flags
def test_spaced_values_led_by_a_dash_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--scheme", "roe", "--out", "-run 1"]) == EXIT_OK
    assert capsys.readouterr().out == os.path.join("-run 1", "simulate_roe.json") + "\n"
    assert main(["analyze", "--scheme", "roe", "--eps", "-inf "]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: eps must be finite, got -inf\n"
    for value in ("-h x", "--eps=1 2"):
        assert main(["catalog", "--grid", "8", "--out", value]) == EXIT_OK
        assert capsys.readouterr().out == os.path.join(value, "catalog.json") + "\n"
    assert sorted(os.listdir(tmp_path)) == ["--eps=1 2", "-h x", "-run 1"]


# a process in which importing argparse fails: it builds the flag tables, prints help and
# errors and runs a command, and prints the exit code of each line
NO_ARGPARSE = """
import contextlib, io, json, sys
sys.modules["argparse"] = None
from acousticfd import cli
cli.build_parser()
lines = [["--help"], ["analyze", "--help"], ["certify", "--bogus"], ["catalog", "--grid", "8"]]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [cli.main(argv) for argv in lines]
print(json.dumps(codes))
"""


def test_no_line_imports_argparse(tmp_path, monkeypatch, capsys):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", NO_ARGPARSE], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [EXIT_OK, EXIT_OK, EXIT_USAGE, EXIT_OK]
    workloads = _load_clibench("workloads")
    lines = [[str(tmp_path / ("out%d" % i)) if token == workloads.OUT else token
              for token in argv]
             for i, argv in enumerate(argv for workload in workloads.WORKLOADS
                                      for seed in range(10)
                                      for argv in workloads.commands(workload, seed))]
    expected = [oracle_options(argv) for argv in lines]
    # every command for real, from flags and from a config that holds the same values
    cfgfile = tmp_path / "cfg.json"
    for command, flags in [*READ_RUNS.items(), ("certify", ["--divergence", "averaged"])]:
        assert main([command, *flags]) == EXIT_OK
        from_flags = capsys.readouterr().out
        strict_json(from_flags)
        names = (flag[2:].replace("-", "_") for flag in flags[::2])
        cfgfile.write_text(json.dumps(dict(zip(names, flags[1::2]))))
        assert main([command, "--config", str(cfgfile)]) == EXIT_OK
        assert capsys.readouterr().out == from_flags
    # the benchmark's lines parse to the options argparse gives them; the commands are
    # recorded, not run, since the marches take seconds
    ran = []
    monkeypatch.setattr(cli, "COMMANDS", {name: lambda cfg: ran.append(cfg) or EXIT_OK
                                          for name in COMMANDS})
    for argv in lines:
        assert main(argv) == EXIT_OK
    assert [repr(cfg) for cfg in ran] == [repr(cfg) for cfg in expected]


# sha256 of each --help screen, rendered from SUBCOMMANDS and OPTIONS at any width; certify's
# was recorded again when --identity-only became --divergence none, and analyze's when
# --k-samples went
HELP_SHA256 = {
    (): "8580ba3280ba05c3b003b8d4feeea446804a41a39e8caa536e09929da84cc3b1",
    ("analyze",): "9befa1b5e3531d47e023f944f651c3866f0575dbbda9909dea8a896a98d34d8d",
    ("certify",): "a0cd3dd7dbf5365e8fbbba571bdd2b099b91de9fdbd8a038ee5f74e8de688b57",
    ("simulate",): "48785153801e19ab03c2f40cabbad20fa4fa4a039ca8ffb417de3a1962cd5808",
    ("sweep",): "8e96f92ece5059888ac04cf5ba4d3fcbadef354cd6387baef7dae41dd17afe79",
    ("catalog",): "380257730827e41024158e86e737058efbbdf2a4d49a51376e0b459328875060",
}
USAGE = "usage: acousticfd [-h] {analyze,certify,simulate,sweep,catalog} ...\n"
COMMANDS_NAMED = " (commands: analyze, certify, simulate, sweep, catalog)"
PARSE_ERRORS = {
    (): "a command is required" + COMMANDS_NAMED,
    ("bogus",): "unknown command 'bogus'" + COMMANDS_NAMED,
    ("certify", "--bogus"): "certify takes no --bogus",
    ("certify", "--identity-only=x"): "certify takes no --identity-only=x",
    # no flag abbreviates another: these once read as --config 1 and --k-samples 3
    ("certify", "--c", "1"): "certify takes no --c",
    ("analyze", "--k", "3"): "analyze takes no --k",
}


@pytest.mark.parametrize("argv", sorted(HELP_SHA256), ids=lambda a: " ".join(a) or "top")
def test_help_screens_unchanged(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "40")
    out = _help([*argv, "--help"], capsys)
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_SHA256[argv]


def _readme_flag_table():
    """{subcommand: its row's cells} off README's table of subcommand flags: each cell is a
    flag, then its choices or metavar if the README shows one, or `--a1 … --a4`."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = {}
    for line in text.split("| subcommand | flags |\n", 1)[1].splitlines()[1:]:
        if not line.startswith("| `"):
            break
        command, cells = re.fullmatch(r"\| `(\w+)` \| (.*) \|", line).groups()
        rows[command] = re.findall(r"`([^`]+)`", cells)
    return rows


def test_readme_flag_table_matches_the_options():
    # each row lists its subcommand's flags but --config, in order; a flag with choices shows
    # them, and any other flag may show its metavar
    rows = _readme_flag_table()
    assert list(rows) == list(READS)
    for command, cells in rows.items():
        listed = []
        for cell in cells:
            if cell == "--a1 … --a4":
                listed += ["--a1", "--a2", "--a3", "--a4"]
                continue
            text, _, shown = cell.partition(" ")
            assert text in cli.FLAGS[command], (command, cell)
            spec = cli.ROWS[cli.FLAGS[command][text]][2]
            choices = "{%s}" % ",".join(spec) if isinstance(spec, tuple) else None
            assert shown == choices if choices else shown in ("", spec), (command, cell)
            listed.append(text)
        assert listed == [flag for flag in cli.FLAGS[command] if flag != "--config"], command


@pytest.mark.parametrize("argv", sorted(PARSE_ERRORS), ids=lambda a: " ".join(a) or "none")
def test_parse_errors_unchanged(argv, capsys):
    assert main(list(argv)) == EXIT_USAGE
    assert capsys.readouterr() == ("", "error: " + PARSE_ERRORS[argv] + "\n")


def test_run_longer_than_max_steps_is_usage_error(tmp_path, capsys):
    out = tmp_path / "D"
    rc = main(["simulate", "--scheme", "roe", "--grid", "16", "--t-end", "1e9",
               "--out", str(out)])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == ("error: run to t_end wants 3.56e+10 steps of dt = cfl*min(dx,dy)*eps/c, "
                   "over the limit of 10000000: raise --cfl or lower --t-end\n")
    assert os.listdir(tmp_path) == []


def test_infinite_cfl_is_usage_error(tmp_path, capsys):
    out = tmp_path / "D"
    assert main(["simulate", "--scheme", "roe", "--grid", "8", "--cfl", "inf",
                 "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == "error: cfl must be positive and finite\n"
    assert not out.exists()


def test_vortex_outside_domain_reports_null_retention(tmp_path):
    # a 0.16-wide domain: the vortex centred at 0.5 leaves u = 0 everywhere
    with pytest.warns(UserWarning, match="lies outside the domain"):
        rc = main(["simulate", "--scheme", "roe", "--grid", "16", "--dx", "0.01",
                   "--dy", "0.01", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    run0 = _read_json(tmp_path / "simulate_roe.json")["runs"][0]
    assert run0["initial_dux_l1"] == 0.0
    assert run0["dux_retention"] is None
    assert "vortex misses the domain" in run0["dux_retention_error"]


VORTEX_UNSAMPLED = "vortex radius 0.4 holds no cell centre off the vortex centre: cells of 1 x 1"


def test_vortex_no_cell_samples_reports_null_retention(capsys):
    # unit cells: the one cell centre inside the vortex is its centre, where u = v = 0
    with pytest.warns(UserWarning, match=VORTEX_UNSAMPLED):
        assert main(["simulate", "--scheme", "roe", "--grid", "8", "--dx", "1", "--dy", "1",
                     "--t-end", "0.5"]) == EXIT_OK
    run0 = strict_json(capsys.readouterr().out)["runs"][0]
    assert run0["initial_dux_l1"] == 0.0 and run0["dux_retention"] is None
    assert run0["dux_retention_error"] == ("initial dux_l1 is 0: no cell centre off the vortex "
                                           "centre lies inside it")


def test_sweep_of_an_unsampled_vortex_warns():
    # the constant state passes every CFL point, so the sweep reads the grid's last one
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "acousticfd.cli", "sweep", "--scheme", "roe",
                           "--grid", "64", "--eps", "0.01", "--dx", "1", "--dy", "1"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_OK
    assert "UserWarning: %s sample a constant state" % VORTEX_UNSAMPLED in proc.stderr
    doc = strict_json(proc.stdout)
    assert doc["max_stable_cfl"] == 1.6 and all(r["stable"] for r in doc["results"])


def test_seed_flag_is_gone():
    assert main(["analyze", "--scheme", "roe", "--seed", "1"]) == EXIT_USAGE


def test_c1_c2_flags_are_gone(tmp_path):
    for flag in ("--c1", "--c2"):
        assert main(["analyze", "--scheme", "multid", flag, "5"]) == EXIT_USAGE
    cfgfile = tmp_path / "cfg.json"
    for key in ("c1", "c2"):
        cfgfile.write_text(json.dumps({key: 5}))
        assert main(["analyze", "--scheme", "multid", "--config", str(cfgfile)]) == EXIT_USAGE


def test_traced_names_resolve():
    # the benchmark's tracer wraps these by module and name; a rename breaks it
    import importlib

    tracing = _load_clibench("tracing")
    for module, names in tracing.WRAPPED.items():
        mod = importlib.import_module("acousticfd." + module)
        for qual in names:
            if "." in qual:
                cls_name, attr = qual.split(".")
                assert callable(vars(getattr(mod, cls_name)).get(attr)), qual
            else:
                assert callable(getattr(mod, qual, None)), (module, qual)


def test_traced_det_scan_counts_resolve():
    # a traced analyze records (samples, generic samples, withheld) from det_scan's result
    tracing = _load_clibench("tracing")
    spec = make_scheme("multid", AcousticParams(c=1.0, eps=0.01), GridSpec(24, 24))
    scan = det_scan(spec)
    assert tracing.EXTRAS["fourier.det_scan"]((), {}, scan) == [248, 200, 0]


def test_traced_counts_resolve(tmp_path):
    # each other count the tracer records, read off the real arguments and result of its call
    tracing = _load_clibench("tracing")
    extras = tracing.EXTRAS
    grid = GridSpec(8, 8)
    spec = make_scheme("roe", AcousticParams(c=1.0, eps=0.5), grid)
    state = gresho_vortex(grid)
    args = (spec.stencil, state.q)
    assert extras["stencils.apply_sum"](args, {}, spec.stencil.apply_sum(state.q)) == [64, 5]
    args = (spec, state, StepControl(cfl=0.4, t_end=0.05))
    assert extras["timestep.run"](args, {}, run(*args)) == [2, 64]
    # the scan runs 2.0 (unstable) and then 0.4 (stable), and stops there
    args = (spec, state, [0.1, 0.4, 2.0])
    assert extras["timestep.cfl_sweep"](args, {}, cfl_sweep(*args, horizon_steps=20)) == [2, 1, 64]
    path = tmp_path / "field.csv"
    assert extras["grid.write_field_csv"]((path, state), {}, write_field_csv(path, state)) == [
        path.stat().st_size]
    args = (tmp_path / "series.csv", [0.0, 0.5], state.q[0, 0, :2], {"probe": "dux_l1"})
    assert extras["experiments.write_timeseries_csv"](args, {}, write_timeseries_csv(*args)) == [
        args[0].stat().st_size + (tmp_path / "series.csv.meta.json").stat().st_size]
    # emit_json counts the bytes of its file, or of what it wrote to stdout
    doc = {"scheme": "roe"}
    args = (doc, {"out": str(tmp_path)}, "doc.json")
    with contextlib.redirect_stdout(io.StringIO()):
        result = cli.emit_json(*args)
    assert tracing._emit_json_extra(args, {}, result, 0) == [(tmp_path / "doc.json").stat().st_size]
    args = (doc, {"out": None}, "doc.json")
    with contextlib.redirect_stdout(io.StringIO("ahead")) as out:
        out.seek(5)
        result = cli.emit_json(*args)
        assert tracing._emit_json_extra(args, {}, result, 5) == [len(out.getvalue()) - 5]


def test_unknown_config_key_rejected(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"epsilon": 0.1}))
    rc = main(["analyze", "--scheme", "roe", "--config", str(cfgfile)])
    assert rc == EXIT_USAGE
    cfgfile.write_text("[1, 2]")
    assert main(["analyze", "--scheme", "roe", "--config", str(cfgfile)]) == EXIT_USAGE


def test_config_merge_precedence(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"scheme": "central", "eps": 0.25, "grid": "12"}))
    out = tmp_path / "out"
    rc = main(["analyze", "--config", str(cfgfile), "--eps", "0.5",
               "--out", str(out)])
    assert rc == EXIT_OK
    doc = _read_json(out / "analyze_central.json")
    # flag beats config; config beats default
    assert doc["config"]["eps"] == 0.5
    assert doc["config"]["scheme"] == "central"
    assert doc["config"]["grid"] == "12"


# (command line, config, exit code, what stderr names): each config value goes through its
# option's converter as the text "%s" % value, so it is checked as a flag's text is
CONFIG_PROBES = [
    (["certify"], {"divergence": "nope"}, EXIT_USAGE,
     "config divergence: invalid choice: 'nope' (choose from central, averaged, both, none)"),
    (["certify"], {"radius": 1.9}, EXIT_USAGE, "config radius: invalid int value: '1.9'"),
    (["certify"], {"radius": "x"}, EXIT_USAGE, "config radius: invalid int value: 'x'"),
    # k_samples is no key since the scan became one fixed procedure, whatever its value
    (["analyze", "--scheme", "roe"], {"k_samples": "x"}, EXIT_USAGE,
     "unknown config keys: k_samples"),
    (["analyze", "--scheme", "roe", "--grid", "8"], {"k_samples": 200}, EXIT_USAGE,
     "unknown config keys: k_samples"),
    (["simulate", "--scheme", "roe", "--grid", "8"], {"cfl": "x"}, EXIT_USAGE,
     "config cfl: invalid float value: 'x'"),
    (["analyze", "--scheme", "roe"], {"dx": "x"}, EXIT_USAGE,
     "config dx: invalid float value: 'x'"),
    (["analyze", "--scheme", "roe"], {"eps": True}, EXIT_USAGE,
     "config eps = true: --eps takes a string or a number"),
    (["analyze", "--scheme", "roe"], {"grid": [12, 7]}, EXIT_USAGE,
     "config grid = [12, 7]: --grid takes a string or a number"),
    (["analyze"], {"scheme": "dimsplit", "a1": "x"}, EXIT_USAGE,
     "config a1: invalid float value: 'x'"),
    (["analyze", "--grid", "8"], {"scheme": "roe", "a1": 5}, EXIT_USAGE,
     "--a1 set dimsplit coefficients; --scheme roe takes none"),
    # null means not given, and a flag still beats the config
    (["simulate", "--scheme", "roe", "--grid", "8"], {"t_end": None}, EXIT_OK, None),
    (["certify", "--radius", "1"], {"radius": 3}, EXIT_OK, None),
    (["certify"], {"divergence": "none"}, EXIT_OK, None),
    # keys of other subcommands stay ignored, checked or not
    (["analyze", "--scheme", "roe", "--grid", "8"],
     {"radius": "x", "divergence": "nope", "cfl": "x", "t_end": None}, EXIT_OK, None),
    (["catalog", "--grid", "8"], {"scheme": "nosuch", "a1": 5}, EXIT_OK, None),
    (["catalog", "--grid", "8"], {"scheme": "nosuch", "a1": 5, "k_samples": 0}, EXIT_USAGE,
     "unknown config keys: k_samples"),
    # identity_only is no key since its switch became --divergence none, for any command
    (["certify"], {"identity_only": "no"}, EXIT_USAGE, "unknown config keys: identity_only"),
    (["certify"], {"identity_only": True}, EXIT_USAGE, "unknown config keys: identity_only"),
    (["certify"], {"identity_only": False, "radius": 1}, EXIT_USAGE,
     "unknown config keys: identity_only"),
    (["analyze", "--scheme", "roe", "--grid", "8"],
     {"radius": "x", "identity_only": "no", "cfl": "x", "t_end": None}, EXIT_USAGE,
     "unknown config keys: identity_only"),
]


@pytest.mark.parametrize("argv, config, code, message", CONFIG_PROBES,
                         ids=["%s %s" % (argv[0], json.dumps(config))
                              for argv, config, _, _ in CONFIG_PROBES])
def test_config_values_are_checked_like_flags(argv, config, code, message, tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(config))
    assert main([*argv, "--config", str(cfgfile)]) == code
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    if message is None:
        assert err == ""
        doc = json.loads(out)
        if argv[0] == "simulate":
            assert doc["runs"][0]["t_end"] == 0.3
        if argv[0] == "certify":
            assert ("central_nullspace_dim" in doc) != (config.get("divergence") == "none")
    else:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert message in err


# nor is any config key a switch: a JSON true is no value of a key the command reads, and a key
# of no option is unknown, identity_only among them
@pytest.mark.parametrize("command", sorted(READS))
def test_a_json_true_is_no_value_of_any_key(command, tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    for key in (*READS[command], "identity_only", "config"):
        cfgfile.write_text(json.dumps({key: True}))
        assert main([command, "--config", str(cfgfile)]) == EXIT_USAGE
        message = ("config %s = true: %s takes a string or a number" % (key, cli.flag(key))
                   if key in READS[command] else "unknown config keys: " + key)
        assert capsys.readouterr() == ("", "error: %s\n" % message)
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_config_values_echo_as_the_flags_give_them(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"scheme": "roe", "grid": 8, "eps": 1}))
    assert main(["analyze", "--config", str(cfgfile)]) == EXIT_OK
    from_config = json.loads(capsys.readouterr().out)
    assert from_config["config"] == {"scheme": "roe", "a1": 0.0, "a2": 0.0, "a3": 0.0,
                                     "a4": 0.0, "grid": "8", "dx": None, "dy": None,
                                     "eps": 1.0, "c": 1.0}
    assert main(["analyze", "--scheme", "roe", "--grid", "8", "--eps", "1"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == from_config


# a document records every option that made it: lines that differ in one option, the later
# of two flags winning, write config blocks that differ in that key alone
RECORDED_LINES = {
    "analyze": ["analyze", "--scheme", "dimsplit", "--a2", "0.5", "--grid", "12,7", "--dx", "1e-3",
                "--dy", "0.07"],
    "sweep": ["sweep", "--scheme", "dimsplit", "--a2", "0.5", "--grid", "10", "--dx", "0.1"],
}


@pytest.mark.parametrize("command", sorted(RECORDED_LINES))
def test_documents_record_the_options_that_made_them(command, capsys):
    base = RECORDED_LINES[command]
    configs = []
    for argv in (base, base + ["--a2", "0.25"], base + ["--dx", "0.125"]):
        assert main(argv) == EXIT_OK
        config = strict_json(capsys.readouterr().out)["config"]
        assert config == {k: v for k, v in options(*parse_line(argv)).items() if k != "out"}
        configs.append(config)
    assert [{k for k in config if config[k] != configs[0][k]} for config in configs[1:]] == [
        {"a2"}, {"dx"}]


def test_certify_default(tmp_path, capsys):
    rc = main(["certify", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    doc = _read_json(tmp_path / "certify.json")
    assert doc["certified"] is True and doc["failures"] == []
    assert doc["operator_identities"]["ok"] is True
    assert doc["operator_identities"]["central_substitute"] is False
    assert doc["central_nullspace_dim"] == 0
    assert doc["averaged_nullspace_dim"] == 2
    assert doc["averaged_basis_matches_consistent_diffusion"] is True
    assert len(doc["symmetry_scan"]) == 25
    hits = [r for r in doc["symmetry_scan"] if r["dim"] > 0]
    assert len(hits) == 1 and hits[0]["gamma"] == "0.125"
    # and for every gamma, not only the 25 members: det = (k - 2)^2 in k = 16 gamma
    assert doc["moore_family"] == {"det_coefficients": [4, -4, 1], "singular_gamma": "0.125",
                                   "nullity": 2}


def test_certify_fails_when_the_family_is_singular_off_the_averaged_member(monkeypatch, capsys):
    monkeypatch.setattr(cli, "moore_family", lambda: {
        "det_coefficients": [2, -3, 1], "singular_gamma": None, "nullity": None})
    assert main(["certify"]) == EXIT_FAIL
    out, err = capsys.readouterr()
    doc = strict_json(out)
    assert doc["certified"] is False and doc["moore_family"]["singular_gamma"] is None
    assert "[2, -3, 1]" in err


def test_certify_fails_on_the_family_line_alone_when_its_root_moves(monkeypatch, capsys):
    # det (k - 1)^2 puts the one singular member at gamma = 1/16: the scan, read off the same
    # determinant, finds no member with a nullspace, and the family check is the one that fails
    s, a, _ = laurent._moore_reduction()
    monkeypatch.setattr(laurent, "_moore_reduction", lambda: (s, a, [1, -2, 1]))
    assert main(["certify"]) == EXIT_FAIL
    out, err = capsys.readouterr()
    doc = strict_json(out)
    assert doc["moore_family"]["singular_gamma"] == "0.0625"
    assert len(doc["symmetry_scan"]) == 25
    assert all(r["dim"] == 0 for r in doc["symmetry_scan"])
    assert len(doc["failures"]) == 1 and "[1, -2, 1]" in doc["failures"][0]
    assert err.splitlines() == ["FAIL: " + doc["failures"][0]]


# sha256 of the certify stdout recorded from `certify --identity-only`, before that switch
# became --divergence none
IDENTITY_ONLY_SHA256 = "ad3b2381e44e4e5724ff65d1f7719939a1ae46272a529d5cbb1570099fcba0b1"


def test_certify_identity_only(capsys):
    rc = main(["certify", "--divergence", "none"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["certified"] is True
    assert set(doc) == {"operator_identities", "failures", "certified"}
    assert hashlib.sha256(out.encode()).hexdigest() == IDENTITY_ONLY_SHA256


def test_certify_divergence_none_reads_no_radius(capsys):
    # --radius sizes the nullspace searches, of which --divergence none runs none
    assert main(["certify", "--divergence", "none", "--radius", "0"]) == EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == IDENTITY_ONLY_SHA256
    assert main(["certify", "--divergence", "central", "--radius", "0"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: --radius must be at least 1, got 0\n"


def test_certify_single_divergence(capsys):
    rc = main(["certify", "--divergence", "averaged"])
    assert rc == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["averaged_nullspace_dim"] == 2
    assert "central_nullspace_dim" not in doc
    assert "symmetry_scan" not in doc


def test_simulate_stable_run(tmp_path):
    rc = main(["simulate", "--scheme", "multid", "--grid", "24", "--cfl", "0.4",
               "--eps", "0.5", "--t-end", "0.05", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    doc = _read_json(tmp_path / "simulate_multid.json")
    run0 = doc["runs"][0]
    assert run0["eps"] == 0.5 and run0["n_steps"] >= 1
    for base in run0["files"].values():
        assert (tmp_path / base).exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_simulate_instability_exit(tmp_path):
    rc = main(["simulate", "--scheme", "roe", "--cfl", "2.0", "--t-end", "5.0",
               "--grid", "24", "--eps", "0.1", "--out", str(tmp_path)])
    assert rc == EXIT_UNSTABLE
    doc = _read_json(tmp_path / "simulate_failed.json")
    assert doc["error"] == "instability"
    assert isinstance(doc["step"], int) and doc["step"] > 1
    assert doc["last_stable_time"] > 0.0


def test_simulate_outputs_deterministic(tmp_path):
    argv = ["simulate", "--scheme", "lowmach2", "--grid", "20", "--cfl", "0.2",
            "--eps", "0.5", "--t-end", "0.05"]
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main(argv + ["--out", str(d1)]) == EXIT_OK
    assert main(argv + ["--out", str(d2)]) == EXIT_OK
    names = sorted(os.listdir(d1))
    assert names == sorted(os.listdir(d2))
    for name in names:
        assert filecmp.cmp(d1 / name, d2 / name, shallow=False), name


def test_cfl_sweep_flag_is_gone(tmp_path):
    # `sweep` is the one route into the CFL scan
    assert main(["simulate", "--cfl-sweep", "--scheme", "roe", "--grid", "16"]) == EXIT_USAGE
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"cfl_sweep": True}))
    assert main(["simulate", "--scheme", "roe", "--config", str(cfgfile)]) == EXIT_USAGE


def test_sweep_command_writes_its_document(tmp_path):
    rc = main(["sweep", "--scheme", "roe", "--grid", "16", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    doc = _read_json(tmp_path / "sweep_roe.json")
    assert doc["config"]["scheme"] == "roe"
    assert doc["scan"] == "descending, stops at the first stable point"
    assert doc["max_stable_cfl"] is not None
    assert 0.3 <= doc["max_stable_cfl"] <= 0.7
    # the rows run from 1.6 down to the answer: the last one stable, every other one not
    cfls = [round(0.05 * k, 2) for k in range(32, 0, -1)]
    assert [r["cfl"] for r in doc["results"]] == cfls[:cfls.index(doc["max_stable_cfl"]) + 1]
    assert [r["stable"] for r in doc["results"]] == [False] * (len(doc["results"]) - 1) + [True]


# at c = eps = 1e-8 M's (u, p) taps are 1e16 times its (u, u) taps; the vortex at pressure 0
# gives them nothing to swamp the velocity sums with, so the sweep reads its c = eps = 1 rows
@pytest.mark.parametrize("scheme,max_cfl,n_rows", [("roe", 0.5, 23), ("multid", 1.0, 13)])
def test_sweep_at_small_c_and_eps_reads_the_unit_scale_answer(scheme, max_cfl, n_rows, capsys):
    assert main(["sweep", "--scheme", scheme, "--grid", "64", "--c", "1e-8",
                 "--eps", "1e-8"]) == EXIT_OK
    doc = strict_json(capsys.readouterr().out)
    assert doc["max_stable_cfl"] == max_cfl and len(doc["results"]) == n_rows


def test_catalog_listing(capsys):
    rc = main(["catalog"])
    assert rc == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    by_name = {e["name"]: e for e in doc["schemes"]}
    assert set(by_name) == {"central", "roe", "lowmach1", "lowmach2",
                            "lowmach3", "multid"}
    assert by_name["roe"]["claims"]["stationarity_preserving"] is False
    assert by_name["roe"]["diffusion"] == {"a1": "1", "a2": "0", "a3": "0", "a4": "1"}
    assert by_name["lowmach3"]["diffusion"] == {"a1": "0", "a2": "1", "a3": "0", "a4": "2"}
    assert "diffusion" not in by_name["multid"]
    assert by_name["multid"]["claims"]["expected_max_cfl"] == 1.0
    assert by_name["central"]["stationarity_preserving_expected"] is True
    assert set(by_name["roe"]) == {"name", "claims", "diffusion",
                                   "stationarity_preserving_expected"}


# finite runs whose values leave the float range write null beside a reason, never Infinity
# or NaN: at a1 = 1e300 and c = 1e-300 each dt is finite (below 1e300) while dt times the
# diffusion taps is not, so the first step of every sweep point is non-finite; at cfl
# 1.7e308 one anti-diffusive step leaves the state finite and its L1 probes past the float
# range; at cfl 4e102 the third step does, inside the fit window, which once fitted a NaN rate
@pytest.mark.filterwarnings("error")
def test_sweep_writes_null_for_a_non_finite_peak(capsys):
    assert main(["sweep", "--scheme", "dimsplit", "--a1", "1e300", "--c", "1e-300",
                 "--grid", "3"]) == EXIT_OK
    doc = strict_json(capsys.readouterr().out)
    assert len(doc["results"]) == 32 and doc["max_stable_cfl"] is None
    for row in doc["results"]:
        assert row["stable"] is False and row["peak_norm"] is None
        assert row["peak_norm_error"] == "a state turned non-finite below the bound"


OVERFLOWING_PROBES = {
    1: (["--cfl", "1.7e308", "--t-end", "0.01"], "fit window [1, 3.4e+307] holds 1 samples"),
    3: (["--cfl", "4e102", "--t-end", "2.4e102"], "non-finite values in fit window"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n_steps", sorted(OVERFLOWING_PROBES))
def test_simulate_writes_null_for_an_overflowing_probe(n_steps, capsys):
    step_args, fit_error = OVERFLOWING_PROBES[n_steps]
    assert main(["simulate", "--scheme", "dimsplit", "--a1", "-1", "--a2", "0.01", "--dy", "0.5",
                 "--grid", "5,3", *step_args]) == EXIT_OK
    run0 = strict_json(capsys.readouterr().out)["runs"][0]
    assert run0["n_steps"] == n_steps and run0["initial_dux_l1"] > 0
    for key in ("final_dux_l1", "final_duy_l1"):
        assert run0[key] is None
        assert run0[key + "_error"] == "the L1 probe overflows on a finite state"
    assert run0["dux_retention"] is None
    assert run0["dux_retention_error"] == "dux_l1 or its ratio leaves the float range"
    assert not any(key.startswith("initial_") and key.endswith("_error") for key in run0)
    assert run0["lambda_fit"] is None and run0["fit_error"].startswith(fit_error)


# sha256 of the analyze stdout, recorded when "conserved_operator" became the
# closed-form vorticity row (SchemeSpec.vorticity_row) and sigma_min_ratio lost
# its sign bit. Against the digests before that, only those two fields changed:
# the row in the 11 stationarity preserving documents (centred, primitive,
# bound to the grid), and -0.0 -> 0.0 ratios in central and lowmach1. The two
# roe documents are unchanged, as are verdicts and kernel dimensions everywhere. The
# eps = 1e-2 digests were recorded again when the scan moved from the balanced float M to
# M^ rounded once: only samples[].sigma_min_ratio (25-235 of 248) and, for roe and
# multid, samples[].absdet changed; each document now equals its eps = 1 one but config.
# All were recorded again when the exact rank of M^ became the verdict: only the keys
# changed, scan_verdict added (equal to verdict in each) and samples_withheld and
# samples[].non_diagonalizable gone (0 and false in each before). All were recorded again
# when config became every option analyze read but --out: only config changed, gaining a1..a4,
# dx and dy. All were recorded again when --k-samples went and the scan became one fixed
# procedure of 200 generic phases: only config changed, losing k_samples (200 in each)
ANALYZE_DIGESTS = {
    ("--scheme", "central", "--eps", "1", "--grid", "24"):
        "87bc82196cde70df771f92e8cd8196222845b0831dab71d4acfb5f13ddb3facd",
    ("--scheme", "central", "--eps", "1e-2", "--grid", "24"):
        "95f0436c7395ebdb5dce80da7ea9d7c1ead56506302c30e33d325e623ed3b2b6",
    ("--scheme", "roe", "--eps", "1", "--grid", "24"):
        "ce662630d67f1bf00870d1b3c52332a45f5ca1486fdbeec8b054043763301add",
    ("--scheme", "roe", "--eps", "1e-2", "--grid", "24"):
        "9b63e4a7f749bc970c157ea131ebe6890f2fc80dd149b72fa294562cbcf2d551",
    ("--scheme", "lowmach1", "--eps", "1", "--grid", "24"):
        "95a3c3b783a48c1992153da57209b4f5b2eeb848890bd5c99c9a59cecda15dd0",
    ("--scheme", "lowmach1", "--eps", "1e-2", "--grid", "24"):
        "ec99f08c489d4a3fff1cbf3762e0a6e92aacc5b932cf481c06a6f5cd7e89703a",
    ("--scheme", "lowmach2", "--eps", "1", "--grid", "24"):
        "cc7b621747e6e7a25b4fbf13372e450b79314c647f3e6c7e2313629fee376f4f",
    ("--scheme", "lowmach2", "--eps", "1e-2", "--grid", "24"):
        "5faa9cb62d5bd8afc4b618e6140b9f9d7b5f1d6324cc092909d6d73cf05743d9",
    ("--scheme", "lowmach3", "--eps", "1", "--grid", "24"):
        "966cff101f40c2ce5ea855ef8d61701b3b752ea49ac3edb7e3a666d5b8603052",
    ("--scheme", "lowmach3", "--eps", "1e-2", "--grid", "24"):
        "179a87b3c8788c491a935917922ef569723581437c1727b0db272dc8d32dba6e",
    ("--scheme", "multid", "--eps", "1", "--grid", "24"):
        "777e0c27cf0c83992056e2c3a5149b3df345990859975da22a2f4d9f56a0c990",
    ("--scheme", "multid", "--eps", "1e-2", "--grid", "24"):
        "6d1720e2ad8189af574366f071923a3b4e622c5bd8fa84f84ae46cb324275aaf",
    DIMSPLIT_ARGV: "6d5877cbbb0e9b1798fde9818b5687c39af6895f1954c1702993205e4a2db89b",
}


@pytest.mark.parametrize("argv", sorted(ANALYZE_DIGESTS), ids=" ".join)
def test_analyze_document_digest_unchanged(argv, capsys):
    assert main(["analyze", *argv]) == EXIT_OK
    out = capsys.readouterr().out
    assert strict_json(out)["scheme"] == argv[1]
    assert hashlib.sha256(out.encode()).hexdigest() == ANALYZE_DIGESTS[argv]


# sha256 of the catalog stdout, recorded before schemes were stored as their unitless symbol
CATALOG_SHA256 = {
    (): "6024e1b294885979435908bc94dad9826e9cc015ce18015a97f62073267e22df",
    ("--eps", "0.1", "--c", "3", "--grid", "12,7", "--dx", "1e-3", "--dy", "0.07"):
        "ca2e30110671b034b0cfaaaa248aef44af83d414ac2b4d7bd92101c143f06a7e",
}


@pytest.mark.parametrize("argv", sorted(CATALOG_SHA256), ids=lambda a: " ".join(a) or "default")
def test_catalog_document_digest_unchanged(argv, capsys):
    assert main(["catalog", *argv]) == EXIT_OK
    out = capsys.readouterr().out
    assert strict_json(out)["schemes"]
    assert hashlib.sha256(out.encode()).hexdigest() == CATALOG_SHA256[argv]


# sha256 of the certify stdout and its exit code, recorded before json_document stopped
# calling json.dumps; the radius 2 and 3 runs admit consistent diffusions and exit 1
CERTIFY_SHA256 = {
    (): (0, "4f79577296cb40464367a230dc49f7b6bba45a516fff0aa667dc5fa1b213d80e"),
    ("--divergence", "central", "--radius", "2"):
        (1, "d840709d6eb247615b82c5f241f6043b01f41aaa55e1f4cda707b9586ba5b21c"),
    ("--divergence", "central", "--radius", "3"):
        (1, "0af4c663868586342444c33ad1112ff40bb85b80639d2d8f00ebf3147c3ed85d"),
    ("--divergence", "averaged", "--radius", "2"):
        (1, "c5ead69589524936a904cd1ee3a38d8014bedbc35342280f44942b8933988834"),
    ("--divergence", "averaged", "--radius", "3"):
        (1, "c684ecc5bda50b95080128603bc272c9e063ed8f503a6312be10a46ae4a4bc3e"),
}


@pytest.mark.parametrize("argv", sorted(CERTIFY_SHA256), ids=lambda a: " ".join(a) or "default")
def test_certify_document_digest_unchanged(argv, capsys):
    code, digest = CERTIFY_SHA256[argv]
    assert main(["certify", *argv]) == code
    out = capsys.readouterr().out
    assert strict_json(out)["certified"] is (code == EXIT_OK)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, derivations", [
    (["analyze", "--scheme", "roe", "--grid", "8"], 1),
    (["analyze", "--scheme", "multid", "--grid", "8"], 1),
    (["analyze", *DIMSPLIT_ARGV], 1),
    (["catalog"], 0),
    (["sweep", "--scheme", "roe", "--grid", "8"], 1),
    (["simulate", "--scheme", "multid", "--grid", "8", "--t-end", "0.05"], 1),
], ids=lambda a: str(a) if isinstance(a, int) else " ".join(a[:3]))
def test_float_stencil_derivations(argv, derivations, monkeypatch, capsys):
    # a scheme is its unitless symbol; the float stencil is derived once, and only when read:
    # analyze rounds M^ for its scan, and only the commands that march derive M
    from acousticfd.schemes import SchemeSpec
    from acousticfd.stencils import MatrixStencil

    built = []
    init = MatrixStencil.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(MatrixStencil, "__init__", counting_init)
    if argv[0] == "analyze":
        monkeypatch.setattr(SchemeSpec, "stencil", property(
            lambda spec: pytest.fail("analyze read SchemeSpec.stencil")))
    assert main(argv) == EXIT_OK
    assert len(built) == derivations


@pytest.mark.parametrize("argv, builds", [
    (["analyze", "--scheme", "roe", "--grid", "8"], 1),
    (["simulate", "--scheme", "multid", "--grid", "8", "--t-end", "0.05"], 1),
    (["simulate", "--scheme", "dimsplit", "--a2", "0.5", "--grid", "8", "--t-end", "0.001"], 1),
    (["sweep", "--scheme", "roe", "--grid", "8"], 1),
    (["catalog"], 6),
], ids=lambda a: str(a) if isinstance(a, int) else " ".join(a[:3]))
def test_one_scheme_build_per_command(argv, builds, monkeypatch, capsys):
    # every module that imported make_scheme gets the counting one
    from acousticfd import schemes

    calls = []
    make = schemes.make_scheme

    def counting_make(*args, **kwargs):
        calls.append(args[0])
        return make(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "acousticfd" and getattr(module, "make_scheme", None) is make:
            monkeypatch.setattr(module, "make_scheme", counting_make)
    assert main(argv) == EXIT_OK
    assert len(calls) == builds


def test_simulate_warning_leaves_stdout_one_document():
    # a 0.08-wide domain misses the vortex centre: the warning goes to stderr, not stdout
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "acousticfd.cli", "simulate", "--scheme", "roe",
                           "--grid", "8", "--dx", "0.01", "--t-end", "0.001"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_OK
    assert "UserWarning: vortex centre (0.5, 0.5) lies outside the domain" in proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["scheme"] == "roe" and doc["runs"][0]["dux_retention"] is None


# near the float limit: tracebacks while the scaling check rebuilt float stencils
@pytest.mark.parametrize("c", ["3.5e153", "4e153", "4.5e153"])
def test_scaling_check_derives_no_floats_near_the_float_limit(c, capsys):
    argv = ["analyze", "--scheme", "roe", "--c", c, "--grid", "8"]
    assert main(argv) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] is False and doc["eigenvalue_scaling"]["passed"] is True


def test_catalog_beyond_the_float_range(capsys):
    assert main(["catalog", "--c", "1e200", "--eps", "1e-200"]) == EXIT_OK
    by_name = {e["name"]: e for e in json.loads(capsys.readouterr().out)["schemes"]}
    assert by_name["roe"]["diffusion"]["a1"] == "1" + "0" * 400
    assert by_name["lowmach2"]["diffusion"]["a3"] == "-1" + "0" * 400

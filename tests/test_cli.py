"""End-to-end command line behavior: exit codes, artifacts, determinism."""

import contextlib
import filecmp
import hashlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from acousticfd import cli
from acousticfd.cli import (COMMANDS, EXIT_FAIL, EXIT_OK, EXIT_UNSTABLE, EXIT_USAGE, OPTIONS,
                            READS, SUBCOMMANDS, build_parser, main, merge_config, table_parse)
from acousticfd.experiments import gresho_vortex, write_timeseries_csv
from acousticfd.fourier import det_scan
from acousticfd.grid import AcousticParams, GridSpec, write_field_csv
from acousticfd.schemes import CATALOG_NAMES, make_scheme
from acousticfd.timestep import StepControl, cfl_dt, cfl_sweep, run

from helpers import p_column_added_to_u, strict_json


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_analyze_roe_matches_claim(tmp_path):
    rc = main(["analyze", "--scheme", "roe", "--grid", "16",
               "--k-samples", "25", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    doc = _read_json(tmp_path / "analyze_roe.json")
    assert doc["verdict"] is False and doc["expected"] is False
    assert doc["eigenvalue_scaling"]["passed"] is True
    assert all(s["kernel_dim"] == 0 for s in doc["samples"] if s["kind"] == "generic")
    assert "conserved_operator" not in doc


def test_analyze_sp_scheme_includes_operator(tmp_path):
    rc = main(["analyze", "--scheme", "lowmach2", "--grid", "12",
               "--k-samples", "10", "--eps", "0.5", "--c", "2.0",
               "--out", str(tmp_path)])
    assert rc == EXIT_OK
    doc = _read_json(tmp_path / "analyze_lowmach2.json")
    assert doc["verdict"] is True
    assert doc["config"]["eps"] == 0.5
    assert doc["divergence_row"]["bu"]["entries"]
    assert doc["conserved_operator"]["exact"] is True


def test_analyze_dimsplit_verdict_follows_a1(tmp_path):
    rc = main(["analyze", "--scheme", "dimsplit", "--a1", "0.0", "--a2", "0.5",
               "--a3", "0.25", "--a4", "0.1", "--grid", "12",
               "--k-samples", "10", "--out", str(tmp_path)])
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
    assert main(["analyze", "--scheme", "multid", "--k-samples", "10", *grid]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert "conserved_operator_error" not in doc
    op = doc["conserved_operator"]
    assert max(op[k]["radius"] for k in ("wu", "wv", "wp")) == radius
    assert bool(op["wp"]["entries"]) is has_wp


@pytest.mark.parametrize("scheme", ["central", "lowmach1"])
def test_analyze_small_eps_reports_json(tmp_path, scheme):
    # the scan runs on the unitless symbol, so eps = 1e-6 judges like eps = 1
    rc = main(["analyze", "--scheme", scheme, "--eps", "0.000001", "--grid", "16",
               "--k-samples", "25", "--out", str(tmp_path)])
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
    (["analyze", "--scheme", "roe", "--k-samples", "0"], "--k-samples"),
    (["analyze", "--scheme", "roe", "--k-samples", "-5"], "--k-samples"),
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
    (["analyze", "--scheme", "multid", "--grid", "8", "--dx", "5e-309", "--k-samples", "3"],
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
    "roe-c5e153": ["--scheme", "roe", "--c", "5e153", "--grid", "8", "--k-samples", "3"],
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
    assert main(["analyze", "--scheme", "lowmach1", "--k-samples", "10", *grid]) == EXIT_OK
    doc = strict_json(capsys.readouterr().out)
    assert doc["verdict"] is True
    assert "divergence_row" not in doc
    assert doc["divergence_row_error"].startswith("divergence row fails M (-bv, bu, 0) = 0")
    assert doc["conserved_operator"]["exact"] is True


# a flag takes any float literal after a space as after "=": argparse alone reads only
# tokens like -12 and -1.5 as negative numbers
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


@pytest.mark.parametrize("value", ["-inf", "-nan"])
def test_negative_inf_and_nan_stay_flags(value, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--scheme", "dimsplit", "--a3", value, "--grid", "8"])
    assert exc.value.code == EXIT_USAGE
    assert capsys.readouterr().err.endswith("error: argument --a3: expected one argument\n")


def test_out_dir_is_made_once_and_undone_on_usage_error(tmp_path):
    out = tmp_path / "a" / "b"
    assert main(["catalog", "--out", str(out)]) == EXIT_OK
    assert os.listdir(out) == ["catalog.json"]
    # the directories made for a command that ends in a usage error go again
    assert main(["simulate", "--scheme", "roe", "--grid", "8", "--cfl", "inf",
                 "--out", str(tmp_path / "c" / "d")]) == EXIT_USAGE
    assert os.listdir(tmp_path) == ["a"]


@pytest.mark.parametrize("command", [name for name, _, _ in SUBCOMMANDS])
def test_subcommand_parser_carries_exactly_its_option_rows(command):
    reads = dict((name, reads) for name, _, reads in SUBCOMMANDS)[command]
    args = build_parser().parse_args([command])
    assert set(vars(args)) == {"command", "config"} | set(reads)
    assert all(value is None for key, value in vars(args).items() if key != "command")


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
    "analyze": ["--scheme", "dimsplit", "--a4", "0.5", "--grid", "4", "--k-samples", "3"],
    "certify": [],
    "simulate": ["--scheme", "dimsplit", "--a4", "0.5", "--grid", "4", "--t-end", "0.05"],
    "sweep": ["--scheme", "dimsplit", "--a4", "0.5", "--grid", "4"],
    "catalog": ["--grid", "4"],
}


@pytest.mark.parametrize("command, reads", [(name, reads) for name, _, reads in SUBCOMMANDS],
                         ids=[name for name, _, _ in SUBCOMMANDS])
def test_each_command_reads_every_option_it_takes(command, reads, capsys):
    argv = [command, *READ_RUNS[command]]
    cfg = RecordingConfig(merge_config(table_parse(argv)))
    assert COMMANDS[command](cfg) == EXIT_OK
    json.loads(capsys.readouterr().out)
    assert cfg.read == set(cfg) == set(reads)


# the (command, flag) pairs that every subcommand once took and its command never read
DROPPED = {
    "analyze": ("cfl", "t_end"),
    "certify": ("scheme", "a1", "a2", "a3", "a4", "eps", "c", "grid", "dx", "dy", "cfl",
                "t_end", "k_samples"),
    "simulate": ("k_samples",),
    "sweep": ("cfl", "t_end", "k_samples"),
    "catalog": ("scheme", "a1", "a2", "a3", "a4", "cfl", "t_end", "k_samples"),
}
DROPPED_PAIRS = [(command, "--" + name.replace("_", "-"))
                 for command, names in DROPPED.items() for name in names]


def test_subcommands_take_46_flags():
    assert len(DROPPED_PAIRS) == 27
    assert sum(len(reads) for _, _, reads in SUBCOMMANDS) == 46
    for command, _, reads in SUBCOMMANDS:
        assert not set(reads) & set(DROPPED[command])


@pytest.mark.parametrize("command, flag", DROPPED_PAIRS, ids=[" ".join(p) for p in DROPPED_PAIRS])
def test_dropped_flags_are_usage_errors(command, flag, capsys):
    value = "roe" if flag == "--scheme" else "1"
    assert _exit_code([command, flag, value]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.endswith("acousticfd: error: unrecognized arguments: %s %s\n" % (flag, value))


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
                assert build_parser().parse_args(argv).command == argv[0]


def _same_namespace(table, parsed):
    # repr tells float from int and str, and reads nan as nan: nan != nan
    return ({key: repr(value) for key, value in vars(table).items()}
            == {key: repr(value) for key, value in vars(parsed).items()})


# every flag of every command, the dropped ones too, and --config
FLAGS = ["--" + name.replace("_", "-") for name in ("config", *OPTIONS)]
VALUES = ["0.5", "3", "12,7", "-2", "-1e-3", "-.5e1", "-inf", "nan", "1e400", "", "-", "--",
          "central", "averaged", "x", "1.9", "-x", " -1", "1 2", "-h", "-a b", "-h x", "--eps=1 2"]
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


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(argv=command_lines())
@example(argv=["analyze", "--out=--"])
@example(argv=["certify", "--identity-only="])
@example(argv=["certify", "--identity-only", "x"])
@example(argv=["certify", "--divergence=both", "--divergence", "nope"])
@example(argv=["analyze", "--eps", "-inf"])
@example(argv=["analyze", "--eps", "--", "1"])
@example(argv=["sweep", "--grid", "-", "--out", "-"])
def test_table_parse_declines_or_returns_the_argparse_namespace(argv):
    table = table_parse(argv)
    if table is None:
        return
    with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
        try:
            parsed = build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail("the table read %r, which argparse refuses" % argv)
    assert _same_namespace(table, parsed), argv


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(argv=command_lines())
@example(argv=["analyze", "--out=--"])
@example(argv=["catalog", "--out=--", "--out", "made"])
@example(argv=["analyze", "--out=--x=--", "--eps=--"])
@example(argv=["catalog", "--out", "-a b", "--dx", "-2"])
@example(argv=["catalog", "--out", "-a b", "--grid=--"])
def test_declined_lines_run_no_command(argv):
    # a line the table declines exits in argparse, on help (0) or an error (2)
    if table_parse(argv) is not None:
        return

    def refuse(cfg):
        pytest.fail("%r ran a command on a line the table declines" % argv)

    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(cli.COMMANDS, dict.fromkeys(COMMANDS, refuse)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            pytest.raises(SystemExit) as exc:
        main(argv)
    if exc.value.code == EXIT_OK:
        assert {"-h", "--help"} & set(argv) and out.getvalue().startswith("usage:")
    else:
        assert exc.value.code == EXIT_USAGE and out.getvalue() == "", argv
        assert "error: argument" in err.getvalue() or "error: unrecognized" in err.getvalue()


# an `=` value of exactly "--" is a missing value; argparse reads it as an empty list, which
# once reached the commands as a traceback (--eps, --grid), as stdout for --out or as no
# config at all. F holds {"eps": "--"}
EMPTY_VALUES = [
    (["analyze", "--scheme", "roe", "--eps=--"], "--eps"),
    (["analyze", "--scheme", "roe", "--grid=--"], "--grid"),
    (["catalog", "--out=--"], "--out"),
    (["certify", "--identity-only", "--config=--"], "--config"),
    (["analyze", "--scheme", "roe", "--config", "F"], "--eps"),
]


@pytest.mark.parametrize("argv, flag", EMPTY_VALUES, ids=[" ".join(a) for a, _ in EMPTY_VALUES])
def test_empty_values_are_usage_errors(argv, flag, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "F").write_text(json.dumps({"eps": "--"}))
    # and with an --out ahead of them, which is never made
    for line in (argv, [argv[0], "--out", "made", *argv[1:]]):
        assert _exit_code(line) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert err.endswith("error: argument %s: expected one argument\n" % flag)
    assert os.listdir(tmp_path) == ["F"]


# the run half's pools: no --config and no --out; the float extremes, grids up to 8 and a
# few malformed values; no -h, so that every line runs or exits 2
RUN_FLAGS = [flag for flag in FLAGS if flag not in ("--config", "--out")]
RUN_VALUES = ["0", "1", "-1", "0.5", "2", "3", "8", "5,3", "3,8", "5e-324", "1e-308", "1e-154",
              "1e154", "5e153", "1.7e308", "-1e-3", "nan", "inf", "-inf", "1e400", "central",
              "averaged", "x", "", "-", "--"]
# the three warnings gresho_vortex gives on purpose, which the README documents
VORTEX_WARNINGS = ("vortex centre", "vortex radius .* exceeds distance",
                   "vortex radius .* holds no cell centre")


@st.composite
def runnable_lines(draw):
    """command_lines over the run pools, after a scheme, a grid up to 8, --k-samples 8 and
    --t-end 0.005 for the commands that read them; the drawn tokens may override these."""
    argv = draw(command_lines(flags=RUN_FLAGS, values=RUN_VALUES, others=[]))
    given_first = {"scheme": draw(st.sampled_from(CATALOG_NAMES + ("dimsplit",))),
                   "grid": draw(st.sampled_from(["3", "8", "5,3"])),
                   "k_samples": "8", "t_end": "0.005"}
    return argv[:1] + [token for name, value in given_first.items() if name in READS[argv[0]]
                       for token in ("--" + name.replace("_", "-"), value)] + argv[1:]


def _cheap(argv):
    """--t-end at most 0.01, a simulate run of at most 2,000 steps by cfl_dt, and --radius at
    most 2; the pools bound grids and --k-samples to 8. A line the table declines is cheap."""
    args = table_parse(argv)
    if args is None:
        return True
    cfg = merge_config(args)
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
        code = _exit_code(argv)
    assert code in (EXIT_OK, EXIT_FAIL, EXIT_USAGE, EXIT_UNSTABLE), argv
    assert "Traceback" not in err.getvalue()
    if code == EXIT_USAGE:
        assert out.getvalue() == "", argv
    else:
        strict_json(out.getvalue())


@pytest.mark.parametrize("argv", [
    ["analyze", "--out", "-"], ["sweep", "--grid", "-"], ["analyze", "--a3", "-1e-3"],
    ["analyze", "--eps=nan", "--eps", "0.5"], ["certify", "--identity-only", "--identity-only"],
    ["certify", "--divergence=averaged", "--radius", "3"], ["catalog", "--out="],
    ["simulate", "--scheme", "roe", "--out", "-run 1"], ["analyze", "--eps", "-inf "],
    ["catalog", "--out", "--x=a b"], ["catalog", "--out", "--scheme=a b"],
], ids=" ".join)
def test_table_parse_reads_these_as_argparse_does(argv):
    assert _same_namespace(table_parse(argv), build_parser().parse_args(argv))


# argparse reads a value that starts with "-" and holds a space as a value, unless it starts
# with "-h" or names one of the command's flags before an "="; these once ended in a traceback
def test_spaced_values_led_by_a_dash_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--scheme", "roe", "--out", "-run 1"]) == EXIT_OK
    assert capsys.readouterr().out == os.path.join("-run 1", "simulate_roe.json") + "\n"
    assert main(["analyze", "--scheme", "roe", "--eps", "-inf "]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: eps must be finite, got -inf\n"
    for value in ("-h x", "--eps=1 2"):
        assert _exit_code(["analyze", "--scheme", "roe", "--out", value]) == EXIT_USAGE
        assert capsys.readouterr().err.endswith("error: argument --out: expected one argument\n")
    assert os.listdir(tmp_path) == ["-run 1"]


def test_valid_command_lines_build_no_argparse(tmp_path, monkeypatch, capsys):
    workloads = _load_clibench("workloads")
    lines = [[str(tmp_path / ("out%d" % i)) if token == workloads.OUT else token
              for token in argv]
             for i, argv in enumerate(argv for workload in workloads.WORKLOADS
                                      for seed in range(10)
                                      for argv in workloads.commands(workload, seed))]
    expected = [merge_config(build_parser().parse_args(argv)) for argv in lines]

    def refuse(*args):
        raise AssertionError("a valid command line built argparse")

    monkeypatch.setattr(cli, "build_parser", refuse)
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


# sha256 of each --help screen at 80 columns: the top-level screen recorded while
# build_parser still gave every subparser its flags whatever the command, and each
# subcommand's since it takes only the options its command reads
HELP_SHA256 = {
    (): "4c502cdd0fbfe26bfda12d0ad62ad978b7471501b14d0be21003e5de4111364e",
    ("analyze",): "69e74800ee93dadfb7b9c37a188f79acc1978540eac77b19503eb8af0c2af711",
    ("certify",): "f2245e3be85bbc524f67683e5681b985374d9482f4ddf275d429428c1db99577",
    ("simulate",): "e43da48efc2dc1c213344d0de17e79712c1a4e213695b52f5489166236b17b6f",
    ("sweep",): "b56bcef6c5f4ba5615f4b09740b8bc74ed3e7dc2e7f704a15d1ae56ae7d342ab",
    ("catalog",): "065d5db20ecf849cc06f357b291101afecf728113e0d42ac59638066ff396918",
}
USAGE = "usage: acousticfd [-h] {analyze,certify,simulate,sweep,catalog} ...\n"
PARSE_ERRORS = {
    (): "the following arguments are required: command",
    ("bogus",): "argument command: invalid choice: 'bogus' (choose from 'analyze', "
                "'certify', 'simulate', 'sweep', 'catalog')",
    ("certify", "--bogus"): "unrecognized arguments: --bogus",
    # no flag abbreviates another: these once read as --config 1 and --k-samples 3
    ("certify", "--c", "1"): "unrecognized arguments: --c 1",
    ("analyze", "--k", "3"): "unrecognized arguments: --k 3",
}


@pytest.mark.parametrize("argv", sorted(HELP_SHA256), ids=lambda a: " ".join(a) or "top")
def test_help_screens_unchanged(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == EXIT_OK
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_SHA256[argv]


@pytest.mark.parametrize("argv", sorted(PARSE_ERRORS), ids=lambda a: " ".join(a) or "none")
def test_parse_errors_unchanged(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err == USAGE + "acousticfd: error: " + PARSE_ERRORS[argv] + "\n"


def test_run_longer_than_max_steps_is_usage_error(tmp_path, capsys):
    out = tmp_path / "D"
    rc = main(["simulate", "--scheme", "roe", "--grid", "16", "--t-end", "1e9",
               "--out", str(out)])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: run wants 35555555556 steps, max_steps is 10000000")
    assert "Traceback" not in err and len(err.splitlines()) == 1
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
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--scheme", "roe", "--seed", "1"])
    assert exc.value.code == EXIT_USAGE


def test_c1_c2_flags_are_gone(tmp_path):
    for flag in ("--c1", "--c2"):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--scheme", "multid", flag, "5"])
        assert exc.value.code == EXIT_USAGE
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
    spec = make_scheme("multid", AcousticParams(c=1.0, eps=0.01), GridSpec.unit_square(24))
    scan = det_scan(spec)
    assert tracing.EXTRAS["fourier.det_scan"]((), {}, scan) == [248, 200, 0]


def test_traced_counts_resolve(tmp_path):
    # each other count the tracer records, read off the real arguments and result of its call
    tracing = _load_clibench("tracing")
    extras = tracing.EXTRAS
    grid = GridSpec.unit_square(8)
    spec = make_scheme("roe", AcousticParams(c=1.0, eps=0.5), grid)
    state = gresho_vortex(grid)
    args = (spec.stencil, state.q)
    assert extras["stencils.apply_sum"](args, {}, spec.stencil.apply_sum(state.q)) == [64, 5]
    args = (spec, state, StepControl(cfl=0.4, t_end=0.05))
    assert extras["timestep.run"](args, {}, run(*args)) == [2, 64]
    args = (spec, state, [0.1, 0.4, 2.0])
    assert extras["timestep.cfl_sweep"](args, {}, cfl_sweep(*args, horizon_steps=20)) == [3, 1, 64]
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
    cfgfile.write_text(json.dumps({"scheme": "central", "eps": 0.25,
                                   "grid": "12", "k_samples": 8}))
    out = tmp_path / "out"
    rc = main(["analyze", "--config", str(cfgfile), "--eps", "0.5",
               "--out", str(out)])
    assert rc == EXIT_OK
    doc = _read_json(out / "analyze_central.json")
    # flag beats config; config beats default
    assert doc["config"]["eps"] == 0.5
    assert doc["config"]["scheme"] == "central"
    assert doc["config"]["k_samples"] == 8


def _exit_code(argv):
    """main's return value, or the code of the SystemExit argparse raises on a bad value."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# (command line, config, exit code, what stderr names): config values pass the
# subcommand's parser ahead of the flags, so they are checked as flags are
CONFIG_PROBES = [
    (["certify"], {"divergence": "nope"}, EXIT_USAGE,
     "argument --divergence: invalid choice: 'nope'"),
    (["certify"], {"identity_only": "no"}, EXIT_USAGE,
     'config identity_only = "no": --identity-only takes true or false'),
    (["certify"], {"radius": 1.9}, EXIT_USAGE, "argument --radius: invalid int value: '1.9'"),
    (["certify"], {"radius": "x"}, EXIT_USAGE, "argument --radius: invalid int value: 'x'"),
    (["analyze", "--scheme", "roe"], {"k_samples": "x"}, EXIT_USAGE,
     "argument --k-samples: invalid int value: 'x'"),
    (["simulate", "--scheme", "roe", "--grid", "8"], {"cfl": "x"}, EXIT_USAGE,
     "argument --cfl: invalid float value: 'x'"),
    (["analyze", "--scheme", "roe"], {"dx": "x"}, EXIT_USAGE,
     "argument --dx: invalid float value: 'x'"),
    (["analyze", "--scheme", "roe"], {"eps": True}, EXIT_USAGE,
     "config eps = true: --eps takes a string or a number"),
    (["analyze", "--scheme", "roe"], {"grid": [12, 7]}, EXIT_USAGE,
     "config grid = [12, 7]: --grid takes a string or a number"),
    (["analyze"], {"scheme": "dimsplit", "a1": "x"}, EXIT_USAGE,
     "argument --a1: invalid float value: 'x'"),
    (["analyze", "--grid", "8"], {"scheme": "roe", "a1": 5}, EXIT_USAGE,
     "--a1 set dimsplit coefficients; --scheme roe takes none"),
    # null means not given, and a flag still beats the config
    (["simulate", "--scheme", "roe", "--grid", "8"], {"t_end": None}, EXIT_OK, None),
    (["certify", "--radius", "1"], {"radius": 3}, EXIT_OK, None),
    (["certify"], {"identity_only": True}, EXIT_OK, None),
    (["certify"], {"identity_only": False, "radius": 1}, EXIT_OK, None),
    # keys of other subcommands stay ignored, checked or not
    (["analyze", "--scheme", "roe", "--grid", "8", "--k-samples", "3"],
     {"radius": "x", "identity_only": "no", "cfl": "x", "t_end": None}, EXIT_OK, None),
    (["catalog", "--grid", "8"], {"scheme": "nosuch", "a1": 5, "k_samples": 0}, EXIT_OK, None),
]


@pytest.mark.parametrize("argv, config, code, message", CONFIG_PROBES,
                         ids=["%s %s" % (argv[0], json.dumps(config))
                              for argv, config, _, _ in CONFIG_PROBES])
def test_config_values_are_checked_like_flags(argv, config, code, message, tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(config))
    assert _exit_code([*argv, "--config", str(cfgfile)]) == code
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    if message is None:
        assert err == ""
        doc = json.loads(out)
        if argv[0] == "simulate":
            assert doc["runs"][0]["t_end"] == 0.3
        if argv[0] == "certify":
            assert ("central_nullspace_dim" in doc) != (config.get("identity_only") is True)
    else:
        assert message in err


def test_config_values_echo_as_the_flags_give_them(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"scheme": "roe", "grid": 8, "eps": 1, "k_samples": 3}))
    assert main(["analyze", "--config", str(cfgfile)]) == EXIT_OK
    from_config = json.loads(capsys.readouterr().out)
    assert from_config["config"] == {"scheme": "roe", "grid": "8", "eps": 1.0, "c": 1.0,
                                     "k_samples": 3}
    assert main(["analyze", "--scheme", "roe", "--grid", "8", "--eps", "1",
                 "--k-samples", "3"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == from_config


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


def test_certify_identity_only(capsys):
    rc = main(["certify", "--identity-only"])
    assert rc == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["certified"] is True
    assert "central_nullspace_dim" not in doc


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
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--cfl-sweep", "--scheme", "roe", "--grid", "16"])
    assert exc.value.code == EXIT_USAGE
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"cfl_sweep": True}))
    assert main(["simulate", "--scheme", "roe", "--config", str(cfgfile)]) == EXIT_USAGE


def test_sweep_command_writes_its_document(tmp_path):
    rc = main(["sweep", "--scheme", "roe", "--grid", "16", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    doc = _read_json(tmp_path / "sweep_roe.json")
    assert doc["scheme"] == "roe"
    assert len(doc["results"]) == 32
    assert doc["max_stable_cfl"] is not None
    assert 0.3 <= doc["max_stable_cfl"] <= 0.7
    stable_cfls = {r["cfl"] for r in doc["results"] if r["stable"]}
    assert doc["max_stable_cfl"] == max(stable_cfls)


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
# samples[].non_diagonalizable gone (0 and false in each before)
ANALYZE_DIGESTS = {
    ("--scheme", "central", "--eps", "1", "--grid", "24"):
        "0515f0bb78030e91339471f3bc703d32ca27dd27d5e74bc47a18f6da14863a37",
    ("--scheme", "central", "--eps", "1e-2", "--grid", "24"):
        "b9e8b32f7d384cdc99bebc6f97c65105bc28a2593d45b4e6ea85992f0edf58e3",
    ("--scheme", "roe", "--eps", "1", "--grid", "24"):
        "97a67140f90e17dd84e53d8a6111370503d1a4b2e1b0cff3683be440c5576773",
    ("--scheme", "roe", "--eps", "1e-2", "--grid", "24"):
        "082baf2b2ef3aa96c9de115f95dff8b394b1bd6d686fcad307b5adb62a77d332",
    ("--scheme", "lowmach1", "--eps", "1", "--grid", "24"):
        "2e58ec82652932019245147a163b25fecdf68e9ca454e07212230802f8ea291b",
    ("--scheme", "lowmach1", "--eps", "1e-2", "--grid", "24"):
        "c4b8a5a753f9acc94de9f6b469eff9cd3e5049bf288f5536f3da0ebb943e4479",
    ("--scheme", "lowmach2", "--eps", "1", "--grid", "24"):
        "d76ae77ec6e16e8022d02db6d817caf8096cdee2fb9498d4d4df8bbc89282eff",
    ("--scheme", "lowmach2", "--eps", "1e-2", "--grid", "24"):
        "889af32c689d57903404bf8769f025d69ada763554faed26f00ab1188714b6a8",
    ("--scheme", "lowmach3", "--eps", "1", "--grid", "24"):
        "72ef9b6dae61dc38bdf94b42742be567759c285b918a68256cf1d1edba60db7f",
    ("--scheme", "lowmach3", "--eps", "1e-2", "--grid", "24"):
        "1981a1b7ab50d5e2622f552c95baecf1d5d6be042bb80995ac729faa5fabcd44",
    ("--scheme", "multid", "--eps", "1", "--grid", "24"):
        "ae19d5711f6382820d73e647939036009ea3e3ac83d0e4acaca68c7d28e792da",
    ("--scheme", "multid", "--eps", "1e-2", "--grid", "24"):
        "0d1f3777152b3cea883e994413cf9bd2577aa13b7bf73c7b221386a14d4eadd8",
    DIMSPLIT_ARGV: "a24443611e379d94484b21acf6fdfd31e20cc1848e9723436195247ce99bc935",
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
    (): (0, "18dd2a49a3ed40a2cc4b0489efcd9b582900ddce8f8611fc82c8d96f3e28a377"),
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
    (["analyze", "--scheme", "roe", "--grid", "8", "--k-samples", "3"], 1),
    (["analyze", "--scheme", "multid", "--grid", "8", "--k-samples", "3"], 1),
    (["analyze", *DIMSPLIT_ARGV, "--k-samples", "3"], 1),
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
    (["analyze", "--scheme", "roe", "--grid", "8", "--k-samples", "3"], 1),
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
    argv = ["analyze", "--scheme", "roe", "--c", c, "--grid", "8", "--k-samples", "3"]
    assert main(argv) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] is False and doc["eigenvalue_scaling"]["passed"] is True


def test_catalog_beyond_the_float_range(capsys):
    assert main(["catalog", "--c", "1e200", "--eps", "1e-200"]) == EXIT_OK
    by_name = {e["name"]: e for e in json.loads(capsys.readouterr().out)["schemes"]}
    assert by_name["roe"]["diffusion"]["a1"] == "1" + "0" * 400
    assert by_name["lowmach2"]["diffusion"]["a3"] == "-1" + "0" * 400

"""End-to-end command line behavior: exit codes, artifacts, determinism."""

import filecmp
import json
import os

import pytest

from acousticfd.cli import EXIT_FAIL, EXIT_OK, EXIT_UNSTABLE, EXIT_USAGE, main


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


@pytest.mark.parametrize("scheme", ["central", "lowmach1"])
def test_analyze_small_eps_reports_json(tmp_path, scheme):
    # kernel dimension and kernel vectors come from one SVD per sample, so a
    # sample at the tolerance threshold cannot end the run in a traceback
    rc = main(["analyze", "--scheme", scheme, "--eps", "0.000001", "--grid", "16",
               "--k-samples", "25", "--out", str(tmp_path)])
    assert rc in (EXIT_OK, EXIT_FAIL)
    doc = _read_json(tmp_path / ("analyze_%s.json" % scheme))
    assert isinstance(doc["verdict"], bool)


def test_usage_errors():
    assert main(["analyze", "--scheme", "nosuch", "--grid", "8"]) == EXIT_USAGE
    assert main(["analyze", "--grid", "8"]) == EXIT_USAGE
    assert main(["analyze", "--scheme", "roe", "--grid", "eight"]) == EXIT_USAGE


OUT_OF_RANGE = [
    (["analyze", "--scheme", "roe", "--grid", "2"], "at least 3x3"),
    (["analyze", "--scheme", "roe", "--eps", "0"], "eps > 0"),
    (["analyze", "--scheme", "roe", "--c", "-1"], "c > 0"),
    (["analyze", "--scheme", "roe", "--dx", "0"], "cell widths must be positive"),
    (["analyze", "--scheme", "roe", "--k-samples", "0"], "--k-samples"),
    (["analyze", "--scheme", "roe", "--k-samples", "-5"], "--k-samples"),
    (["catalog", "--grid", "1"], "at least 3x3"),
    (["simulate", "--scheme", "roe", "--grid", "8", "--t-end", "-1"], "t_end"),
    (["simulate", "--scheme", "roe", "--grid", "8", "--cfl", "0"], "cfl must be positive"),
    (["certify", "--radius", "0"], "--radius"),
    (["simulate"], "--scheme is required"),
]


@pytest.mark.parametrize("argv, message", OUT_OF_RANGE,
                         ids=[" ".join(argv) for argv, _ in OUT_OF_RANGE])
def test_out_of_range_values_are_usage_errors(argv, message, capsys):
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


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
    import importlib.util

    path = os.path.join(os.path.dirname(__file__), os.pardir, "clibench", "tracing.py")
    spec = importlib.util.spec_from_file_location("clibench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, names in tracing.WRAPPED.items():
        mod = importlib.import_module("acousticfd." + module)
        for qual in names:
            if "." in qual:
                cls_name, attr = qual.split(".")
                assert callable(vars(getattr(mod, cls_name)).get(attr)), qual
            else:
                assert callable(getattr(mod, qual, None)), (module, qual)


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_sweep_via_simulate_flag(tmp_path):
    rc = main(["simulate", "--cfl-sweep", "--scheme", "roe", "--grid", "16",
               "--out", str(tmp_path)])
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

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from concurrent.futures import ThreadPoolExecutor

import pytest

import hardyrellich
from hardyrellich import cli, hardy, pencils, quotients, suites
from hardyrellich import manifolds as mf
from hardyrellich import supersolutions as ss
from hardyrellich.config import DEFAULTS, ToolkitConfig, default_config, load_config
from hardyrellich.errors import ArgumentError, EvaluationError
from hardyrellich.radial import make_grid
from hardyrellich.reports import ExperimentManifest, emit_curve, format_value, row
from hardyrellich.suites import run_suite

# the keys of every manifest.json results entry, sorted
RESULT_KEYS = ("name", "quad_error_rel", "status", "tolerance", "value")


def test_verify_identities_exit_zero(tmp_path):
    code = cli.main(["verify", "--suite", "identities", "--out", str(tmp_path)])
    assert code == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["passed"] is True
    names = {r["name"] for r in manifest["results"]}
    # the manifest lists the identity checks by family
    assert any(n.startswith("warp_power_identity/") for n in names)
    assert any(n.startswith("product_profile_identity/") for n in names)
    assert "euclidean_rellich_split_exact" in names
    assert "asymptotic_consistency_exact" in names
    assert (tmp_path / "results.csv").read_text().startswith(
        "check,status,value,tolerance"
    )


def test_verify_determinism(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert cli.main(["verify", "--suite", "asymptotics", "--out", str(a),
                     "--seed", "7"]) == 0
    assert cli.main(["verify", "--suite", "asymptotics", "--out", str(b),
                     "--seed", "7"]) == 0
    assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()


def test_corrupted_config_usage_error(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("not a section\nx = 1\n")
    code = cli.main(["verify", "--suite", "identities", "--config", str(bad),
                     "--out", str(tmp_path)])
    assert code == cli.USAGE_EXIT
    with pytest.raises(ArgumentError, match="line"):
        load_config(str(bad))


def test_config_unknown_key(tmp_path):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[grids]\nbogus = 3\n")
    with pytest.raises(ArgumentError, match="unknown keys"):
        load_config(str(cfg))


@pytest.mark.parametrize("section, key, value, verb", [
    ("grids", "M", "abc", ["hardy", "sharp", "--N", "3"]),
    ("tolerances", "margin_rtol", "x", ["hardy", "check"]),
    ("tolerances", "margin_rtol", "inf", ["hardy", "check"]),
])
def test_config_value_that_is_not_a_number_is_a_usage_error(tmp_path, capsys,
                                                            section, key, value, verb):
    cfg = tmp_path / "c.ini"
    cfg.write_text(f"[{section}]\n{key} = {value}\n")
    code = cli.main([*verb, "--config", str(cfg), "--out", str(tmp_path)])
    assert code == cli.USAGE_EXIT
    assert f"[{section}] {key} = {value} is not a finite number" in capsys.readouterr().err
    assert not (tmp_path / "results.csv").exists()


def test_config_integer_key_rejects_a_fraction(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[grids]\nM = 1000.7\n")
    code = cli.main(["hardy", "sharp", "--N", "3", "--config", str(cfg),
                     "--out", str(tmp_path)])
    assert code == cli.USAGE_EXIT
    assert "[grids] M = 1000.7 is not an integer" in capsys.readouterr().err
    assert not (tmp_path / "constants.csv").exists()
    cfg.write_text("[grids]\nM = 1e3\n")  # an integral value in any spelling
    assert load_config(str(cfg)).get_int("grids", "M") == 1000


def test_config_overrides_and_snapshot(tmp_path):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[grids]\nM = 2048\n[hardy]\nbump_count = 2\n")
    loaded = load_config(str(cfg))
    assert loaded.get_int("grids", "M") == 2048
    assert loaded.get_int("hardy", "bump_count") == 2
    assert loaded.get_float("grids", "r_min") == 1e-6  # default survives
    snap = loaded.snapshot()
    assert "[grids]" in snap and "M = 2048" in snap


def test_tol_scale_forces_failure(tmp_path):
    # identity residuals ~1e-16 cannot meet a tolerance scaled to ~1e-28:
    # the exit-code contract must report failure, manifest still written
    code = cli.main(["verify", "--suite", "identities", "--out", str(tmp_path),
                     "--tol-scale", "1e-20"])
    assert code == 1
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["passed"] is False
    assert (tmp_path / "results.csv").exists()


@pytest.mark.parametrize("argv", [
    ["hardy", "check", "--seed", "-100"],
    ["verify", "--suite", "euclid", "--seed", "-200"],
    ["hardy", "check", "--seed", "-1"],
    ["rellich", "coeffs", "--nmax", "-1"],
    ["coeffs", "--nmax", "-1"],
    ["hardy", "iterlog", "--k", "-1"],
    ["verify", "--suite", "identities", "--tol-scale", "inf"],
    ["verify", "--suite", "identities", "--tol-scale", "nan"],
    ["verify", "--suite", "identities", "--tol-scale", "-1"],
    ["hardy", "sharp", "--rmax", "0"],
    ["hardy", "sharp", "--rmax", "-5"],
    ["sharp", "--rmax", "inf"],
    ["sharp", "--which", "rellich-r2", "--rmax", "nan"],
    ["rellich", "sharp-r2", "--rmax", "0"],
], ids=" ".join)
def test_out_of_range_flag_is_a_usage_error(argv, tmp_path, capsys):
    # a negative seed, table size or series length, a tolerance scale that
    # is not a finite number >= 0 and a truncation radius that is not a
    # finite number > 0 are refused before any check runs
    code = cli.main([*argv, "--out", str(tmp_path)])
    assert code == cli.USAGE_EXIT
    assert f"argument {argv[-2]}: must be " in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("argv, minimum", [
    (["hardy", "check", "--N", "2"], 3),
    (["hardy", "sharp", "--N", "1"], 3),
    (["sharp", "--N", "2"], 3),
    (["hardy", "sweep-lambda", "--N", "2"], 3),
    (["hardy", "iterlog", "--N", "2"], 3),
    (["euclid", "ball-identities", "--N", "2"], 3),
    (["euclid", "halfspace-hardy", "--N", "2"], 3),
    (["euclid", "laplacian-identity", "--N", "-3"], 3),
    (["euclid", "laplacian-identity", "--N", "0"], 3),
    (["euclid", "laplacian-identity", "--N", "1"], 3),
    (["euclid", "laplacian-identity", "--N", "2"], 3),
    (["curve", "--name", "h_lambda", "--N", "2"], 3),
    (["curve", "--name", "convergence", "--N", "2"], 3),
    (["rellich", "check", "--N", "4"], 5),
    (["rellich", "coeffs", "--N", "4"], 5),
    (["coeffs", "--N", "4"], 5),
    (["rellich", "sharp-r2", "--N", "4"], 5),
    (["sharp", "--which", "rellich-r2", "--N", "4"], 5),
    (["rellich", "asymptotics", "--N", "3"], 5),
    (["asymptotics", "--N", "4"], 5),
    (["euclid", "halfspace-rellich", "--N", "4"], 5),
    (["curve", "--name", "s_of_r", "--N", "4"], 5),
], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_dimension_below_the_verbs_minimum_is_a_usage_error(argv, minimum, tmp_path, capsys):
    # exit 2 naming --N and the verb's minimum, before any check runs; the
    # minimum itself gets past the check
    code = cli.main([*argv, "--out", str(tmp_path)])
    assert code == cli.USAGE_EXIT
    assert f"argument --N: must be an integer >= {minimum} for " in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()
    args = cli.build_parser().parse_args([*argv[:-1], str(minimum)])
    cli._resolve(args)
    assert args.N == minimum


def test_rellich_sharp_r2_takes_rmax_as_sharp_does(tmp_path):
    # the two spellings of one entry take the same flags and write the
    # same estimate
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["rellich", "sharp-r2", "--rmax", "1e4", "--out", str(a)]) == 0
    assert cli.main(["sharp", "--which", "rellich-r2", "--rmax", "1e4", "--out", str(b)]) == 0
    assert (a / "constants.csv").read_bytes() == (b / "constants.csv").read_bytes()
    assert (a / "constants.csv").read_text().splitlines()[1].split(",")[3] == "10000"


@pytest.mark.parametrize("flags", [["--N", "7", "--rmax", "5"], ["--rmax", "5"]], ids=" ".join)
def test_sharp_anchors_refuses_flags_it_ignores(flags, tmp_path, capsys):
    code = cli.main(["sharp", "--which", "anchors", *flags, "--out", str(tmp_path)])
    assert code == cli.USAGE_EXIT
    assert (f"argument {flags[0]}: sharp --which anchors takes no {flags[0]}"
            in capsys.readouterr().err)
    assert not (tmp_path / "manifest.json").exists()


def test_flag_ranges_include_zero():
    args = cli.build_parser().parse_args(
        ["hardy", "iterlog", "--seed", "0", "--k", "0", "--tol-scale", "0"])
    assert (args.seed, args.k, args.tol_scale) == (0, 0, 0.0)
    assert cli.build_parser().parse_args(["coeffs", "--nmax", "0"]).nmax == 0


@pytest.mark.parametrize("key", ["margin_rtol", "identity_rtol"])
def test_config_negative_tolerance_is_a_usage_error(key, tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text(f"[tolerances]\n{key} = -1\n")
    code = cli.main(["verify", "--suite", "identities", "--config", str(cfg),
                     "--out", str(tmp_path)])
    assert code == cli.USAGE_EXIT
    assert f"[tolerances] {key} = -1 is negative" in capsys.readouterr().err
    assert not (tmp_path / "results.csv").exists()
    cfg.write_text(f"[tolerances]\n{key} = 0\n")
    assert load_config(str(cfg)).tolerance(key) == 0.0



@pytest.mark.parametrize("key, value, message", [
    ("bump_count", "0", "seeded bumps needs count >= 1, got 0"),
    ("bump_count", "-1", "seeded bumps needs count >= 1, got -1"),
    ("sweep_points", "1", "[hardy] sweep_points = 1 must be >= 2"),
    ("sweep_points", "0", "[hardy] sweep_points = 0 must be >= 2"),
    ("sweep_points", "-3", "[hardy] sweep_points = -3 must be >= 2"),
    ("iterlog_k", "-1", "series lengths k must be >= 0, and at least one, got []"),
])
def test_config_count_below_its_minimum_is_a_usage_error(key, value, message, tmp_path,
                                                         capsys):
    # no bump to take a margin over, no h(lambda) curve between the ends,
    # or no series length
    cfg = tmp_path / "c.ini"
    cfg.write_text(f"[hardy]\n{key} = {value}\n")
    code = cli.main(["verify", "--suite", "hardy", "--config", str(cfg),
                     "--out", str(tmp_path)])
    assert code == cli.USAGE_EXIT
    assert message in capsys.readouterr().err

def test_coeffs_emission(tmp_path):
    code = cli.main(["coeffs", "--N", "5", "--nmax", "10", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "mode_coeffs_N5.csv").read_text().strip().splitlines()
    assert lines[0] == "n,lambda_n,d_n,A_n,B_n"
    assert lines[1].startswith("0,0,1,1,12")
    assert len(lines) == 12


def test_curve_s_of_r(tmp_path):
    code = cli.main(["curve", "--name", "s_of_r", "--N", "5", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "s_of_r_N5.csv").read_text().strip().splitlines()
    assert lines[0] == "r,s,two_term_prediction,rel_err"
    assert len(lines) == 29


def test_curve_convergence(tmp_path):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[grids]\nM = 2048\n")
    code = cli.main(["curve", "--name", "convergence", "--N", "3",
                     "--out", str(tmp_path), "--config", str(cfg)])
    assert code == 0
    lines = (tmp_path / "convergence_hardy_sharp_N3.csv").read_text().strip().splitlines()
    assert lines[0] == "M,estimate"
    assert len(lines) >= 4  # header + three refinement rows
    ms = [int(l.split(",")[0]) for l in lines[1:]]
    vals = [float(l.split(",")[1]) for l in lines[1:]]
    assert ms == sorted(ms)
    # refinement error shrinks between the recorded levels
    assert abs(vals[2] - vals[1]) <= abs(vals[1] - vals[0])


def test_sharp_anchor_command(tmp_path):
    code = cli.main(["sharp", "--which", "anchors", "--out", str(tmp_path)])
    assert code == 0
    consts = (tmp_path / "constants.csv").read_text()
    assert consts.startswith("constant_name,N,r_min,r_max,M,value")
    assert "one_d_hardy" in consts and "euclid_rellich_radial" in consts


@pytest.mark.parametrize("first, second", [("anchors", "identities"),
                                           ("identities", "anchors"),
                                           ("coeffs", "identities"),
                                           ("sweep", "coeffs")])
def test_reused_out_keeps_only_the_last_runs_csvs(first, second, tmp_path):
    # the anchors write constants.csv and no residuals.csv, the identities
    # the other way round, and coeffs and sweep-lambda each write their
    # own data CSV: a run into a used directory deletes every CSV it did
    # not produce, so no file from the earlier run sits beside its manifest
    argv = {"anchors": ["sharp", "--which", "anchors"],
            "identities": ["verify", "--suite", "identities"],
            "coeffs": ["rellich", "coeffs", "--N", "5", "--nmax", "10"],
            "sweep": ["hardy", "sweep-lambda", "--N", "5"]}
    for name in (first, second):
        assert cli.main([*argv[name], "--out", str(tmp_path)]) == 0
    fresh = tmp_path / "fresh"
    assert cli.main([*argv[second], "--out", str(fresh)]) == 0
    written = sorted(p.name for p in tmp_path.iterdir() if p.is_file())
    assert written == sorted(p.name for p in fresh.iterdir())
    assert ("constants.csv" in written) == (second == "anchors")
    assert ("residuals.csv" in written) == (second == "identities")
    for name in written:
        if name != "manifest.json":  # it records the run's wall time
            assert (tmp_path / name).read_bytes() == (fresh / name).read_bytes()


def test_euclid_laplacian_identity_command(tmp_path):
    code = cli.main(["euclid", "laplacian-identity", "--out", str(tmp_path)])
    assert code == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    rows = {r["name"]: r for r in manifest["results"]}
    assert rows["halfspace_laplacian_identity_corrected"]["status"] == "pass"
    lit = rows["halfspace_laplacian_identity_literal_fails"]
    assert lit["status"] == "pass" and lit["value"] > 1e-6


def test_unknown_suite_rejected():
    with pytest.raises(ArgumentError):
        run_suite("everything", ToolkitConfig())


def test_manifest_written_on_failure(tmp_path):
    m = ExperimentManifest(command="x", config_text="", seed=0,
                           results=[row("broken", 1.0, 0.0, False)])
    m.write(tmp_path)
    assert m.exit_code == 1
    assert (tmp_path / "manifest.json").exists()
    assert "fail" in (tmp_path / "results.csv").read_text()


def test_emit_curve_unknown(tmp_path):
    with pytest.raises(ArgumentError):
        emit_curve("spectrum", tmp_path)


def test_default_config_values(tmp_path):
    for i, text in enumerate(["[manifold]\nfamily = hyperbolic\n",
                              "[tolerances]\neigen_tol = 1e-8\n"]):
        path = tmp_path / f"c{i}.ini"
        path.write_text(text)
        with pytest.raises(ArgumentError, match="unknown"):
            load_config(str(path))
        assert cli.main(["verify", "--suite", "identities", "--config", str(path),
                         "--out", str(tmp_path)]) == cli.USAGE_EXIT
    cfg = default_config()
    assert cfg.tolerance("margin_rtol") == 1e-8
    cfg.tol_scale = 2.0
    assert cfg.tolerance("margin_rtol") == 2e-8


def test_verify_identities_computes_each_residual_once(tmp_path, monkeypatch):
    # residuals.csv is written from the arrays the identity checks judge;
    # each manifold's warp powers are one stacked evaluation
    calls = {}
    for name in ("warp_power_identity_residual", "product_profile_identity_residual",
                 "supersolution_equality_residual"):
        def counted(*args, _name=name, _fn=getattr(ss, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)

        monkeypatch.setattr(ss, name, counted)
    assert cli.main(["verify", "--suite", "identities", "--out", str(tmp_path)]) == 0
    assert calls == {"warp_power_identity_residual": 3,
                     "product_profile_identity_residual": 15,
                     "supersolution_equality_residual": 3}


def test_residual_report_emitted(tmp_path):
    # residuals.csv equals the rows written out here from the three residual
    # functions, in run order: for each family the warp powers, the two
    # product profiles, then the supersolution equality
    assert cli.main(["verify", "--suite", "identities", "--out", str(tmp_path)]) == 0
    r = ss.IDENTITY_SAMPLE

    def rows(identity, man, tag, res):
        return [f"{identity},{man.family},5,{tag},{format_value(x)},{format_value(e)}"
                for x, e in zip(r, res)]

    expected = ["identity,family,N,alpha_or_f,r,residual_rel"]
    for man in (mf.hyperbolic(5), mf.euclidean(5), mf.superexp(5, 2.0)):
        for alpha in (-2.0, -0.5, 1.0, 2.0):
            expected += rows("warp_power", man, f"alpha={alpha:g}",
                             ss.warp_power_identity_residual(man, alpha, r))
        for f in (ss.power_profile(-1.5), ss.power_log_profile(5)):
            expected += rows("product_profile", man, f"f={f.label}",
                             ss.product_profile_identity_residual(man, f, r))
        expected += rows("supersolution_equality", man, "f=r^-1.5",
                         ss.supersolution_equality_residual(man, r))
    lines = (tmp_path / "residuals.csv").read_text().splitlines()
    assert lines == expected and len(lines) == 1 + 21 * 64
    assert all(float(l.rsplit(",", 1)[1]) <= 1e-8 for l in lines[1:])
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert {tuple(sorted(entry)) for entry in manifest["results"]} == {RESULT_KEYS}


def test_grids_r_min_reaches_the_sharp_hardy_estimate(tmp_path):
    config = tmp_path / "grids.ini"
    config.write_text("[grids]\nr_min = 1e-4\n")
    common = ["--N", "3", "--config", str(config)]
    # the narrower truncation lifts the estimate to its exact value
    # 1/4 + pi^2/log^2(1e6) = 0.30170897, which the row's window follows
    assert cli.main(["hardy", "sharp", *common, "--out", str(tmp_path / "sharp")]) == 0
    assert cli.main(["curve", "--name", "convergence", *common,
                     "--out", str(tmp_path / "curve")]) == 0
    (line,) = (tmp_path / "sharp" / "constants.csv").read_text().splitlines()[1:]
    name, N, r_min, r_max, _, value = line.split(",")
    assert (name, N, r_min, r_max) == ("hardy_sharp_radial", "3", "0.0001", "100")
    (result,) = (tmp_path / "sharp" / "results.csv").read_text().splitlines()[1:]
    _, status, row_value, budget = result.split(",")
    assert (status, row_value) == ("pass", value)
    assert abs(float(value) - (0.25 + math.pi**2 / math.log(1e6) ** 2)) <= float(budget)
    last = (tmp_path / "curve" / "convergence_hardy_sharp_N3.csv").read_text().splitlines()[-1]
    assert value == last.split(",")[1]
    manifest = json.loads((tmp_path / "sharp" / "manifest.json").read_text())
    assert manifest["constants"] == [line]
    assert [tuple(sorted(entry)) for entry in manifest["results"]] == [RESULT_KEYS]


def test_sweep_lambda_command_endpoints(tmp_path):
    code = cli.main(["sweep-lambda", "--N", "5", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "h_lambda_N5.csv").read_text().strip().splitlines()
    assert lines[0] == "lambda,h"
    assert len(lines) == 18
    first = float(lines[1].split(",")[1])
    last = float(lines[-1].split(",")[1])
    assert first == pytest.approx(2.25, rel=0.02)
    assert last == pytest.approx(0.25, rel=0.02)


def test_sweep_lambda_sweeps_once(tmp_path, monkeypatch):
    sweeps = []
    sweep = quotients.sweep_h_lambda

    def counted(*args):
        sweeps.append(args)
        return sweep(*args)

    monkeypatch.setattr(quotients, "sweep_h_lambda", counted)
    code = cli.main(["sweep-lambda", "--N", "5", "--out", str(tmp_path / "verb")])
    assert code == 0
    assert len(sweeps) == 1
    # same bytes as the curve verb and the suite check, each sweeping on its own
    cfg = ToolkitConfig()
    emit_curve("h_lambda", tmp_path / "curve", N=5, config=cfg)
    suites.run_checks([lambda: suites.h_lambda_endpoints_and_shape(cfg, 5)], cfg,
                      "").write(tmp_path / "suite")
    for name, ref in (("h_lambda_N5.csv", "curve"), ("results.csv", "suite")):
        assert (tmp_path / "verb" / name).read_bytes() == (tmp_path / ref / name).read_bytes()


def test_rellich_sharp_r2_warm_starts_from_the_truncation_law(monkeypatch):
    nears, ests = [], []
    estimate = quotients.estimate

    def spied(name, N, cfg, **kwargs):
        nears.append(kwargs["near"])
        ests.append(estimate(name, N, cfg, **{**kwargs, "M": 512}))
        return ests[-1]

    monkeypatch.setattr(quotients, "estimate", spied)
    suites.sharp_constants(ToolkitConfig(), "rellich_sharp_r2",
                           [("rellich_sharp_r2_radial", 5, (1e4, 1e5))])
    assert nears == [None, suites.truncation_law(2.0, ests[0].value, 1e4, 1e5)]


@pytest.mark.parametrize("N", [4, 5])
def test_hardy_sharp_above_dimension_three_passes(N, tmp_path):
    # no closed form there: the estimate (0.59227, 0.69424) need only lie
    # above the claim 1/4 within its budget
    assert cli.main(["hardy", "sharp", "--N", str(N), "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("M, code", [(20, cli.USAGE_EXIT), (127, cli.USAGE_EXIT), (128, 0)])
def test_grids_m_below_a_three_level_history_is_a_usage_error(M, code, tmp_path, capsys):
    config = tmp_path / "grids.ini"
    config.write_text(f"[grids]\nM = {M}\n")
    assert cli.main(["hardy", "sharp", "--config", str(config), "--out", str(tmp_path)]) == code
    if code == cli.USAGE_EXIT:
        assert f"needs M >= 128 nodes, got M = {M}" in capsys.readouterr().err


def test_sharp_rellich_default_dimension(tmp_path):
    # sharp --which rellich-r2 defaults to N = 5, as rellich sharp-r2 does
    assert cli.main(["sharp", "--which", "rellich-r2", "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["rellich", "sharp-r2", "--out", str(tmp_path / "b")]) == 0
    for name in ("results.csv", "constants.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert ",5," in (tmp_path / "a" / "constants.csv").read_text()


def test_run_suite_is_serial_only():
    assert run_suite("asymptotics", ToolkitConfig(), workers=1).passed
    with pytest.raises(ArgumentError, match="workers"):
        run_suite("asymptotics", ToolkitConfig(), workers=2)


def test_overlapping_runs_keep_their_own_constants():
    serial = run_suite("hardy", ToolkitConfig()).constants
    assert serial
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(run_suite, "hardy", ToolkitConfig()) for _ in range(2)]
            threaded = [f.result(timeout=120).constants for f in futures]
    finally:
        sys.setswitchinterval(old)
    assert threaded == [serial, serial]


def test_hardy_check_reads_margin_tolerance(tmp_path):
    # every margin verb judges its margin row against margin_rtol * tol-scale
    cases = [
        (["hardy", "check"], {"poincare_hardy_margins": 2e-08}),
        (["rellich", "check"], {"poincare_rellich_margins": 2e-08}),
        (["hardy", "iterlog"], {"iterated_log_margins": 2e-08,
                                "iterated_log_optimality_scan": 1e-3}),
        (["euclid", "halfspace-hardy"], {"halfspace_hardy_margins": 2e-08}),
        (["euclid", "halfspace-rellich", "--which", "y4"],
         {"halfspace_rellich_margins": 2e-08}),
    ]
    for i, (argv, expected) in enumerate(cases):
        out = tmp_path / str(i)
        assert cli.main([*argv, "--tol-scale", "2", "--out", str(out)]) == 0
        lines = (out / "results.csv").read_text().splitlines()[1:]
        tolerances = {l.split(",")[0]: float(l.rsplit(",", 1)[1]) for l in lines}
        assert tolerances == expected, argv


_IMPORT_BOUNDARY = """
import sys
from hardyrellich import cli
out = sys.argv[1]
seen = ["numpy.polynomial" in sys.modules, "scipy" in sys.modules]
seen.append(cli.main(["rellich", "coeffs", "--out", out]))
seen.append("scipy" in sys.modules)
seen.append(cli.main(["hardy", "sharp", "--out", out]))
seen.append("scipy" in sys.modules)
print(seen)
"""


def test_scipy_loads_on_first_factorization(tmp_path):
    # a fresh interpreter: commands that solve no pencil never import scipy
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", _IMPORT_BOUNDARY, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    # numpy.polynomial absent after import; scipy absent after import and
    # after `rellich coeffs`; both verbs exit 0
    assert done.stdout.splitlines()[-1] == "[False, False, 0, False, 0, True]"


def test_sharp_hardy_overflow_names_its_radius(tmp_path):
    # a fresh interpreter: the ground-state pencil never forms sinh^(N-1),
    # so r_max = 1000 solves, at the exact truncated value
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "hardyrellich", "hardy", "sharp", "--N", "3",
                           "--rmax", "1000", "--out", str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    value = float((tmp_path / "constants.csv").read_text().splitlines()[1].rsplit(",", 1)[1])
    assert abs(value - (0.25 + math.pi**2 / math.log(1000.0 / 1e-6) ** 2)) <= 5e-8
    # a pencil that does overflow, the euclidean Rellich one from
    # r = 1e-90 (1/r^4 and the h^-4 rows pass 1e308): a typed error names
    # the node and radius, and numpy warns nothing
    grid = make_grid(1e-90, 1.0, 8192, "geometric")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationError, match=r"non-finite .* at node 2 \(r = "):
            pencils.assemble_pencil(mf.euclidean(5), None, lambda r: 1.0 / r**4, grid,
                                    pencils.ORDER_BILAPLACIAN)



@pytest.mark.parametrize("argv, node", [
    (["hardy", "sharp", "--rmax", "1e160"], 7903),
    (["sharp", "--which", "rellich-r2", "--rmax", "1e200"], 6341),
])
def test_an_underflowing_weight_is_an_evaluation_error(argv, node, tmp_path, capsys):
    # 1/r^2 reads 0 past r ~ 1.3e154: a radius the truncation cannot reach
    # in floating point, not a bad argument
    assert cli.main([*argv, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: denominator weight underflowed")
    assert f"at node {node} (r = 1.3" in err

@pytest.mark.parametrize("module", [["-W", "error", "-m", "hardyrellich.cli"],
                                    ["-m", "hardyrellich"]], ids=" ".join)
def test_python_m_runs_cleanly(module):
    # a fresh interpreter: no runpy warning, and the package runs as a module
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, *module, "--version"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0
    assert done.stderr == ""
    assert done.stdout.strip() == hardyrellich.__version__


def _readme_commands():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    return [line.split("#", 1)[0].split()[1:] for line in block.splitlines()
            if line.startswith("hardyrellich ")]


def test_readme_config_block_lists_every_key(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    path = tmp_path / "readme.ini"
    path.write_text(readme.split("```ini", 1)[1].split("```", 1)[0])
    assert load_config(str(path)).sections == DEFAULTS


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_exits_zero(argv, tmp_path):
    assert cli.main([*argv, "--out", str(tmp_path)]) == 0


def test_manifest_times_each_check(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert cli.main(["verify", "--suite", "all", "--out", str(out)]) == 0
    manifest = json.loads((a / "manifest.json").read_text())
    timed = manifest["check_seconds"]
    assert sorted(t["check"] for t in timed) == [r["name"] for r in manifest["results"]]
    assert set(manifest["suite_seconds"]) == set(suites.SUITES) - {"all"}
    total = sum(t["seconds"] for t in timed)
    assert sum(manifest["suite_seconds"].values()) == pytest.approx(total)
    assert abs(total - manifest["wall_time_s"]) <= 0.05 * manifest["wall_time_s"]
    # timings go only into the manifest
    for name in ("results.csv", "constants.csv", "residuals.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.parametrize("bad", ["nan_first", "nan_last", "zero_lhs", "minus_inf"])
def test_margin_row_fails_nonfinite_ratios(bad):
    # min() drops a NaN unless it comes first, and lhs = 0 divided by zero
    def report(lhs, rhs):
        return hardy.MarginReport("m", 5, "hyperbolic", "u", lhs, rhs, lhs - rhs, 0.0)

    good = report(2.0, 1.0)
    reports = {
        "nan_first": [report(float("nan"), 1.0), good],
        "nan_last": [good, report(float("nan"), 1.0)],
        "zero_lhs": [good, report(0.0, 0.0)],
        "minus_inf": [good, report(1.0, float("inf"))],
    }[bad]
    cfg = ToolkitConfig()
    assert suites._margin_row(cfg, "m", [good]).passed
    assert not suites._margin_row(cfg, "m", reports).passed


def test_margin_rows_carry_their_quad_error_in_the_manifest(tmp_path):
    # the worst quad_error / |lhs| of a margin row goes to manifest.json;
    # results.csv keeps its four columns
    cfg = ToolkitConfig()
    reports = [hardy.check_poincare_hardy(u, 5, nodes=2048)
               for u in suites.seeded_bumps(cfg.seed + 5, 3, 0.3, 6.0)]
    manifest = suites.run_checks([lambda: suites.poincare_hardy_margins(cfg, (5,), 3)],
                                 cfg, "hardy check")
    manifest.write(tmp_path)
    (result,) = json.loads((tmp_path / "manifest.json").read_text())["results"]
    worst = max(rep.quad_error / abs(rep.lhs) for rep in reports)
    assert result["quad_error_rel"] == pytest.approx(worst, rel=1e-6) and worst > 0.0
    lines = (tmp_path / "results.csv").read_text().splitlines()
    assert lines[0] == "check,status,value,tolerance" and lines[1].count(",") == 3
    other = suites.run_checks([lambda: suites.null_criticality_slope(cfg, 5)], cfg, "x")
    assert json.loads(other.to_json())["results"][0]["quad_error_rel"] is None


def test_coeffs_builds_its_table_once(tmp_path, monkeypatch):
    from hardyrellich import rellich

    calls = []
    mode_table = rellich.mode_table
    monkeypatch.setattr(rellich, "mode_table",
                        lambda N, n_max=50: calls.append(N) or mode_table(N, n_max))
    assert cli.main(["rellich", "coeffs", "--nmax", "12", "--out", str(tmp_path)]) == 0
    assert calls == [5]
    lines = (tmp_path / "mode_coeffs_N5.csv").read_text().splitlines()
    assert len(lines) == 14


def test_parser_is_built_once_per_process(tmp_path):
    # two verbs in one process share one argparse tree, and write the same
    # CSV bytes as the two verbs run in fresh interpreters
    verbs = [["rellich", "coeffs", "--nmax", "12"], ["euclid", "laplacian-identity"]]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    cli.build_parser.cache_clear()
    for i, argv in enumerate(verbs):
        assert cli.main([*argv, "--out", str(tmp_path / "same" / str(i))]) == 0
        done = subprocess.run([sys.executable, "-m", "hardyrellich", *argv,
                               "--out", str(tmp_path / "fresh" / str(i))],
                              env=env, capture_output=True, timeout=120)
        assert done.returncode == 0
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    for i in range(len(verbs)):
        same = {p.name: p.read_bytes() for p in (tmp_path / "same" / str(i)).glob("*.csv")}
        fresh = {p.name: p.read_bytes() for p in (tmp_path / "fresh" / str(i)).glob("*.csv")}
        assert same and same == fresh

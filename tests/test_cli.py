import json
import os
import subprocess
import sys
from pathlib import Path
from concurrent.futures import ThreadPoolExecutor

import pytest

import hardyrellich
from hardyrellich import cli, hardy, suites
from hardyrellich import manifolds as mf
from hardyrellich import supersolutions as ss
from hardyrellich.config import DEFAULTS, ToolkitConfig, default_config, load_config
from hardyrellich.errors import ArgumentError
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
    # residuals.csv is written from the arrays the identity checks judge
    calls = {}
    for name in ("warp_power_identity_residual", "product_profile_identity_residual",
                 "supersolution_equality_residual"):
        def counted(*args, _name=name, _fn=getattr(ss, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)

        monkeypatch.setattr(ss, name, counted)
    assert cli.main(["verify", "--suite", "identities", "--out", str(tmp_path)]) == 0
    assert calls == {"warp_power_identity_residual": 12,
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
    # the narrower truncation lifts the estimate to about 0.306, above the
    # check's [0.249, 0.30] window, so the run exits 1
    assert cli.main(["hardy", "sharp", *common, "--out", str(tmp_path / "sharp")]) == 1
    assert cli.main(["curve", "--name", "convergence", *common,
                     "--out", str(tmp_path / "curve")]) == 0
    (line,) = (tmp_path / "sharp" / "constants.csv").read_text().splitlines()[1:]
    name, N, r_min, r_max, _, value = line.split(",")
    assert (name, N, r_min, r_max) == ("hardy_sharp_radial", "3", "0.0001", "100")
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
    sweep = hardy.sweep_h_lambda

    def counted(*args, **kwargs):
        sweeps.append(args)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(hardy, "sweep_h_lambda", counted)
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
seen = ["scipy" in sys.modules]
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
    # scipy absent after import and after `rellich coeffs`; both verbs exit 0
    assert done.stdout.splitlines()[-1] == "[False, 0, False, 0, True]"


def test_sharp_hardy_overflow_names_its_radius(tmp_path):
    # a fresh interpreter: at r_max = 1000 the direct pencil's measure
    # exp(2 log sinh r - median) overflows; the run exits 1 with a typed
    # error naming the node and radius, and numpy warns nothing
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "hardyrellich", "hardy", "sharp", "--N", "3",
                           "--rmax", "1000", "--out", str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    assert "non-finite" in done.stderr and "r = " in done.stderr
    assert "RuntimeWarning" not in done.stderr


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

import json
import sys
from pathlib import Path
from concurrent.futures import ThreadPoolExecutor

import pytest

from hardyrellich import cli
from hardyrellich.config import DEFAULTS, ToolkitConfig, default_config, load_config
from hardyrellich.errors import ArgumentError
from hardyrellich.reports import ExperimentManifest, emit_curve, row
from hardyrellich.suites import run_suite


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


def test_residual_report_emitted(tmp_path):
    code = cli.main(["verify", "--suite", "identities", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "residuals.csv").read_text().strip().splitlines()
    assert lines[0] == "identity,family,N,alpha_or_f,r,residual_rel"
    assert len(lines) > 1000
    assert all(float(l.rsplit(",", 1)[1]) <= 1e-8 for l in lines[1:])


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

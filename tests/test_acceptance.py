"""Acceptance suite: the exit criteria of the toolkit, one test per
criterion, each printing a pass/fail line with its runtime and judged at the
tolerances fixed here (no later calibration)."""

import time
from fractions import Fraction

import numpy as np

from hardyrellich import euclid, hardy, quotients, rellich
from hardyrellich import manifolds as mf
from hardyrellich import supersolutions as ss
from hardyrellich.config import ToolkitConfig
from hardyrellich.iterated_log import iterated_log_profile
from hardyrellich.radial import (
    bilaplacian_form,
    bump,
    grid_covering,
    seeded_bumps,
)
from hardyrellich.suites import run_suite

CFG = ToolkitConfig()


def _report(name: str, ok: bool, t0: float, budget: float) -> None:
    elapsed = time.perf_counter() - t0
    print(f"acceptance {name}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s)")
    assert ok
    assert elapsed < budget, f"{name} exceeded its {budget:.0f}s runtime budget"


def test_criterion_1_identity_suite():
    t0 = time.perf_counter()
    ok = True
    r = ss.IDENTITY_SAMPLE
    families = [mf.hyperbolic(3), mf.hyperbolic(5), mf.euclidean(5),
                mf.superexp(5, 2.0)]
    for man in families:
        for alpha in (-2.0, -0.5, 1.0, (man.N - 1) / 2.0):
            ok &= float(np.max(ss.warp_power_identity_residual(man, alpha, r))) <= 1e-8
        N = man.N
        for f in (ss.power_profile((2.0 - N) / 2.0), ss.power_log_profile(N)):
            ok &= float(np.max(ss.product_profile_identity_residual(man, f, r))) <= 1e-8
        rin = np.geomspace(1e-3, 0.99, 64)
        for k in (1, 2, 3):
            res = ss.product_profile_identity_residual(
                man, iterated_log_profile(N, k), rin
            )
            ok &= float(np.max(res)) <= 1e-8
    ok &= all(rellich.verify_euclidean_rellich_split(N)[0] for N in range(5, 51))
    for N in range(5, 13):
        tab = rellich.mode_table(N, 50)
        ok &= min(t.sinh4_coeff for t in tab) == rellich.min_sinh4_closed_form(N)
        ok &= min(t.sinh2_coeff for t in tab) == rellich.min_sinh2_closed_form(N)
    ok &= rellich.sinh4_coefficient(0, 5) == 1 and rellich.sinh2_coefficient(0, 5) == 12
    _report("1 identity suite", ok, t0, 5.0)


def test_criterion_2_poincare_gap():
    t0 = time.perf_counter()
    ok = True
    for N in (3, 5):
        est = quotients.estimate("poincare_gap_radial", N, CFG, r_max=60.0, M=8192)
        lam = (N - 1) ** 2 / 4.0
        ok &= abs(est.value - lam) / lam <= 0.01
    _report("2 poincare gap", ok, t0, 30.0)


def test_criterion_3_hardy_sharpness():
    t0 = time.perf_counter()
    vals = [quotients.estimate("hardy_sharp_radial", 3, CFG, r_max=rmax, M=8192).value
            for rmax in (25.0, 50.0, 100.0)]
    ok = all(0.249 <= v <= 0.30 for v in vals)
    ok &= vals[2] <= vals[1] <= vals[0]
    _report("3 hardy sharpness", ok, t0, 60.0)


def test_criterion_4_h_lambda_curve():
    t0 = time.perf_counter()
    curve = quotients.sweep_h_lambda(CFG, 5)
    ok = len(curve.lambdas) == 17
    ok &= abs(curve.h_values[0] / 2.25 - 1.0) <= 0.02
    ok &= abs(curve.h_values[-1] / 0.25 - 1.0) <= 0.02
    ok &= curve.is_nonincreasing()
    ok &= curve.midpoint_concavity_defect() <= 1e-6
    _report("4 h(lambda) curve", ok, t0, 300.0)


def test_criterion_5_rellich_constants():
    t0 = time.perf_counter()
    euc = quotients.estimate("euclid_rellich_radial", 5, CFG, M=8192)
    ok = abs(euc.value - 25.0 / 16.0) <= 5e-2
    vals = [quotients.estimate("rellich_sharp_r2_radial", 5, CFG, r_max=rmax, M=8192).value
            for rmax in (1e4, 1e5, 1e6)]
    ok &= all(v >= 2.0 - 1e-2 for v in vals)
    ok &= vals[2] <= vals[1] <= vals[0]
    anchor = quotients.estimate("one_d_rellich", 1, CFG, M=8192)
    ok &= abs(anchor.value - 9.0 / 16.0) <= 1e-2
    _report("5 rellich constants", ok, t0, 300.0)


def test_criterion_6_margin_suites():
    t0 = time.perf_counter()
    worst = np.inf

    def track(margin, lhs):
        nonlocal worst
        worst = min(worst, margin / abs(lhs))

    for i, u in enumerate(seeded_bumps(601, 50, 0.3, 6.0)):
        rep = hardy.check_poincare_hardy(u, 3 + (i % 4), nodes=1024)
        track(rep.margin, rep.lhs)
    for man in (mf.hyperbolic(5), mf.euclidean(5), mf.superexp(5, 2.0)):
        for u in seeded_bumps(602 + man.N, 50, 0.5, 4.0):
            rep = hardy.check_general_model(u, man, nodes=1024)
            track(rep.margin, rep.lhs)
    for u in seeded_bumps(603, 50, 0.5, 5.0):
        rep = rellich.check_sinh_hardy_1d(u, nodes=1024)
        track(rep.margin, rep.lhs)
    for i, u in enumerate(seeded_bumps(604, 50, 0.12, 0.88)):
        rep = hardy.check_iterated_log_improvement(u, 5, 1 + (i % 3), nodes=1024)
        track(rep.margin, rep.lhs)
    for i, u in enumerate(seeded_bumps(605, 50, 0.3, 6.0)):
        rep = rellich.check_poincare_rellich(u, (5, 6, 8, 10)[i % 4], nodes=1024)
        track(rep.margin, rep.lhs)
    for u in seeded_bumps(606, 50, 2.0, 6.0):
        rep = rellich.check_mapped_rellich(u, 5, nodes=1024)
        track(rep.margin, rep.lhs)
    rng = np.random.default_rng(607)
    for _ in range(50):
        ylo = rng.uniform(0.3, 0.9)
        v = euclid.tensor_bump(rng.uniform(0.4, 1.5), ylo,
                               ylo + rng.uniform(0.4, 2.0))
        rep = euclid.check_halfspace_hardy(v, 3, nx=160, ny=160)
        track(rep.margin, rep.lhs)
        rep = euclid.check_halfspace_rellich(v, 5, "y2", nx=160, ny=160)
        track(rep.margin, rep.lhs)
        rep = euclid.check_halfspace_rellich(v, 5, "y4", nx=160, ny=160)
        track(rep.margin, rep.lhs)
        rep = euclid.aux_gradient_inequality(v, 5, nx=160, ny=160)
        track(rep.margin, rep.lhs)
    _report("6 margin suites", worst >= -1e-8, t0, 120.0)


def test_criterion_7_cross_model_identities():
    t0 = time.perf_counter()
    ok = True
    for N in (3, 5, 7):
        for u in seeded_bumps(701 + N, 20, 0.4, 3.0):
            ok &= max(euclid.ball_identity_check(u, N, nodes=2048)) <= 1e-6
    # on the shipped polar rule (euclid.TRANSPORTED_RULE)
    _, _, rel = euclid.halfspace_bilaplacian_identity(bump(0.5, 1.5), 5)
    ok &= rel <= 1e-10
    for N in (5, 6, 7, 8):
        man = mf.hyperbolic(N)
        for u in seeded_bumps(710 + N, 5, 0.4, 5.0):
            grid = grid_covering(u.support, 2048)
            bf = bilaplacian_form(u, man, grid)
            rf = rellich.radial_reduced_form(
                rellich.reduced_from_radial(u, N), N, 0, grid
            )
            ok &= abs(bf - rf) / bf <= 1e-5
    _report("7 cross-model identities", ok, t0, 120.0)


def test_criterion_8_asymptotics():
    t0 = time.perf_counter()
    c = rellich.asymptotic_constants(5)
    ok = abs(c.c1 - (1.0 / 12.0) ** (1.0 / 3.0)) <= 1e-15
    ok &= c.k1_exact == Fraction(-8, 9)
    errs = rellich.two_term_expansion_error_precise(5, [8.0, 12.0])
    ok &= errs[1] < 0.5 * errs[0]
    for N in range(5, 13):
        cc = rellich.asymptotic_constants(N)
        ok &= cc.k1_exact - 2 * cc.c2_over_c1 == Fraction(-4 * (N - 1), N + 1)
    _report("8 asymptotics", ok, t0, 60.0)


def test_criterion_9_criticality_diagnostics():
    t0 = time.perf_counter()
    slope = ss.null_criticality_slope(5, (2.0, 4.0, 8.0, 16.0))
    ok = abs(slope - 0.25) <= 1e-3
    seq0 = [ss.minimal_growth_ratios(5, rs, 10.0)[0] for rs in (1e-3, 1e-6, 1e-9)]
    seq1 = [ss.minimal_growth_ratios(5, 1e-3, rl)[1] for rl in (10.0, 1e2, 1e3)]
    ok &= all(np.diff(seq0) < 0) and all(np.diff(seq1) < 0)
    for k in (1, 2):
        q = hardy.iterated_log_optimality_scan(5, k)
        ok &= min(q) >= 0.25 - 1e-3
        ok &= all(np.diff(q) <= 1e-12)
    _report("9 criticality diagnostics", ok, t0, 60.0)


def test_criterion_10_typo_adjudication():
    t0 = time.perf_counter()
    manifest = run_suite("euclid", ToolkitConfig(), command="acceptance-10")
    rows = {r.name: r for r in manifest.results}
    corrected = rows["halfspace_laplacian_identity_corrected"]
    literal = rows["halfspace_laplacian_identity_literal_fails"]
    ok = corrected.passed and corrected.value < 1e-10
    ok &= literal.passed and literal.value > 1e-6  # recorded failure witness
    _report("10 typo adjudication", ok, t0, 120.0)


def test_criterion_11_spectral_margin_quadrature():
    # every 1-D margin family of the suites, with the suites' seeded bumps:
    # on the C^inf bumps the trapezoid rule converges faster than any
    # power of the spacing, so both sides at the suites' 1024 nodes agree
    # with a 16x finer grid to rounding
    t0 = time.perf_counter()
    cfg = ToolkitConfig()
    seed, count = cfg.seed, cfg.get_int("hardy", "bump_count")
    families = [
        lambda n: [rep for N in (3, 4, 5, 7, 10) for rep in hardy.check_poincare_hardy(
            seeded_bumps(seed + N, count, 0.3, 6.0), N, nodes=n)],
        lambda n: [rep for man in (mf.hyperbolic(5), mf.euclidean(5), mf.superexp(5, 2.0))
                   for rep in hardy.check_general_model(
                       seeded_bumps(seed + man.N + 17, count, 0.5, 4.0), man, nodes=n)],
        lambda n: hardy.check_iterated_log_improvement(
            seeded_bumps(seed + 5, count, 0.15, 0.85), 5, range(4), nodes=n),
        lambda n: [rep for N in (5, 6, 8, 10) for rep in rellich.check_poincare_rellich(
            seeded_bumps(seed + 31 + N, 5, 0.3, 6.0), N, nodes=n)],
        lambda n: rellich.check_sinh_hardy_1d(seeded_bumps(seed + 41, 10, 0.5, 5.0),
                                              nodes=n),
        lambda n: [rep for k in range(6) for rep in rellich.mode_chain_margin(
            rellich.reduced_from_radial(seeded_bumps(seed + 53 + k, 3, 0.4, 4.0), 5),
            5, k, nodes=n)],
        lambda n: rellich.check_mapped_rellich(seeded_bumps(seed + 71, 5, 2.0, 6.0), 5,
                                               nodes=n),
        lambda n: euclid.check_ball_hardy(seeded_bumps(seed + 90, 10, 0.05, 0.9), 3,
                                          nodes=n),
    ]
    worst = 0.0
    for family in families:
        for rep, fine in zip(family(1024), family(16384)):
            worst = max(worst, abs(rep.lhs - fine.lhs) / abs(fine.lhs),
                        abs(rep.rhs - fine.rhs) / abs(fine.rhs))
    _report("11 spectral margin quadrature", worst <= 1e-13, t0, 60.0)


def test_criterion_12_tensor_bump_quadrature(monkeypatch):
    # every term of every tensor-bump margin of the suites and the CLI, on
    # the shipped grid and patch, against a grid and a patch 4x finer: a
    # bound stated before the grid was chosen (1e-7 relative), the
    # observed order of the grid rule against the half grid (>= 4), and a
    # quad_error that covers the margin's own error
    from hardyrellich.suites import HALFSPACE_BUMP, _random_tensor_bumps

    t0 = time.perf_counter()
    n, patch = euclid.TENSOR_GRID, euclid.PATCH_NODES
    bump_checks = [
        (HALFSPACE_BUMP, lambda v, m: euclid.check_halfspace_hardy(v, 3, m, m)),
        (HALFSPACE_BUMP, lambda v, m: euclid.check_halfspace_rellich(v, 5, "y2", m, m)),
        (HALFSPACE_BUMP, lambda v, m: euclid.check_halfspace_rellich(v, 5, "y4", m, m)),
        (HALFSPACE_BUMP, lambda v, m: euclid.aux_gradient_inequality(v, 5, m, m)),
    ] + [(v, lambda v, m: euclid.check_halfspace_hardy(v, 3, m, m))
         for v in _random_tensor_bumps(ToolkitConfig().seed + 95, 5)]
    sums = []
    spied = euclid._halfspace_sums

    def spy(*args):
        out = spied(*args)
        sums.append(out[:, 0])
        return out

    monkeypatch.setattr(euclid, "_halfspace_sums", spy)

    def run(check, v, m, nodes):
        monkeypatch.setattr(euclid, "PATCH_NODES", nodes)
        report = check(v, m)
        return report, sums[-1]

    worst_err, worst_order, covered = 0.0, np.inf, True
    for v, check in bump_checks:
        ref, ref_terms = run(check, v, 4 * n, tuple(4 * k for k in patch))
        rep, terms = run(check, v, n, patch)
        _, half_terms = run(check, v, n // 2, patch)
        err = np.abs(terms - ref_terms) / np.abs(ref_terms)
        half_err = np.abs(half_terms - ref_terms) / np.abs(ref_terms)
        worst_err = max(worst_err, float(np.max(err)))
        worst_order = min(worst_order, float(np.min(np.log2(half_err / err))))
        covered &= rep.quad_error >= abs(rep.margin - ref.margin)
    print(f"tensor bumps at {n}^2: worst term error {worst_err:.2e}, "
          f"worst observed order {worst_order:.1f}")
    _report("12 tensor-bump quadrature", worst_err <= 1e-7 and worst_order >= 4.0 and covered,
            t0, 60.0)

"""Every verification check, and the named suites that run them.

Each check is a module-level function check(cfg, <inputs>) -> (row,
constants): one report row and the constants.csv rows it estimated.  The
inputs are N values, test functions, node or grid sizes, truncation radii
and the like; tolerances come from cfg.tolerance() or from the check's own
fixed criterion.  A suite binds its checks to the suite's inputs and runs
them in order on the calling thread; the CLI verbs bind the same checks to
their own arguments.  Reports sort rows by name, so runs are reproducible."""

from __future__ import annotations

import time
from fractions import Fraction
from functools import partial

import numpy as np

from . import euclid, hardy, rellich
from . import manifolds as mf
from . import supersolutions as ss
from .config import ToolkitConfig
from .errors import ArgumentError
from .iterated_log import iterated_log_profile
from .radial import bump, grid_covering, seeded_bumps, bilaplacian_form
from .reports import CheckRow, ExperimentManifest, h_lambda_curve, row

SUITES = ("identities", "hardy", "rellich", "euclid", "asymptotics", "all")

# the fixed half-space test function of the second-order suite check and
# of the half-space CLI verbs
HALFSPACE_BUMP = euclid.tensor_bump(1.0, 0.5, 2.0)
_CONJUGATION_POINTS = [(0.7, 2.0), (1.5, 0.8), (0.3, 3.0)]


def _builtin_families(N_hardy: int = 5):
    return [mf.hyperbolic(N_hardy), mf.euclidean(N_hardy), mf.superexp(N_hardy, 2.0)]


def _warp_alphas(N: int) -> tuple:
    return (-2.0, -0.5, 1.0, (N - 1) / 2.0)


def _product_profiles(N: int) -> list:
    return [ss.power_profile((2.0 - N) / 2.0), ss.power_log_profile(N)]


def _margin_row(cfg: ToolkitConfig, name: str, reports) -> CheckRow:
    """Worst relative margin, min of margin / |lhs| over the reports,
    judged against [tolerances] margin_rtol."""
    mtol = cfg.tolerance("margin_rtol")
    worst = min(rep.margin / abs(rep.lhs) for rep in reports)
    return row(name, worst, mtol, worst >= -mtol)


def _count_row(name: str, bad: int) -> CheckRow:
    return row(name, bad, 0.0, bad == 0)


# ---------------------------------------------------------------------------
# checks: each takes the config and its inputs and returns one report row
# and the constants.csv rows it estimated


def warp_power_identity(cfg: ToolkitConfig, man: mf.ModelManifold):
    tol = cfg.tolerance("identity_rtol")
    worst = 0.0
    for alpha in _warp_alphas(man.N):
        res = ss.warp_power_identity_residual(man, alpha, ss.IDENTITY_SAMPLE)
        worst = max(worst, float(np.max(res)))
    return row(f"warp_power_identity/{man.describe()}", worst, tol,
               worst <= tol), []


def product_profile_identity(cfg: ToolkitConfig, man: mf.ModelManifold):
    tol = cfg.tolerance("identity_rtol")
    N = man.N
    worst = max(
        float(np.max(ss.product_profile_identity_residual(man, f, ss.IDENTITY_SAMPLE)))
        for f in _product_profiles(N)
    )
    rin = np.geomspace(1e-3, 0.99, 64)
    for k in (1, 2, 3):
        res = ss.product_profile_identity_residual(man, iterated_log_profile(N, k), rin)
        worst = max(worst, float(np.max(res)))
    return row(f"product_profile_identity/{man.describe()}", worst, tol,
               worst <= tol), []


def supersolution_equality(cfg: ToolkitConfig, man: mf.ModelManifold):
    tol = cfg.tolerance("identity_rtol")
    worst = float(np.max(ss.supersolution_equality_residual(man, ss.IDENTITY_SAMPLE)))
    return row(f"supersolution_equality/{man.describe()}", worst, tol,
               worst <= tol), []


def ground_state_residual(cfg: ToolkitConfig, Ns):
    worst = max(
        float(np.max(ss.ground_state_residual(N, np.array([0.1, 1.0, 10.0]))))
        for N in Ns
    )
    return row("ground_state_residual", worst, 1e-10, worst <= 1e-10), []


def euclidean_rellich_split_exact(cfg: ToolkitConfig, Ns):
    bad = sum(0 if rellich.verify_euclidean_rellich_split(N)[0] else 1 for N in Ns)
    return _count_row("euclidean_rellich_split_exact", bad), []


def mode_coefficient_minima_exact(cfg: ToolkitConfig, Ns, n_max: int):
    bad = 0
    for N in Ns:
        tab = rellich.mode_table(N, n_max)
        if min(t.sinh4_coeff for t in tab) != rellich.min_sinh4_closed_form(N):
            bad += 1
        if min(t.sinh2_coeff for t in tab) != rellich.min_sinh2_closed_form(N):
            bad += 1
        if tab[0].sinh4_coeff != rellich.min_sinh4_closed_form(N):
            bad += 1
    return _count_row("mode_coefficient_minima_exact", bad), []


def joint_sharpness_sum_exact(cfg: ToolkitConfig, Ns):
    bad = 0
    for N in Ns:
        total = Fraction(9, 16) + rellich.min_sinh4_closed_form(N)
        if total != Fraction(N * N * (N - 4) ** 2, 16):
            bad += 1
    return _count_row("joint_sharpness_sum_exact", bad), []


def asymptotic_consistency_exact(cfg: ToolkitConfig, Ns):
    bad = sum(0 if rellich.asymptotic_constants(N).consistency_exact else 1 for N in Ns)
    return _count_row("asymptotic_consistency_exact", bad), []


def poincare_hardy_margins(cfg: ToolkitConfig, Ns, count: int):
    reports = (hardy.check_poincare_hardy(u, N, nodes=2048) for N in Ns
               for u in seeded_bumps(cfg.seed + N, count, 0.3, 6.0))
    return _margin_row(cfg, "poincare_hardy_margins", reports), []


def general_model_margins(cfg: ToolkitConfig, manifolds, count: int):
    reports = (hardy.check_general_model(u, man, nodes=2048) for man in manifolds
               for u in seeded_bumps(cfg.seed + man.N + 17, count, 0.5, 4.0))
    return _margin_row(cfg, "general_model_margins", reports), []


def poincare_gap_within_1pct(cfg: ToolkitConfig, Ns):
    bad = 0.0
    consts = []
    for N in Ns:
        est = hardy.poincare_gap(N, M=cfg.get_int("grids", "M"))
        lam = (N - 1) ** 2 / 4.0
        bad = max(bad, abs(est.value - lam) / lam)
        consts.append(est.csv_row("poincare_gap_radial", N))
    return row("poincare_gap_within_1pct", bad, 0.01, bad <= 0.01), consts


def hardy_sharp_range_and_monotone(cfg: ToolkitConfig, N: int, r_maxes):
    """Sharp Hardy estimates on widening truncations: each in [0.249, 0.30]
    and nonincreasing as r_max grows."""
    ests = [hardy.estimate_sharp_hardy(N, r_max=r_max, M=cfg.get_int("grids", "M"))
            for r_max in r_maxes]
    vals = [est.value for est in ests]
    ok = all(0.249 <= v <= 0.30 for v in vals) and all(
        vals[i + 1] <= vals[i] + 1e-12 for i in range(len(vals) - 1)
    )
    return (row("hardy_sharp_range_and_monotone", vals[-1], 0.05, ok),
            [est.csv_row("hardy_sharp_radial", N) for est in ests])


def h_lambda_endpoints_and_shape(cfg: ToolkitConfig, N: int):
    curve = h_lambda_curve(cfg, N)
    ends_ok = (
        abs(curve.h_values[0] / ((N - 2) ** 2 / 4.0) - 1.0) <= 0.02
        and abs(curve.h_values[-1] / 0.25 - 1.0) <= 0.02
    )
    shape_ok = curve.is_nonincreasing() and curve.midpoint_concavity_defect() <= 1e-6
    return row("h_lambda_endpoints_and_shape", curve.h_values[-1], 0.02,
               ends_ok and shape_ok), []


def iterated_log_margins(cfg: ToolkitConfig, N: int, functions, k_max: int,
                         nodes: int):
    reports = (hardy.check_iterated_log_improvement(u, N, k, nodes=nodes)
               for u in functions for k in range(k_max + 1))
    return _margin_row(cfg, "iterated_log_margins", reports), []


def null_criticality_slope(cfg: ToolkitConfig, N: int):
    slope = ss.null_criticality_slope(N)
    return row("null_criticality_slope", slope, 1e-3, abs(slope - 0.25) <= 1e-3), []


def minimal_growth_ratios_decreasing(cfg: ToolkitConfig, N: int):
    seq0 = [ss.minimal_growth_ratios(N, rs, 10.0)[0] for rs in (1e-3, 1e-6, 1e-9)]
    seq1 = [ss.minimal_growth_ratios(N, 1e-3, rl)[1] for rl in (10.0, 100.0, 1000.0)]
    ok = all(np.diff(seq0) < 0) and all(np.diff(seq1) < 0)
    return row("minimal_growth_ratios_decreasing", seq0[-1], 0.0, ok), []


def iterated_log_optimality_scan(cfg: ToolkitConfig, N: int, ks):
    ok = True
    val = np.inf
    for k in ks:
        q = hardy.iterated_log_optimality_scan(N, k)
        val = min(val, min(q))
        ok = ok and all(np.diff(q) <= 1e-12) and min(q) >= 0.25 - 1e-3
    return row("iterated_log_optimality_scan", val, 1e-3, ok), []


def monotonicity_condition_builtin(cfg: ToolkitConfig, manifolds):
    grid = grid_covering((0.5, 20.0), 512)
    ok = all(mf.check_monotonicity_condition(man, grid)[0] for man in manifolds)
    ok = ok and all(ss.check_profile_nonincreasing(man, grid) for man in manifolds)
    return row("monotonicity_condition_builtin", 0.0 if ok else 1.0, 0.0, ok), []


def poincare_rellich_margins(cfg: ToolkitConfig, Ns, count: int):
    reports = (rellich.check_poincare_rellich(u, N, nodes=2048) for N in Ns
               for u in seeded_bumps(cfg.seed + 31 + N, count, 0.3, 6.0))
    return _margin_row(cfg, "poincare_rellich_margins", reports), []


def sinh_hardy_1d_margins(cfg: ToolkitConfig, count: int):
    reports = (rellich.check_sinh_hardy_1d(u, nodes=2048)
               for u in seeded_bumps(cfg.seed + 41, count, 0.5, 5.0))
    return _margin_row(cfg, "sinh_hardy_1d_margins", reports), []


def mode_chain_margins(cfg: ToolkitConfig, N: int, modes):
    reports = (rellich.mode_chain_margin(rellich.reduced_from_radial(u, N), N, n,
                                         nodes=2048)
               for n in modes for u in seeded_bumps(cfg.seed + 53 + n, 3, 0.4, 4.0))
    return _margin_row(cfg, "mode_chain_margins", reports), []


def bilaplacian_vs_reduced_form(cfg: ToolkitConfig, Ns):
    worst = 0.0
    for N in Ns:
        man = mf.hyperbolic(N)
        for u in seeded_bumps(cfg.seed + 67 + N, 5, 0.4, 5.0):
            grid = grid_covering(u.support, 4096)
            bf = bilaplacian_form(u, man, grid)
            rf = rellich.radial_reduced_form(
                rellich.reduced_from_radial(u, N), N, 0, grid
            )
            worst = max(worst, abs(bf - rf) / bf)
    return row("bilaplacian_vs_reduced_form", worst, 1e-5, worst <= 1e-5), []


def one_d_and_euclid_anchors(cfg: ToolkitConfig):
    hardy1d = rellich.one_d_hardy_constant()
    rell1d = rellich.one_d_rellich_constant()
    euc = rellich.euclidean_rellich_constant(5)
    consts = [
        hardy1d.csv_row("one_d_hardy", 1),
        rell1d.csv_row("one_d_rellich", 1),
        euc.csv_row("euclid_rellich_radial", 5),
    ]
    ok = (
        abs(hardy1d.value - 0.25) <= 1e-2
        and abs(rell1d.value - 9.0 / 16.0) <= 1e-2
        and abs(euc.value - 25.0 / 16.0) <= 5e-2
    )
    return row("one_d_and_euclid_anchors", euc.value, 5e-2, ok), consts


def rellich_sharp_r2(cfg: ToolkitConfig, r_maxes_by_N: dict):
    """Sharp Rellich 1/r^2 estimates on the truncations r_maxes_by_N[N]:
    each at least (N-1)^2/8 - 1e-2 and nonincreasing as r_max grows; the
    row value is the widest estimate of the first N."""
    vals, consts = {}, []
    for N, r_maxes in r_maxes_by_N.items():
        ests = [
            rellich.estimate_sharp_rellich_r2(
                N,
                r_min=cfg.get_float("rellich", "sharp_r_min"),
                r_max=r_max,
                M=cfg.get_int("rellich", "sharp_M"),
            )
            for r_max in r_maxes
        ]
        vals[N] = [est.value for est in ests]
        consts += [est.csv_row("rellich_sharp_r2_radial", N) for est in ests]
    ok = all(
        all(v >= (N - 1) ** 2 / 8.0 - 1e-2 for v in vs) and all(np.diff(vs) <= 1e-10)
        for N, vs in vals.items()
    )
    return row("rellich_sharp_r2", next(iter(vals.values()))[-1], 1e-2, ok), consts


def mapped_rellich_margin_and_equivalence(cfg: ToolkitConfig, N: int):
    margins = _margin_row(cfg, "mapped_rellich_margins", (
        rellich.check_mapped_rellich(v, N, nodes=2048)
        for v in seeded_bumps(cfg.seed + 71, 5, 2.0, 6.0)))
    u = bump(1.0, 2.0)
    m_rad = rellich.principal_rellich_margin(u, N, nodes=4096)
    m_map = rellich.check_mapped_rellich(
        rellich.mapped_from_radial(u, N), N, nodes=4096
    ).margin
    equiv = abs(m_rad - m_map) / abs(m_rad)
    return row("mapped_rellich_margin_and_equivalence", equiv, 1e-4,
               margins.passed and equiv <= 1e-4), []


def ball_identities(cfg: ToolkitConfig, Ns):
    worst = 0.0
    for N in Ns:
        for u in seeded_bumps(cfg.seed + 80 + N, 5, 0.4, 3.0):
            for which in ("gradient", "l2", "hardy"):
                worst = max(worst, euclid.ball_identity_check(u, N, which))
    return row("ball_identities", worst, 1e-6, worst <= 1e-6), []


def ball_hardy_margin_and_equivalence(cfg: ToolkitConfig, N: int):
    margins = _margin_row(cfg, "ball_hardy_margins", (
        euclid.check_ball_hardy(v, N, nodes=2048)
        for v in seeded_bumps(cfg.seed + 90, 10, 0.05, 0.9)))
    u = bump(0.8, 1.8)
    vb = euclid.ball_from_radial(u, N)
    m_ball = euclid.check_ball_hardy(vb, N, nodes=8192).margin
    m_hyp = euclid.hyperbolic_margin_without_sinh(u, N, nodes=8192)
    equiv = abs(m_ball - m_hyp) / abs(m_hyp)
    cmp_ok, _ = euclid.boundary_weight_comparison()
    return row("ball_hardy_margin_and_equivalence", equiv, 1e-5,
               margins.passed and equiv <= 1e-5 and cmp_ok), []


def halfspace_hardy_margins(cfg: ToolkitConfig, N: int, functions, nx: int, ny: int):
    reports = (euclid.check_halfspace_hardy(v, N, nx=nx, ny=ny) for v in functions)
    return _margin_row(cfg, "halfspace_hardy_margins", reports), []


def halfspace_hardy_margin_and_equivalence(cfg: ToolkitConfig, functions):
    """N = 3 half-space Hardy margins on a 256^2 grid, and the transported
    radial margin against the hyperbolic one times the sphere-area ratio."""
    margins, _ = halfspace_hardy_margins(cfg, 3, functions, 256, 256)
    U = bump(0.5, 1.5)
    vtr = euclid.TransportedRadial(U, 3, alpha=0.5)
    m_t = euclid.check_halfspace_hardy(vtr, 3, nx=768, ny=768).margin
    m_h = euclid.hyperbolic_margin_without_sinh(U, 3, nodes=8192)
    ratio = euclid.sphere_area(3) / euclid.sphere_area(2)
    equiv = abs(m_t - m_h * ratio) / abs(m_h * ratio)
    return row("halfspace_hardy_margin_and_equivalence", equiv, 1e-4,
               margins.passed and equiv <= 1e-4), []


def halfspace_laplacian_identity_corrected(cfg: ToolkitConfig, N: int, alphas):
    worst = max(
        euclid.halfspace_laplacian_identity_residual(v, alpha, p, N, corrected=True)
        for v in euclid.POLYNOMIAL_SUITE for alpha in alphas for p in _CONJUGATION_POINTS
    )
    return row("halfspace_laplacian_identity_corrected", worst, 1e-10,
               worst <= 1e-10), []


def halfspace_laplacian_identity_literal_fails(cfg: ToolkitConfig, N: int, alphas):
    """Typo witness: the literal middle-term power must fail somewhere on
    the suite (alpha != (N-2)/2, where the middle coefficient survives)."""
    worst = max(
        euclid.halfspace_laplacian_identity_residual(v, alpha, p, N, corrected=False)
        for v in euclid.POLYNOMIAL_SUITE for alpha in alphas for p in _CONJUGATION_POINTS
    )
    return row("halfspace_laplacian_identity_literal_fails", worst, 1e-6,
               worst > 1e-6), []


def halfspace_rellich_margins(cfg: ToolkitConfig, N: int, functions, forms,
                              nx: int, ny: int):
    """Second-order half-space margins; each form is "y2", "y4" or "aux"
    (the auxiliary weighted-gradient bound)."""
    reports = (
        euclid.aux_gradient_inequality(v, N, nx=nx, ny=ny) if form == "aux"
        else euclid.check_halfspace_rellich(v, N, form, nx=nx, ny=ny)
        for v in functions for form in forms
    )
    return _margin_row(cfg, "halfspace_rellich_margins", reports), []


def halfspace_bilaplacian_identity(cfg: ToolkitConfig, N: int):
    _, _, rel = euclid.halfspace_bilaplacian_identity(bump(0.5, 1.5), N,
                                                      nx=640, ny=640)
    return row("halfspace_bilaplacian_identity", rel, 1e-4, rel <= 1e-4), []


def asymptotic_constants_exact(cfg: ToolkitConfig):
    c = rellich.asymptotic_constants(5)
    err = abs(c.c1**3 * 12.0 - 1.0)
    ok = (
        err <= 1e-14
        and c.c2_over_c1 == Fraction(8, 9)
        and c.k1_exact == Fraction(-8, 9)
        and c.consistency_exact
    )
    return row("asymptotic_constants_exact", err, 1e-14, ok), []


def two_term_expansion_ratio(cfg: ToolkitConfig, N: int):
    errs = rellich.two_term_expansion_error_precise(N, [8.0, 12.0])
    ratio = errs[1] / errs[0]
    return row("two_term_expansion_ratio", ratio, 0.5, ratio < 0.5), []


def s_table_matches_precise(cfg: ToolkitConfig, N: int):
    worst = 0.0
    for r in (3.0, 4.0, 5.0):
        a = float(rellich.two_term_expansion_error(N, r))
        b = rellich.two_term_expansion_error_precise(N, [r])[0]
        worst = max(worst, abs(a - b) / b)
    return row("s_table_matches_precise", worst, 1e-3, worst <= 1e-3), []


def density_correction_within_5pct(cfg: ToolkitConfig, N: int):
    fits = rellich.density_correction_fit(N, np.array([8.0, 10.0, 12.0]))
    k1 = rellich.asymptotic_constants(N).k1
    worst = float(np.max(np.abs(fits / k1 - 1.0)))
    return row("density_correction_within_5pct", worst, 0.05, worst <= 0.05), []


def s_of_r_monotone_and_flat_at_pole(cfg: ToolkitConfig, N: int):
    cov = rellich.change_of_variable(N)
    s = cov.s_of_r(np.geomspace(1e-3, 30.0, 64))
    ok = bool(np.all(np.diff(s) > 0)) and abs(cov.s_of_r(1e-3) / 1e-3 - 1.0) < 1e-3
    return row("s_of_r_monotone_and_flat_at_pole", 0.0 if ok else 1.0, 0.0, ok), []


# ---------------------------------------------------------------------------
# suites: each builder binds its checks to the suite's inputs


def _identity_checks(cfg: ToolkitConfig) -> list:
    checks = []
    for man in _builtin_families():
        checks += [partial(warp_power_identity, cfg, man),
                   partial(product_profile_identity, cfg, man),
                   partial(supersolution_equality, cfg, man)]
    return checks + [
        partial(ground_state_residual, cfg, (3, 5, 8)),
        partial(euclidean_rellich_split_exact, cfg, range(5, 51)),
        partial(mode_coefficient_minima_exact, cfg, range(5, 13), 50),
        partial(joint_sharpness_sum_exact, cfg, range(5, 13)),
        partial(asymptotic_consistency_exact, cfg, range(5, 11)),
    ]


def _hardy_checks(cfg: ToolkitConfig) -> list:
    count = cfg.get_int("hardy", "bump_count")
    return [
        partial(poincare_hardy_margins, cfg, (3, 4, 5, 7, 10), count),
        partial(general_model_margins, cfg, _builtin_families(), count),
        partial(poincare_gap_within_1pct, cfg, (3, 5)),
        partial(hardy_sharp_range_and_monotone, cfg, 3, (25.0, 50.0, 100.0)),
        partial(h_lambda_endpoints_and_shape, cfg, 5),
        partial(iterated_log_margins, cfg, 5,
                seeded_bumps(cfg.seed + 5, count, 0.15, 0.85),
                cfg.get_int("hardy", "iterlog_k"), 2048),
        partial(null_criticality_slope, cfg, 5),
        partial(minimal_growth_ratios_decreasing, cfg, 5),
        partial(iterated_log_optimality_scan, cfg, 5, (1, 2)),
        partial(monotonicity_condition_builtin, cfg, _builtin_families()),
    ]


def _rellich_checks(cfg: ToolkitConfig) -> list:
    r_max = cfg.get_float("rellich", "sharp_r_max")
    return [
        partial(poincare_rellich_margins, cfg, (5, 6, 8, 10), 5),
        partial(sinh_hardy_1d_margins, cfg, 10),
        partial(mode_chain_margins, cfg, 5, range(6)),
        partial(bilaplacian_vs_reduced_form, cfg, (5, 6, 7, 8)),
        partial(one_d_and_euclid_anchors, cfg),
        partial(rellich_sharp_r2, cfg, {5: (1e4, 1e5, r_max), 6: (r_max,)}),
        partial(mapped_rellich_margin_and_equivalence, cfg, 5),
    ]


def _random_tensor_bumps(seed: int, count: int) -> list:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        ylo = rng.uniform(0.3, 0.8)
        yhi = ylo + rng.uniform(0.5, 2.0)
        out.append(euclid.tensor_bump(rng.uniform(0.5, 1.5), ylo, yhi))
    return out


def _euclid_checks(cfg: ToolkitConfig) -> list:
    return [
        partial(ball_identities, cfg, (3, 5, 7)),
        partial(ball_hardy_margin_and_equivalence, cfg, 3),
        partial(halfspace_hardy_margin_and_equivalence, cfg,
                _random_tensor_bumps(cfg.seed + 95, 5)),
        partial(halfspace_laplacian_identity_corrected, cfg, 5, (0.0, 1.5)),
        partial(halfspace_laplacian_identity_literal_fails, cfg, 5, (0.8, 2.5)),
        partial(halfspace_rellich_margins, cfg, 5, [HALFSPACE_BUMP],
                ("y2", "y4", "aux"), 256, 256),
        partial(halfspace_bilaplacian_identity, cfg, 5),
    ]


def _asymptotics_checks(cfg: ToolkitConfig) -> list:
    return [
        partial(asymptotic_constants_exact, cfg),
        partial(two_term_expansion_ratio, cfg, 5),
        partial(s_table_matches_precise, cfg, 5),
        partial(density_correction_within_5pct, cfg, 5),
        partial(s_of_r_monotone_and_flat_at_pole, cfg, 5),
    ]


def residual_report_rows() -> list[str]:
    """Per-sample identity residuals over the fixed 64-point log-spaced
    sample, as CSV rows: identity,family,N,alpha_or_f,r,residual_rel."""
    from .reports import format_value

    rows = []
    r = ss.IDENTITY_SAMPLE
    for man in _builtin_families():
        N = man.N
        for alpha in _warp_alphas(N):
            res = ss.warp_power_identity_residual(man, alpha, r)
            rows += [
                f"warp_power,{man.family},{N},alpha={alpha:g},"
                f"{format_value(rv)},{format_value(e)}"
                for rv, e in zip(r, res)
            ]
        for f in _product_profiles(N):
            res = ss.product_profile_identity_residual(man, f, r)
            rows += [
                f"product_profile,{man.family},{N},f={f.label},"
                f"{format_value(rv)},{format_value(e)}"
                for rv, e in zip(r, res)
            ]
        res = ss.supersolution_equality_residual(man, r)
        rows += [
            f"supersolution_equality,{man.family},{N},f=r^{(2 - N) / 2:g},"
            f"{format_value(rv)},{format_value(e)}"
            for rv, e in zip(r, res)
        ]
    return rows


def run_suite(suite: str, config: ToolkitConfig | None = None,
              command: str = "", workers: int = 1) -> ExperimentManifest:
    """Run one named suite (or all) on the calling thread and return its
    manifest.

    Checks run one after another: a thread pool ran slower than serial,
    because most checks hold the interpreter lock.  workers must be 1; the
    keyword stays so that callers pinning a serial run keep working.

    Exit-code contract: manifest.exit_code is 0 iff every check passed;
    the manifest is produced even when checks fail.
    """
    config = config or ToolkitConfig()
    if suite not in SUITES:
        raise ArgumentError(f"unknown suite {suite!r}; choose from {SUITES}")
    if workers != 1:
        raise ArgumentError(
            f"run_suite runs serially; workers must be 1, got {workers!r}"
        )
    builders = {
        "identities": _identity_checks,
        "hardy": _hardy_checks,
        "rellich": _rellich_checks,
        "euclid": _euclid_checks,
        "asymptotics": _asymptotics_checks,
    }
    names = [s for s in builders] if suite == "all" else [suite]
    checks = [check for name in names for check in builders[name](config)]
    return run_checks(checks, config, command or f"verify --suite {suite}")


def run_checks(checks, config: ToolkitConfig, command: str) -> ExperimentManifest:
    """Run zero-argument checks in order and collect their rows and
    constants into a manifest."""
    start = time.perf_counter()
    rows: list[CheckRow] = []
    constants: list[str] = []
    for check in checks:
        result, found = check()
        rows.append(result)
        constants.extend(found)
    return ExperimentManifest(
        command=command,
        config_text=config.snapshot(),
        seed=config.seed,
        results=rows,
        constants=constants,
        wall_time_s=time.perf_counter() - start,
    )

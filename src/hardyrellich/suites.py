"""Named verification suites behind the CLI: each check is a pure function
returning one report row and the constant CSV rows it estimated; a suite
runs its checks in order on the calling thread, and reports sort rows by
name, so runs are reproducible."""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

from . import euclid, hardy, rellich
from . import manifolds as mf
from . import supersolutions as ss
from .config import ToolkitConfig
from .errors import ArgumentError
from .iterated_log import iterated_log_profile
from .radial import bump, grid_covering, seeded_bumps, bilaplacian_form
from .reports import CheckRow, ExperimentManifest, row

SUITES = ("identities", "hardy", "rellich", "euclid", "asymptotics", "all")


def _builtin_families(N_hardy: int = 5):
    return [mf.hyperbolic(N_hardy), mf.euclidean(N_hardy), mf.superexp(N_hardy, 2.0)]


# ---------------------------------------------------------------------------
# identities


def _identity_checks(cfg: ToolkitConfig) -> list:
    tol = cfg.tolerance("identity_rtol")
    r = ss.IDENTITY_SAMPLE
    checks = []

    def warp(man):
        def run():
            worst = 0.0
            for alpha in (-2.0, -0.5, 1.0, (man.N - 1) / 2.0):
                res = ss.warp_power_identity_residual(man, alpha, r)
                worst = max(worst, float(np.max(res)))
            return row(f"warp_power_identity/{man.describe()}", worst, tol,
                       worst <= tol), []

        return run

    def product(man):
        def run():
            N = man.N
            fs = [ss.power_profile((2.0 - N) / 2.0), ss.power_log_profile(N)]
            worst = max(
                float(np.max(ss.product_profile_identity_residual(man, f, r)))
                for f in fs
            )
            rin = np.geomspace(1e-3, 0.99, 64)
            for k in (1, 2, 3):
                res = ss.product_profile_identity_residual(
                    man, iterated_log_profile(N, k), rin
                )
                worst = max(worst, float(np.max(res)))
            return row(f"product_profile_identity/{man.describe()}", worst, tol,
                       worst <= tol), []

        return run

    def equality(man):
        def run():
            worst = float(np.max(ss.supersolution_equality_residual(man, r)))
            return row(f"supersolution_equality/{man.describe()}", worst, tol,
                       worst <= tol), []

        return run

    for man in _builtin_families():
        checks.append(warp(man))
        checks.append(product(man))
        checks.append(equality(man))

    def ground():
        worst = max(
            float(np.max(ss.ground_state_residual(N, np.array([0.1, 1.0, 10.0]))))
            for N in (3, 5, 8)
        )
        return row("ground_state_residual", worst, 1e-10, worst <= 1e-10), []

    def split():
        bad = sum(
            0 if rellich.verify_euclidean_rellich_split(N)[0] else 1
            for N in range(5, 51)
        )
        return row("euclidean_rellich_split_exact", bad, 0.0, bad == 0), []

    def minima():
        bad = 0
        for N in range(5, 13):
            tab = rellich.mode_table(N, 50)
            if min(t.sinh4_coeff for t in tab) != rellich.min_sinh4_closed_form(N):
                bad += 1
            if min(t.sinh2_coeff for t in tab) != rellich.min_sinh2_closed_form(N):
                bad += 1
            if tab[0].sinh4_coeff != rellich.min_sinh4_closed_form(N):
                bad += 1
        return row("mode_coefficient_minima_exact", bad, 0.0, bad == 0), []

    def joint():
        bad = 0
        for N in range(5, 13):
            total = Fraction(9, 16) + rellich.min_sinh4_closed_form(N)
            if total != Fraction(N * N * (N - 4) ** 2, 16):
                bad += 1
        return row("joint_sharpness_sum_exact", bad, 0.0, bad == 0), []

    def growth_consistency():
        bad = sum(
            0 if rellich.asymptotic_constants(N).consistency_exact else 1
            for N in range(5, 11)
        )
        return row("asymptotic_consistency_exact", bad, 0.0, bad == 0), []

    checks += [ground, split, minima, joint, growth_consistency]
    return checks


# ---------------------------------------------------------------------------
# hardy


def _hardy_checks(cfg: ToolkitConfig) -> list:
    mtol = cfg.tolerance("margin_rtol")
    seed = cfg.seed
    count = cfg.get_int("hardy", "bump_count")
    checks = []

    def margins():
        worst = np.inf
        for N in (3, 4, 5, 7, 10):
            for u in seeded_bumps(seed + N, count, 0.3, 6.0):
                rep = hardy.check_poincare_hardy(u, N, nodes=2048)
                worst = min(worst, rep.margin / abs(rep.lhs))
        return row("poincare_hardy_margins", worst, mtol, worst >= -mtol), []

    def general_margins():
        worst = np.inf
        for man in _builtin_families():
            for u in seeded_bumps(seed + man.N + 17, count, 0.5, 4.0):
                rep = hardy.check_general_model(u, man, nodes=2048)
                worst = min(worst, rep.margin / abs(rep.lhs))
        return row("general_model_margins", worst, mtol, worst >= -mtol), []

    def gap():
        bad = 0.0
        consts = []
        for N in (3, 5):
            est = hardy.poincare_gap(N, M=cfg.get_int("grids", "M"))
            lam = (N - 1) ** 2 / 4.0
            bad = max(bad, abs(est.value - lam) / lam)
            consts.append(est.csv_row("poincare_gap_radial", N))
        return row("poincare_gap_within_1pct", bad, 0.01, bad <= 0.01), consts

    def sharp():
        vals, consts = [], []
        for rmax in (25.0, 50.0, 100.0):
            est = hardy.estimate_sharp_hardy(3, r_max=rmax,
                                             M=cfg.get_int("grids", "M"))
            vals.append(est.value)
            consts.append(est.csv_row("hardy_sharp_radial", 3))
        ok = all(0.249 <= v <= 0.30 for v in vals) and all(
            vals[i + 1] <= vals[i] + 1e-12 for i in range(len(vals) - 1)
        )
        return row("hardy_sharp_range_and_monotone", vals[-1], 0.05, ok), consts

    def sweep():
        N = 5
        curve = hardy.sweep_h_lambda(
            N,
            r_min=cfg.get_float("hardy", "sweep_r_min"),
            r_max=cfg.get_float("hardy", "sweep_r_max"),
            M=cfg.get_int("hardy", "sweep_M"),
        )
        ends_ok = (
            abs(curve.h_values[0] / ((N - 2) ** 2 / 4.0) - 1.0) <= 0.02
            and abs(curve.h_values[-1] / 0.25 - 1.0) <= 0.02
        )
        shape_ok = curve.is_nonincreasing() and curve.midpoint_concavity_defect() <= 1e-6
        return row("h_lambda_endpoints_and_shape", curve.h_values[-1], 0.02,
                   ends_ok and shape_ok), []

    def iterlog_margins():
        worst = np.inf
        kmax = cfg.get_int("hardy", "iterlog_k")
        for u in seeded_bumps(seed + 5, count, 0.15, 0.85):
            for k in range(kmax + 1):
                rep = hardy.check_iterated_log_improvement(u, 5, k, nodes=2048)
                worst = min(worst, rep.margin / abs(rep.lhs))
        return row("iterated_log_margins", worst, mtol, worst >= -mtol), []

    def criticality():
        slope = ss.null_criticality_slope(5)
        return row("null_criticality_slope", slope, 1e-3, abs(slope - 0.25) <= 1e-3), []

    def growth():
        seq0 = [ss.minimal_growth_ratios(5, rs, 10.0)[0] for rs in (1e-3, 1e-6, 1e-9)]
        seq1 = [ss.minimal_growth_ratios(5, 1e-3, rl)[1] for rl in (10.0, 100.0, 1000.0)]
        ok = all(np.diff(seq0) < 0) and all(np.diff(seq1) < 0)
        return row("minimal_growth_ratios_decreasing", seq0[-1], 0.0, ok), []

    def optimality():
        ok = True
        val = np.inf
        for k in (1, 2):
            q = hardy.iterated_log_optimality_scan(5, k)
            val = min(val, min(q))
            ok = ok and all(np.diff(q) <= 1e-12) and min(q) >= 0.25 - 1e-3
        return row("iterated_log_optimality_scan", val, 1e-3, ok), []

    def condition():
        grid = grid_covering((0.5, 20.0), 512)
        ok = all(
            mf.check_monotonicity_condition(man, grid)[0]
            for man in _builtin_families()
        )
        ok = ok and all(
            ss.check_profile_nonincreasing(man, grid) for man in _builtin_families()
        )
        return row("monotonicity_condition_builtin", 0.0 if ok else 1.0, 0.0, ok), []

    checks += [margins, general_margins, gap, sharp, sweep, iterlog_margins,
               criticality, growth, optimality, condition]
    return checks


# ---------------------------------------------------------------------------
# rellich


def _rellich_checks(cfg: ToolkitConfig) -> list:
    mtol = cfg.tolerance("margin_rtol")
    seed = cfg.seed
    checks = []

    def margins():
        worst = np.inf
        for N in (5, 6, 8, 10):
            for u in seeded_bumps(seed + 31 + N, 5, 0.3, 6.0):
                rep = rellich.check_poincare_rellich(u, N, nodes=2048)
                worst = min(worst, rep.margin / abs(rep.lhs))
        return row("poincare_rellich_margins", worst, mtol, worst >= -mtol), []

    def sinh_hardy():
        worst = np.inf
        for u in seeded_bumps(seed + 41, 10, 0.5, 5.0):
            rep = rellich.check_sinh_hardy_1d(u, nodes=2048)
            worst = min(worst, rep.margin / abs(rep.lhs))
        return row("sinh_hardy_1d_margins", worst, mtol, worst >= -mtol), []

    def chain():
        worst = np.inf
        for n in range(6):
            for u in seeded_bumps(seed + 53 + n, 3, 0.4, 4.0):
                d = rellich.reduced_from_radial(u, 5)
                rep = rellich.mode_chain_margin(d, 5, n, nodes=2048)
                worst = min(worst, rep.margin / abs(rep.lhs))
        return row("mode_chain_margins", worst, mtol, worst >= -mtol), []

    def reduction():
        worst = 0.0
        for N in (5, 6, 7, 8):
            man = mf.hyperbolic(N)
            for u in seeded_bumps(seed + 67 + N, 5, 0.4, 5.0):
                grid = grid_covering(u.support, 4096)
                bf = bilaplacian_form(u, man, grid)
                rf = rellich.radial_reduced_form(
                    rellich.reduced_from_radial(u, N), N, 0, grid
                )
                worst = max(worst, abs(bf - rf) / bf)
        return row("bilaplacian_vs_reduced_form", worst, 1e-5, worst <= 1e-5), []

    def anchors():
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

    def sharp_r2():
        vals, consts = [], []
        for rmax in (1e4, 1e5, cfg.get_float("rellich", "sharp_r_max")):
            est = rellich.estimate_sharp_rellich_r2(
                5,
                r_min=cfg.get_float("rellich", "sharp_r_min"),
                r_max=rmax,
                M=cfg.get_int("rellich", "sharp_M"),
            )
            vals.append(est.value)
            consts.append(est.csv_row("rellich_sharp_r2_radial", 5))
        est6 = rellich.estimate_sharp_rellich_r2(6)
        consts.append(est6.csv_row("rellich_sharp_r2_radial", 6))
        ok = (
            all(v >= 2.0 - 1e-2 for v in vals)
            and all(np.diff(vals) <= 1e-10)
            and est6.value >= 25.0 / 8.0 - 1e-2
        )
        return row("rellich_sharp_r2", vals[-1], 1e-2, ok), consts

    def mapped():
        worst = np.inf
        for v in seeded_bumps(seed + 71, 5, 2.0, 6.0):
            rep = rellich.check_mapped_rellich(v, 5, nodes=2048)
            worst = min(worst, rep.margin / abs(rep.lhs))
        u = bump(1.0, 2.0)
        m_rad = rellich.principal_rellich_margin(u, 5, nodes=4096)
        m_map = rellich.check_mapped_rellich(
            rellich.mapped_from_radial(u, 5), 5, nodes=4096
        ).margin
        equiv = abs(m_rad - m_map) / abs(m_rad)
        ok = worst >= -mtol and equiv <= 1e-4
        return row("mapped_rellich_margin_and_equivalence", equiv, 1e-4, ok), []

    checks += [margins, sinh_hardy, chain, reduction, anchors, sharp_r2, mapped]
    return checks


# ---------------------------------------------------------------------------
# euclid


def _euclid_checks(cfg: ToolkitConfig) -> list:
    mtol = cfg.tolerance("margin_rtol")
    seed = cfg.seed
    checks = []

    def identities():
        worst = 0.0
        for N in (3, 5, 7):
            for u in seeded_bumps(seed + 80 + N, 5, 0.4, 3.0):
                for which in ("gradient", "l2", "hardy"):
                    worst = max(worst, euclid.ball_identity_check(u, N, which))
        return row("ball_identities", worst, 1e-6, worst <= 1e-6), []

    def ball_margin():
        worst = np.inf
        for v in seeded_bumps(seed + 90, 10, 0.05, 0.9):
            rep = euclid.check_ball_hardy(v, 3, nodes=2048)
            worst = min(worst, rep.margin / abs(rep.lhs))
        ok = worst >= -mtol
        u = bump(0.8, 1.8)
        vb = euclid.ball_from_radial(u, 3)
        m_ball = euclid.check_ball_hardy(vb, 3, nodes=8192).margin
        m_hyp = euclid.hyperbolic_margin_without_sinh(u, 3, nodes=8192)
        equiv = abs(m_ball - m_hyp) / abs(m_hyp)
        cmp_ok, _ = euclid.boundary_weight_comparison()
        return row("ball_hardy_margin_and_equivalence", equiv, 1e-5,
                   ok and equiv <= 1e-5 and cmp_ok), []

    def halfspace_margin():
        worst = np.inf
        rng = np.random.default_rng(seed + 95)
        for _ in range(5):
            ylo = rng.uniform(0.3, 0.8)
            yhi = ylo + rng.uniform(0.5, 2.0)
            v = euclid.tensor_bump(rng.uniform(0.5, 1.5), ylo, yhi)
            rep = euclid.check_halfspace_hardy(v, 3, nx=256, ny=256)
            worst = min(worst, rep.margin / abs(rep.lhs))
        U = bump(0.5, 1.5)
        vtr = euclid.TransportedRadial(U, 3, alpha=0.5)
        m_t = euclid.check_halfspace_hardy(vtr, 3, nx=768, ny=768).margin
        m_h = euclid.hyperbolic_margin_without_sinh(U, 3, nodes=8192)
        ratio = euclid.sphere_area(3) / euclid.sphere_area(2)
        equiv = abs(m_t - m_h * ratio) / abs(m_h * ratio)
        return row("halfspace_hardy_margin_and_equivalence", equiv, 1e-4,
                   worst >= -mtol and equiv <= 1e-4), []

    def laplacian_identity():
        worst_ok = 0.0
        pts = [(0.7, 2.0), (1.5, 0.8), (0.3, 3.0)]
        for v in euclid.POLYNOMIAL_SUITE:
            for alpha in (0.0, 1.5, (5 - 2) / 2.0):
                for p in pts:
                    worst_ok = max(
                        worst_ok,
                        euclid.halfspace_laplacian_identity_residual(v, alpha, p, 5, True),
                    )
        return row("halfspace_laplacian_identity_corrected", worst_ok, 1e-10,
                   worst_ok <= 1e-10), []

    def laplacian_identity_literal():
        # typo witness: the literal middle-term power must fail somewhere on
        # the suite (alpha != (N-2)/2, where the middle coefficient survives)
        worst = 0.0
        for v in euclid.POLYNOMIAL_SUITE:
            for alpha in (0.8, 2.5):
                for p in [(0.7, 2.0), (1.5, 0.8), (0.3, 3.0)]:
                    worst = max(
                        worst,
                        euclid.halfspace_laplacian_identity_residual(
                            v, alpha, p, 5, corrected=False
                        ),
                    )
        return row("halfspace_laplacian_identity_literal_fails", worst, 1e-6,
                   worst > 1e-6), []

    def halfspace_rellich():
        worst = np.inf
        v = euclid.tensor_bump(1.0, 0.5, 2.0)
        for which in ("y2", "y4"):
            rep = euclid.check_halfspace_rellich(v, 5, which, nx=256, ny=256)
            worst = min(worst, rep.margin / abs(rep.lhs))
        rep = euclid.aux_gradient_inequality(v, 5, nx=256, ny=256)
        worst = min(worst, rep.margin / abs(rep.lhs))
        return row("halfspace_rellich_margins", worst, mtol, worst >= -mtol), []

    def bilap_identity():
        _, _, rel = euclid.halfspace_bilaplacian_identity(bump(0.5, 1.5), 5,
                                                          nx=640, ny=640)
        return row("halfspace_bilaplacian_identity", rel, 1e-4, rel <= 1e-4), []

    checks += [identities, ball_margin, halfspace_margin, laplacian_identity,
               laplacian_identity_literal, halfspace_rellich, bilap_identity]
    return checks


# ---------------------------------------------------------------------------
# asymptotics


def _asymptotics_checks(cfg: ToolkitConfig) -> list:
    checks = []

    def constants_exact():
        c = rellich.asymptotic_constants(5)
        err = abs(c.c1**3 * 12.0 - 1.0)
        ok = (
            err <= 1e-14
            and c.c2_over_c1 == Fraction(8, 9)
            and c.k1_exact == Fraction(-8, 9)
            and c.consistency_exact
        )
        return row("asymptotic_constants_exact", err, 1e-14, ok), []

    def expansion_ratio():
        errs = rellich.two_term_expansion_error_precise(5, [8.0, 12.0])
        ratio = errs[1] / errs[0]
        return row("two_term_expansion_ratio", ratio, 0.5, ratio < 0.5), []

    def table_matches():
        worst = 0.0
        for r in (3.0, 4.0, 5.0):
            a = float(rellich.two_term_expansion_error(5, r))
            b = rellich.two_term_expansion_error_precise(5, [r])[0]
            worst = max(worst, abs(a - b) / b)
        return row("s_table_matches_precise", worst, 1e-3, worst <= 1e-3), []

    def density_fit():
        fits = rellich.density_correction_fit(5, np.array([8.0, 10.0, 12.0]))
        k1 = rellich.asymptotic_constants(5).k1
        worst = float(np.max(np.abs(fits / k1 - 1.0)))
        return row("density_correction_within_5pct", worst, 0.05, worst <= 0.05), []

    def monotone():
        cov = rellich.change_of_variable(5)
        r = np.geomspace(1e-3, 30.0, 64)
        s = cov.s_of_r(r)
        ok = bool(np.all(np.diff(s) > 0)) and abs(cov.s_of_r(1e-3) / 1e-3 - 1.0) < 1e-3
        return row("s_of_r_monotone_and_flat_at_pole", 0.0 if ok else 1.0, 0.0, ok), []

    checks += [constants_exact, expansion_ratio, table_matches, density_fit, monotone]
    return checks


def residual_report_rows() -> list[str]:
    """Per-sample identity residuals over the fixed 64-point log-spaced
    sample, as CSV rows: identity,family,N,alpha_or_f,r,residual_rel."""
    from .reports import format_value

    rows = []
    r = ss.IDENTITY_SAMPLE
    for man in _builtin_families():
        N = man.N
        for alpha in (-2.0, -0.5, 1.0, (N - 1) / 2.0):
            res = ss.warp_power_identity_residual(man, alpha, r)
            rows += [
                f"warp_power,{man.family},{N},alpha={alpha:g},"
                f"{format_value(rv)},{format_value(e)}"
                for rv, e in zip(r, res)
            ]
        for f in (ss.power_profile((2.0 - N) / 2.0), ss.power_log_profile(N)):
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
    checks = []
    for name in names:
        checks.extend(builders[name](config))

    start = time.perf_counter()
    rows: list[CheckRow] = []
    constants: list[str] = []
    for check in checks:
        result, found = check()
        rows.append(result)
        constants.extend(found)
    return ExperimentManifest(
        command=command or f"verify --suite {suite}",
        config_text=config.snapshot(),
        seed=config.seed,
        results=rows,
        constants=constants,
        wall_time_s=time.perf_counter() - start,
    )

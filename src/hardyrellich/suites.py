"""Every verification check, and the named suites that run them.

Each check is a module-level function check(cfg, <inputs>) -> CheckRow:
one report row, which also carries the constants.csv rows the check
estimated and the residuals.csv rows it computed (identity checks only).
The inputs are N values, test functions, node or grid sizes, truncation
radii and the like; tolerances come from cfg.tolerance() or from the
check's own fixed criterion.  A suite binds its checks to the suite's
inputs and runs them in order on the calling thread; the CLI verbs bind the
same checks to their own arguments.  Reports sort results.csv and
constants.csv and keep residuals.csv in run order, so runs are
reproducible."""

from __future__ import annotations

import math
import time
from fractions import Fraction
from functools import partial

import numpy as np

from . import claims, euclid, hardy, quotients, rellich
from . import manifolds as mf
from . import supersolutions as ss
from .config import ToolkitConfig
from .errors import ArgumentError
from .iterated_log import iterated_log_profile
from .radial import bump, grid_covering, seeded_bumps, bilaplacian_form
from .reports import CheckRow, ExperimentManifest, format_value, row

SUITES = ("identities", "hardy", "rellich", "euclid", "asymptotics", "all")

# the fixed half-space test function of the second-order suite check and
# of the half-space CLI verbs
HALFSPACE_BUMP = euclid.tensor_bump(1.0, 0.5, 2.0)
_CONJUGATION_POINTS = [(0.7, 2.0), (1.5, 0.8), (0.3, 3.0)]


def _builtin_families():
    return [mf.hyperbolic(5), mf.euclidean(5), mf.superexp(5, 2.0)]


def _warp_alphas(N: int) -> tuple:
    return (-2.0, -0.5, 1.0, (N - 1) / 2.0)


def _product_profiles(N: int) -> list:
    return [ss.power_profile((2.0 - N) / 2.0), ss.power_log_profile(N)]


def _margin_row(cfg: ToolkitConfig, name: str, reports) -> CheckRow:
    """Worst relative margin, min of margin / |lhs| over the reports,
    judged against [tolerances] margin_rtol.  A non-finite ratio, or a
    report with lhs = 0, fails the row and is its value.  The row also
    carries the largest quad_error / |lhs| of its reports (manifest only),
    NaN when any report's is, as for lhs = 0, wherever that report sits."""
    mtol = cfg.tolerance("margin_rtol")
    reports = list(reports)
    ratios = [rep.margin / abs(rep.lhs) if rep.lhs else math.nan for rep in reports]
    bad = [x for x in ratios if not math.isfinite(x)]
    worst = bad[0] if bad else min(ratios)
    result = row(name, worst, mtol, not bad and worst >= -mtol)
    errors = [rep.quad_error / abs(rep.lhs) if rep.lhs else math.nan for rep in reports]
    result.quad_error_rel = math.nan if any(map(math.isnan, errors)) else max(errors)
    return result


def _count_row(name: str, bad: int) -> CheckRow:
    return row(name, bad, 0.0, bad == 0)


def _identity_row(cfg: ToolkitConfig, name: str, identity: str,
                  man: mf.ModelManifold, sampled, others=()) -> CheckRow:
    """Worst residual of an identity check against [tolerances]
    identity_rtol.  ``sampled`` holds (alpha_or_f, residuals on
    ss.IDENTITY_SAMPLE) pairs, which become the row's residuals.csv rows;
    ``others`` are residual arrays on other radii, judged only."""
    tol = cfg.tolerance("identity_rtol")
    arrays = [res for _, res in sampled] + list(others)
    worst = float(np.max([np.max(res) for res in arrays]))
    residuals = [
        f"{identity},{man.family},{man.N},{tag},{format_value(r)},{format_value(e)}"
        for tag, res in sampled for r, e in zip(ss.IDENTITY_SAMPLE, res)
    ]
    return row(f"{name}/{man.describe()}", worst, tol, worst <= tol, residuals=residuals)


# ---------------------------------------------------------------------------
# checks: each takes the config and its inputs and returns one report row


def warp_power_identity(cfg: ToolkitConfig, man: mf.ModelManifold):
    alphas = _warp_alphas(man.N)
    residuals = ss.warp_power_identity_residual(man, np.array(alphas)[:, None],
                                                ss.IDENTITY_SAMPLE)
    sampled = [(f"alpha={alpha:g}", res) for alpha, res in zip(alphas, residuals)]
    return _identity_row(cfg, "warp_power_identity", "warp_power", man, sampled)


def product_profile_identity(cfg: ToolkitConfig, man: mf.ModelManifold):
    N = man.N
    sampled = [(f"f={f.label}",
                ss.product_profile_identity_residual(man, f, ss.IDENTITY_SAMPLE))
               for f in _product_profiles(N)]
    rin = np.geomspace(1e-3, 0.99, 64)
    inner = [ss.product_profile_identity_residual(man, iterated_log_profile(N, k), rin)
             for k in (1, 2, 3)]
    return _identity_row(cfg, "product_profile_identity", "product_profile", man,
                         sampled, inner)


def supersolution_equality(cfg: ToolkitConfig, man: mf.ModelManifold):
    sampled = [(f"f=r^{(2 - man.N) / 2:g}",
                ss.supersolution_equality_residual(man, ss.IDENTITY_SAMPLE))]
    return _identity_row(cfg, "supersolution_equality", "supersolution_equality", man,
                         sampled)


def ground_state_residual(cfg: ToolkitConfig, Ns):
    worst = max(
        float(np.max(ss.ground_state_residual(N, np.array([0.1, 1.0, 10.0]))))
        for N in Ns
    )
    return row("ground_state_residual", worst, 1e-10, worst <= 1e-10)


def _failed_differences(f, degrees, nonnegative: bool = False) -> int:
    """How many exact forward differences refute that f, a Fraction-valued
    polynomial in N (and a mode n) of degrees (d_N,) or (d_N, d_n), is 0,
    or with nonnegative >= 0, at every integer N >= 5 and n >= 0.

    From f at N = 5..6 + d_N and n = 0..1 + d_n it forms every
    D_jk = Delta_N^j Delta_n^k f(5, 0).  Newton's formula
    f(5 + m, n) = sum D_jk C(m, j) C(n, k) holds for any f of degree at most
    one above the stated one, and every C(m, j) C(n, k) is >= 0: a D_jk with
    j = d_N + 1 or k = d_n + 1 refutes the degree unless it is 0, any
    other D_jk the claim unless it is 0 (>= 0)."""
    shape = tuple(d + 2 for d in degrees)
    D = np.array([f(5 + i[0], *i[1:]) for i in np.ndindex(shape)], dtype=object).reshape(shape)
    for axis, size in enumerate(shape):
        D = np.stack([np.diff(D, j, axis=axis).take(0, axis=axis) for j in range(size)],
                     axis=axis)
    inside = D[tuple(slice(-1) for _ in shape)]
    beyond = np.count_nonzero(D != 0) - np.count_nonzero(inside != 0)
    return beyond + np.count_nonzero(inside < 0 if nonnegative else inside != 0)


def euclidean_rellich_split_exact(cfg: ToolkitConfig):
    """The euclidean Rellich split 9/16 + A_0 = N^2 (N-4)^2/16, with
    A_0 = rellich.min_sinh4_closed_form(N), for every N >= 5: the degree-4
    polynomial 9/16 + A_0 - N^2 (N-4)^2/16, evaluated at N = 5..10, is 0.
    The value counts the differences that refute it."""
    bad = _failed_differences(lambda N: claims.RELLICH_R4 + rellich.min_sinh4_closed_form(N)
                              - claims.euclid_rellich(N), (4,))
    return _count_row("euclidean_rellich_split_exact", bad)


def mode_coefficient_minima_exact(cfg: ToolkitConfig):
    """Every mode n >= 0 has A_n >= A_0 and B_n >= B_0 (A_n, B_n the
    rellich.sinh4_coefficient and sinh2_coefficient), for every N >= 5:
    A_n - A_0 has degrees (3, 4) in (N, n), evaluated at N = 5..9 and
    n = 0..5, and B_n - B_0 degrees (3, 2), at N = 5..9 and n = 0..3, and
    every difference of both is >= 0.  The minima are the closed forms:
    A_0 - min_sinh4_closed_form(N) and B_0 - min_sinh2_closed_form(N) are
    0 as polynomials of degree 4, evaluated at N = 5..10.  The value counts
    the differences that refute either."""
    bad = 0
    for coefficient, closed_form, n_degree in (
            (rellich.sinh4_coefficient, rellich.min_sinh4_closed_form, 4),
            (rellich.sinh2_coefficient, rellich.min_sinh2_closed_form, 2)):
        bad += _failed_differences(lambda N, n: coefficient(n, N) - coefficient(0, N),
                                   (3, n_degree), nonnegative=True)
        bad += _failed_differences(lambda N: coefficient(0, N) - closed_form(N), (4,))
    return _count_row("mode_coefficient_minima_exact", bad)


def joint_sharpness_sum_exact(cfg: ToolkitConfig):
    """The Rellich constants are joint with the Poincare-Hardy ones: with
    g = claims.spectral_gap(N), ||Lap u||^2 - g^2 ||u||^2
    = ||(-Lap - g) u||^2 + 2g (||grad u||^2 - g ||u||^2), and Poincare-Hardy
    bounds the last bracket below by HARDY_R2 int u^2/r^2 + ..., so
    rellich_l2 = g^2 and rellich_r2 = 2 g HARDY_R2 for every N >= 5:
    rellich_l2 - g^2 (degree 4, at N = 5..10) and rellich_r2 - 2 g HARDY_R2
    (degree 2, at N = 5..8) are 0.  The value counts the differences that
    refute either."""
    bad = _failed_differences(lambda N: claims.rellich_l2(N) - claims.spectral_gap(N) ** 2,
                              (4,))
    bad += _failed_differences(
        lambda N: claims.rellich_r2(N) - 2 * claims.spectral_gap(N) * claims.HARDY_R2, (2,))
    return _count_row("joint_sharpness_sum_exact", bad)


def asymptotic_consistency_exact(cfg: ToolkitConfig):
    """k1 - 2 c2/c1 = -4(N-1)/(N+1) (rellich.asymptotic_constants) for every
    N >= 5: (k1 - 2 c2/c1 + 4(N-1)/(N+1)) (N+1)(N-2), a polynomial of degree
    <= 3, evaluated at N = 5..9, is 0.  The value counts the differences
    that refute it."""

    def cleared(N):
        c = rellich.asymptotic_constants(N)
        return ((c.k1_exact - 2 * c.c2_over_c1 + Fraction(4 * (N - 1), N + 1))
                * (N + 1) * (N - 2))

    return _count_row("asymptotic_consistency_exact", _failed_differences(cleared, (3,)))


# Each margin check below evaluates one seeded family of bumps, stacked
# row by row, per call: one grid, one jet and one pass of array work for
# the whole family.


def poincare_hardy_margins(cfg: ToolkitConfig, Ns, count: int):
    reports = (rep for N in Ns for rep in hardy.check_poincare_hardy(
        seeded_bumps(cfg.seed + N, count, 0.3, 6.0), N))
    return _margin_row(cfg, "poincare_hardy_margins", reports)


def general_model_margins(cfg: ToolkitConfig, manifolds, count: int):
    reports = (rep for man in manifolds for rep in hardy.check_general_model(
        seeded_bumps(cfg.seed + man.N + 17, count, 0.5, 4.0), man))
    return _margin_row(cfg, "general_model_margins", reports)


def h_lambda_endpoints_and_shape(cfg: ToolkitConfig, N: int, curve=None):
    """Endpoints and shape of the h(lambda) curve; sweeps it unless the
    caller passes the swept ``curve``."""
    if curve is None:
        curve = quotients.sweep_h_lambda(cfg, N)
    ends_ok = (
        abs(curve.h_values[0] / float(claims.euclid_hardy(N)) - 1.0) <= 0.02
        and abs(curve.h_values[-1] / float(claims.HARDY_R2) - 1.0) <= 0.02
    )
    shape_ok = curve.is_nonincreasing() and curve.midpoint_concavity_defect() <= 1e-6
    return row("h_lambda_endpoints_and_shape", curve.h_values[-1], 0.02,
               ends_ok and shape_ok)


def iterated_log_margins(cfg: ToolkitConfig, N: int, functions, k_max: int):
    """Margins of every series length 0..k_max for the test functions (one
    function or a family), all from one grid and one jet."""
    reports = hardy.check_iterated_log_improvement(functions, N, range(k_max + 1))
    return _margin_row(cfg, "iterated_log_margins", reports)


def null_criticality_slope(cfg: ToolkitConfig, N: int):
    slope = ss.null_criticality_slope(N)
    return row("null_criticality_slope", slope, 1e-3,
               abs(slope - float(claims.HARDY_R2)) <= 1e-3)


def minimal_growth_ratios_decreasing(cfg: ToolkitConfig, N: int):
    seq0 = [ss.minimal_growth_ratios(N, rs, 10.0)[0] for rs in (1e-3, 1e-6, 1e-9)]
    seq1 = [ss.minimal_growth_ratios(N, 1e-3, rl)[1] for rl in (10.0, 100.0, 1000.0)]
    ok = all(np.diff(seq0) < 0) and all(np.diff(seq1) < 0)
    return row("minimal_growth_ratios_decreasing", seq0[-1], 0.0, ok)


def iterated_log_optimality_scan(cfg: ToolkitConfig, N: int, ks):
    ok = True
    val = np.inf
    for k in ks:
        q = hardy.iterated_log_optimality_scan(N, k)
        val = min(val, min(q))
        ok = ok and all(np.diff(q) <= 1e-12) and min(q) >= float(claims.ITERATED_LOG) - 1e-3
    return row("iterated_log_optimality_scan", val, 1e-3, ok)


def monotonicity_condition_builtin(cfg: ToolkitConfig, manifolds):
    grid = grid_covering((0.5, 20.0), 512)
    ok = all(mf.check_monotonicity_condition(man, grid)[0] for man in manifolds)
    ok = ok and all(ss.check_profile_nonincreasing(man, grid) for man in manifolds)
    return row("monotonicity_condition_builtin", 0.0 if ok else 1.0, 0.0, ok)


def poincare_rellich_margins(cfg: ToolkitConfig, Ns, count: int):
    reports = (rep for N in Ns for rep in rellich.check_poincare_rellich(
        seeded_bumps(cfg.seed + 31 + N, count, 0.3, 6.0), N))
    return _margin_row(cfg, "poincare_rellich_margins", reports)


def sinh_hardy_1d_margins(cfg: ToolkitConfig, count: int):
    reports = rellich.check_sinh_hardy_1d(seeded_bumps(cfg.seed + 41, count, 0.5, 5.0))
    return _margin_row(cfg, "sinh_hardy_1d_margins", reports)


def mode_chain_margins(cfg: ToolkitConfig, N: int, modes):
    reports = (rep for n in modes for rep in rellich.mode_chain_margin(
        rellich.reduced_from_radial(seeded_bumps(cfg.seed + 53 + n, 3, 0.4, 4.0), N),
        N, n))
    return _margin_row(cfg, "mode_chain_margins", reports)


def bilaplacian_vs_reduced_form(cfg: ToolkitConfig, Ns):
    """Bilaplacian against mode-0 reduced form, each N's five bumps as one
    stacked family: at 1024 nodes the stacked form took 6.6-7.0 ms against
    13.8-14.3 ms for one bump at a time (medians of 40 alternating calls,
    2-vCPU Xeon, 48 KiB L1d, 2 MiB L2), with the same value."""
    worst = 0.0
    for N in Ns:
        u = seeded_bumps(cfg.seed + 67 + N, 5, 0.4, 5.0)
        grid = grid_covering(u.support, 1024)
        bf = bilaplacian_form(u, mf.hyperbolic(N), grid)
        rf = rellich.radial_reduced_form(rellich.reduced_from_radial(u, N), N, 0, grid)
        worst = max(worst, float(np.max(abs(bf - rf) / bf)))
    return row("bilaplacian_vs_reduced_form", worst, 1e-5, worst <= 1e-5)


def mapped_rellich_margin_and_equivalence(cfg: ToolkitConfig, N: int):
    margins = _margin_row(cfg, "mapped_rellich_margins", rellich.check_mapped_rellich(
        seeded_bumps(cfg.seed + 71, 5, 2.0, 6.0), N))
    u = bump(1.0, 2.0)
    m_rad = rellich.principal_rellich_margin(u, N)
    m_map = rellich.check_mapped_rellich(rellich.mapped_from_radial(u, N), N).margin
    equiv = abs(m_rad - m_map) / abs(m_rad)
    return row("mapped_rellich_margin_and_equivalence", equiv, 1e-4,
               margins.passed and equiv <= 1e-4)


def ball_identities(cfg: ToolkitConfig, Ns):
    worst = max(float(np.max(euclid.ball_identity_check(
        seeded_bumps(cfg.seed + 80 + N, 5, 0.4, 3.0), N))) for N in Ns)
    return row("ball_identities", worst, 1e-6, worst <= 1e-6)


def ball_hardy_margin_and_equivalence(cfg: ToolkitConfig, N: int):
    margins = _margin_row(cfg, "ball_hardy_margins", euclid.check_ball_hardy(
        seeded_bumps(cfg.seed + 90, 10, 0.05, 0.9), N))
    u = bump(0.8, 1.8)
    vb = euclid.ball_from_radial(u, N)
    m_ball = euclid.check_ball_hardy(vb, N).margin
    m_hyp = euclid.hyperbolic_margin_without_sinh(u, N)
    equiv = abs(m_ball - m_hyp) / abs(m_hyp)
    cmp_ok, _ = euclid.boundary_weight_comparison()
    return row("ball_hardy_margin_and_equivalence", equiv, 1e-5,
               margins.passed and equiv <= 1e-5 and cmp_ok)


def halfspace_hardy_margins(cfg: ToolkitConfig, N: int, functions):
    """Half-space Hardy margins on the euclid.TENSOR_GRID grid."""
    reports = (euclid.check_halfspace_hardy(v, N) for v in functions)
    return _margin_row(cfg, "halfspace_hardy_margins", reports)


def halfspace_hardy_margin_and_equivalence(cfg: ToolkitConfig, functions):
    """N = 3 half-space Hardy margins, and the transported radial margin
    (on its polar rule, euclid.TRANSPORTED_RULE) against the hyperbolic
    one times the sphere-area ratio."""
    margins = halfspace_hardy_margins(cfg, 3, functions)
    U = bump(0.5, 1.5)
    vtr = euclid.TransportedRadial(U, 3, alpha=0.5)
    m_t = euclid.check_halfspace_hardy(vtr, 3, *euclid.TRANSPORTED_RULE).margin
    m_h = euclid.hyperbolic_margin_without_sinh(U, 3)
    ratio = euclid.sphere_area(3) / euclid.sphere_area(2)
    equiv = abs(m_t - m_h * ratio) / abs(m_h * ratio)
    return row("halfspace_hardy_margin_and_equivalence", equiv, 1e-10,
               margins.passed and equiv <= 1e-10)


def halfspace_laplacian_identity_corrected(cfg: ToolkitConfig, N: int, alphas):
    worst = max(
        euclid.halfspace_laplacian_identity_residual(v, alpha, p, N, corrected=True)
        for v in euclid.POLYNOMIAL_SUITE for alpha in alphas for p in _CONJUGATION_POINTS
    )
    return row("halfspace_laplacian_identity_corrected", worst, 1e-10,
               worst <= 1e-10)


def halfspace_laplacian_identity_literal_fails(cfg: ToolkitConfig, N: int, alphas):
    """Typo witness: the literal middle-term power must fail somewhere on
    the suite (alpha != (N-2)/2, where the middle coefficient survives)."""
    worst = max(
        euclid.halfspace_laplacian_identity_residual(v, alpha, p, N, corrected=False)
        for v in euclid.POLYNOMIAL_SUITE for alpha in alphas for p in _CONJUGATION_POINTS
    )
    return row("halfspace_laplacian_identity_literal_fails", worst, 1e-6,
               worst > 1e-6)


def halfspace_rellich_margins(cfg: ToolkitConfig, N: int, functions, forms):
    """Second-order half-space margins on the euclid.TENSOR_GRID grid; each
    form is "y2", "y4" or "aux" (the auxiliary weighted-gradient bound)."""
    reports = (
        euclid.aux_gradient_inequality(v, N) if form == "aux"
        else euclid.check_halfspace_rellich(v, N, form)
        for v in functions for form in forms
    )
    return _margin_row(cfg, "halfspace_rellich_margins", reports)


def halfspace_bilaplacian_identity(cfg: ToolkitConfig, N: int):
    _, _, rel = euclid.halfspace_bilaplacian_identity(bump(0.5, 1.5), N)
    return row("halfspace_bilaplacian_identity", rel, 1e-10, rel <= 1e-10)


def asymptotic_constants_exact(cfg: ToolkitConfig):
    c = rellich.asymptotic_constants(5)
    err = abs(c.c1**3 * 12.0 - 1.0)
    ok = (
        err <= 1e-14
        and c.c2_over_c1 == Fraction(8, 9)
        and c.k1_exact == Fraction(-8, 9)
    )
    return row("asymptotic_constants_exact", err, 1e-14, ok)


def two_term_expansion_ratio(cfg: ToolkitConfig, N: int):
    errs = rellich.two_term_expansion_error_precise(N, [8.0, 12.0])
    ratio = errs[1] / errs[0]
    return row("two_term_expansion_ratio", ratio, 0.5, ratio < 0.5)


def s_table_matches_precise(cfg: ToolkitConfig, N: int):
    """The float expansion error against the mpmath one at r = 3, 4, 5,
    where it is still above the float rounding floor: the same closed form
    for s(r) (rellich._log_tail) in both arithmetics.  The name, from an
    earlier tabulated s(r), stays: results.csv rows are keyed by it."""
    radii = (3.0, 4.0, 5.0)
    worst = 0.0
    for r, b in zip(radii, rellich.two_term_expansion_error_precise(N, radii)):
        a = float(rellich.two_term_expansion_error(N, r))
        worst = max(worst, abs(a - b) / b)
    return row("s_table_matches_precise", worst, 1e-3, worst <= 1e-3)


def density_correction_within_5pct(cfg: ToolkitConfig, N: int):
    fits = rellich.density_correction_fit(N, np.array([8.0, 10.0, 12.0]))
    k1 = rellich.asymptotic_constants(N).k1
    worst = float(np.max(np.abs(fits / k1 - 1.0)))
    return row("density_correction_within_5pct", worst, 0.05, worst <= 0.05)


def s_of_r_monotone_and_flat_at_pole(cfg: ToolkitConfig, N: int):
    s = rellich.s_of_r(N, np.geomspace(1e-3, 30.0, 64))
    ok = bool(np.all(np.diff(s) > 0)) and abs(rellich.s_of_r(N, 1e-3) / 1e-3 - 1.0) < 1e-3
    return row("s_of_r_monotone_and_flat_at_pole", 0.0 if ok else 1.0, 0.0, ok)


# ---------------------------------------------------------------------------
# sharp constants: one row kind for every truncated estimate of a claim


# the one_d_and_euclid_anchors row, each anchor on its own truncation
ANCHOR_RUNS = (("euclid_rellich_radial", 5, (None,)), ("one_d_hardy", 1, (None,)),
               ("one_d_rellich", 1, (None,)))


def truncation_law(limit: float, value: float, r_max: float, r_next: float) -> float:
    """The estimate at r_max = r_next predicted from its value at r_max by
    the law v = c + 4 pi^2 c / log^2(r_max / r0), c = limit (exact for
    sharp Hardy at N = 3, c = 1/4 and r0 = r_min): log(r_max / r0) is
    solved from value, then moved on by log(r_next / r_max).  A value at
    or below the limit, or r_next below r0, predicts value itself."""
    rate = 4.0 * math.pi**2 * limit
    if value <= limit:
        return value
    L = math.sqrt(rate / (value - limit)) + math.log(r_next / r_max)
    return limit + rate / L**2 if L > 0.0 else value


def sharp_constants(cfg: ToolkitConfig, name: str, runs) -> CheckRow:
    """One row for the (quotients.QUOTIENTS name, N, r_maxes) runs: each
    run estimates one claim c on widening truncations (None: the entry's
    own), each warm-started by truncation_law.  An estimate v with the
    budget e = max(|v_M - v_(M/2)|, 1e-8 max(1, |v|)), the solver's tol,
    passes when
      - v >= c - e: truncation only raises an infimum, so an estimate
        below the claim (an indefinite numerator, say) refutes it;
      - |v - exact| <= e where the claim has an exact truncated value,
        else v <= c + allowance where it has an allowance;
      - v <= the previous truncation's value + e.
    The row's value is the last estimate of the first run, its tolerance
    that estimate's budget."""
    ok, consts, first = True, [], None
    for key, N, r_maxes in runs:
        q = quotients.QUOTIENTS[key]
        c, last = float(q.claim(N)), None
        for r_max in r_maxes:
            near = None if last is None else truncation_law(c, last.value, last.r_max, r_max)
            est = quotients.estimate(key, N, cfg, r_max=r_max, near=near)
            (_, coarse), (_, v) = est.history[-2:]
            e = max(abs(v - coarse), 1e-8 * max(1.0, abs(v)))
            x = q.exact(N, c, est) if q.exact else None
            cap = q.allowance(c) if q.allowance else math.inf
            window = abs(v - x) <= e if x is not None else v <= c + cap
            ok = ok and v >= c - e and window and (last is None or v <= last.value + e)
            consts.append(est.csv_row(key, N))
            last = est
        first = first or (v, e)
    return row(name, *first, ok, constants=consts)


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
        partial(euclidean_rellich_split_exact, cfg),
        partial(mode_coefficient_minima_exact, cfg),
        partial(joint_sharpness_sum_exact, cfg),
        partial(asymptotic_consistency_exact, cfg),
    ]


def _hardy_checks(cfg: ToolkitConfig) -> list:
    count = cfg.get_int("hardy", "bump_count")
    return [
        partial(poincare_hardy_margins, cfg, (3, 4, 5, 7, 10), count),
        partial(general_model_margins, cfg, _builtin_families(), count),
        partial(sharp_constants, cfg, "poincare_gap_within_1pct",
                [("poincare_gap_radial", N, (None,)) for N in (3, 5)]),
        partial(sharp_constants, cfg, "hardy_sharp_range_and_monotone",
                [("hardy_sharp_radial", 3, (25.0, 50.0, 100.0))]),
        partial(h_lambda_endpoints_and_shape, cfg, 5),
        partial(iterated_log_margins, cfg, 5,
                seeded_bumps(cfg.seed + 5, count, 0.15, 0.85),
                cfg.get_int("hardy", "iterlog_k")),
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
        partial(sharp_constants, cfg, "one_d_and_euclid_anchors", ANCHOR_RUNS),
        partial(sharp_constants, cfg, "rellich_sharp_r2",
                [("rellich_sharp_r2_radial", 5, (1e4, 1e5, r_max)),
                 ("rellich_sharp_r2_radial", 6, (r_max,))]),
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
        partial(halfspace_rellich_margins, cfg, 5, [HALFSPACE_BUMP], ("y2", "y4", "aux")),
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
    built = [(name, check) for name in names for check in builders[name](config)]
    return run_checks([check for _, check in built], config,
                      command or f"verify --suite {suite}",
                      suite_names=[name for name, _ in built])


def run_checks(checks, config: ToolkitConfig, command: str,
               suite_names=None) -> ExperimentManifest:
    """Run zero-argument checks in order and collect their rows and wall
    times into a manifest.  ``suite_names`` names the suite of
    each check, in order, for the manifest's per-suite totals; without it
    every check counts under ``command``."""
    start = time.perf_counter()
    rows: list[CheckRow] = []
    seconds: list[tuple[str, str, float]] = []
    for check, group in zip(checks, suite_names or [command] * len(checks)):
        began = time.perf_counter()
        result = check()
        seconds.append((result.name, group, time.perf_counter() - began))
        rows.append(result)
    return ExperimentManifest(
        command=command,
        config_text=config.snapshot(),
        seed=config.seed,
        results=rows,
        wall_time_s=time.perf_counter() - start,
        check_seconds=seconds,
    )

import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from hardyrellich import manifolds as mf
from hardyrellich import pencils, quotients, rellich, suites
from hardyrellich.config import default_config
from hardyrellich.errors import DomainError, NumericError, SupportError
from hardyrellich.radial import (
    RadialFunction,
    bilaplacian_form,
    bump,
    grid_covering,
    make_grid,
    seeded_bumps,
    weighted_l2,
)

CFG = default_config()


def test_mode_eigenvalues():
    assert rellich.mode_eigenvalue(0, 7) == 0
    assert rellich.mode_eigenvalue(1, 5) == 4
    assert rellich.mode_eigenvalue(2, 5) == 10


def test_mode_multiplicities():
    assert rellich.mode_multiplicity(0, 7) == 1
    assert rellich.mode_multiplicity(1, 7) == 7
    assert rellich.mode_multiplicity(2, 5) == 14  # C(6,2) - C(4,0)


def test_coefficients_exact_values():
    assert rellich.sinh4_coefficient(0, 5) == 1
    assert rellich.sinh2_coefficient(0, 5) == 12
    assert rellich.sinh4_coefficient(1, 5) == 27
    with pytest.raises(DomainError):
        rellich.sinh4_coefficient(0, 4)


def test_coefficient_minima_exact_rational():
    for N in range(5, 13):
        tab = rellich.mode_table(N, 50)
        a_min = min(t.sinh4_coeff for t in tab)
        b_min = min(t.sinh2_coeff for t in tab)
        assert a_min == rellich.min_sinh4_closed_form(N)
        assert b_min == rellich.min_sinh2_closed_form(N)
        # both minima attained at n = 0
        assert tab[0].sinh4_coeff == a_min and tab[0].sinh2_coeff == b_min
        assert all(t.sinh4_coeff > 0 and t.sinh2_coeff > 0 for t in tab)


def test_euclidean_rellich_split():
    holds, in_range = rellich.verify_euclidean_rellich_split(5)
    assert holds and in_range
    assert 9 + 16 == 25  # N = 5 numerics of the same statement
    holds, in_range = rellich.verify_euclidean_rellich_split(4)
    assert holds and not in_range  # algebraic identity outside the hypothesis
    assert all(rellich.verify_euclidean_rellich_split(N)[0] for N in range(5, 51))
    assert rellich.verify_euclidean_rellich_split(6)[0]
    assert 9 + 15 * 9 == 144 == 36 * 4


def test_joint_sharpness_sum():
    for N in range(5, 13):
        assert Fraction(9, 16) + rellich.min_sinh4_closed_form(N) == Fraction(
            N * N * (N - 4) ** 2, 16
        )


def test_sinh_hardy_1d_margins():
    rep = rellich.check_sinh_hardy_1d(bump(1.0, 3.0))
    assert rep.margin > 0
    zero = RadialFunction(lambda r, order: (np.zeros_like(np.asarray(r, float)),) * (order + 1),
                          support=(1.0, 3.0))
    assert rellich.check_sinh_hardy_1d(zero).margin == 0.0


def test_sinh_hardy_1d_proof_substitution():
    # u = sinh(r) * w, the substitution used to prove the bound, stays valid
    w = bump(1.0, 3.0)

    def jet(r, order):
        w0, w1, w2 = w.jet(r, 2)
        sh, ch = np.sinh(r), np.cosh(r)
        return (sh * w0, ch * w0 + sh * w1, sh * w0 + 2 * ch * w1 + sh * w2)[:order + 1]

    u = RadialFunction(jet, support=w.support, label="sinh*bump")
    assert rellich.check_sinh_hardy_1d(u).margin >= 0


def test_reduced_form_matches_bilaplacian():
    worst = 0.0
    for N in (5, 6, 7, 8):
        man = mf.hyperbolic(N)
        for u in seeded_bumps(100 + N, 5, 0.4, 5.0):
            grid = grid_covering(u.support, 4096)
            bf = bilaplacian_form(u, man, grid)
            rf = rellich.radial_reduced_form(
                rellich.reduced_from_radial(u, N), N, 0, grid
            )
            worst = max(worst, abs(bf - rf) / bf)
    assert worst <= 1e-5


def test_reduced_form_zero_and_support_guard():
    zero = RadialFunction(lambda r, order: (np.zeros_like(np.asarray(r, float)),) * (order + 1),
                          support=(1.0, 2.0))
    grid = grid_covering((1.0, 2.0), 256)
    assert rellich.radial_reduced_form(zero, 5, 0, grid) == 0.0
    wide = RadialFunction(zero.jet_fn, support=(0.0, np.inf))
    with pytest.raises(SupportError):
        rellich.radial_reduced_form(wide, 5, 0, grid)


def test_reduced_form_mode_difference_oracle():
    # the n = 1 form differs from n = 0 by the lambda_1 cross terms
    u = bump(0.8, 2.5)
    d = rellich.reduced_from_radial(u, 5)
    grid = grid_covering(u.support, 4096)
    r, w = grid.nodes, grid.quad_weights
    f0 = rellich.radial_reduced_form(d, 5, 0, grid)
    f1 = rellich.radial_reduced_form(d, 5, 1, grid)
    lam1 = rellich.mode_eigenvalue(1, 5)
    s2 = 1.0 / np.sinh(r) ** 2  # r <= 2.6, independent of the code under test
    base = d.jet(r, 2)[2] - (2.0 / np.tanh(r) ** 2 + 2.0) * d(r)
    extra = float(np.dot(w, -2 * lam1 * s2 * d(r) * base + lam1**2 * s2**2 * d(r) ** 2))
    assert (f1 - f0) == pytest.approx(extra, rel=1e-10)


def test_mode_chain_margins():
    for n in range(6):
        d = rellich.reduced_from_radial(bump(0.8, 2.5), 5)
        rep = rellich.mode_chain_margin(d, 5, n)
        assert rep.margin > 0


@pytest.mark.parametrize("N", [5, 6, 8])
def test_reduced_and_radial_statements_are_one_inequality(N):
    # the mode-0 chain of d = sinh^((N-1)/2) u and the radial check of u
    # sum the same inequality on the same grid, the L^2 term on either side
    u = seeded_bumps(11 + N, 4, 0.3, 6.0)
    chain = rellich.mode_chain_margin(rellich.reduced_from_radial(u, N), N, 0)
    radial = rellich.check_poincare_rellich(u, N)
    for c, r in zip(chain, radial, strict=True):
        assert abs(c.margin - r.margin) <= 1e-13 * abs(r.lhs)


def test_one_sinh4_coefficient_feeds_both_rellich_margins(monkeypatch):
    # the radial check and the mode chain read A_n from sinh4_coefficient
    # when they run (their mode-0 value is min_sinh4_closed_form), so a
    # change to it moves both right sides
    u = bump(1.0, 2.5)
    d = rellich.reduced_from_radial(u, 5)
    before = (rellich.check_poincare_rellich(u, 5).rhs, rellich.mode_chain_margin(d, 5, 0).rhs)
    A = rellich.sinh4_coefficient
    monkeypatch.setattr(rellich, "sinh4_coefficient", lambda n, N: A(n, N) + 1)
    after = (rellich.check_poincare_rellich(u, 5).rhs, rellich.mode_chain_margin(d, 5, 0).rhs)
    assert after[0] > before[0] and after[1] > before[1]


def test_poincare_rellich_margins():
    for support in ((1.0, 2.0), (10.0, 11.0)):
        rep = rellich.check_poincare_rellich(bump(*support), 5)
        assert rep.margin > 0
    with pytest.raises(DomainError):
        rellich.check_poincare_rellich(bump(1.0, 2.0), 4)


def test_poincare_rellich_small_ball_euclidean_weight():
    # near the pole the right side approaches the euclidean Rellich weight
    u = bump(0.01, 0.02)
    rep = rellich.check_poincare_rellich(u, 5)
    assert rep.margin > 0
    man = mf.hyperbolic(5)
    g = grid_covering(u.support, 4096)
    euclid_weight = 25.0 / 16.0 * weighted_l2(u, lambda rr: 1.0 / rr**4, man, g)
    assert rep.rhs == pytest.approx(euclid_weight, rel=5e-3)


def test_poincare_rellich_seeded_margins():
    worst = np.inf
    for N in (5, 6, 8, 10):
        for u in seeded_bumps(31 + N, 10, 0.3, 6.0):
            rep = rellich.check_poincare_rellich(u, N, nodes=2048)
            worst = min(worst, rep.margin / abs(rep.lhs))
    assert worst >= -1e-8


def test_estimate_sharp_rellich_r2():
    vals = []
    for rmax in (1e4, 1e5, 1e6):
        est = quotients.estimate("rellich_sharp_r2_radial", 5, CFG, r_max=rmax, M=4096)
        vals.append(est.value)
        assert est.value >= 2.0 - 1e-2
    assert vals[2] <= vals[1] <= vals[0]
    assert 2.0 - 1e-2 <= vals[2] <= 2.6
    est6 = rellich.estimate_sharp_rellich_r2(6, M=4096)
    assert est6.value >= 25.0 / 8.0 - 1e-2


def test_sharp_r2_next_truncation_follows_the_law():
    # on the law v = c + 4 pi^2 c / L^2 the prediction is exact: for the
    # r^-2 limits c = (N-1)^2/8, N = 5, 6, and for c = 1/4, where it is
    # the sharp Hardy law 1/4 + pi^2/log^2(r_max/r_min) at N = 3
    for limit in (2.0, 3.125, 0.25):
        rate = 4.0 * np.pi**2 * limit
        L1 = np.log(1e4 / 0.37)
        v1 = limit + rate / L1**2
        v2 = limit + rate / (L1 + np.log(10.0)) ** 2
        assert suites.truncation_law(limit, v1, 1e4, 1e5) == pytest.approx(v2, rel=1e-14)
        # at or below the limit, and below r0, the value predicts itself
        assert suites.truncation_law(limit, limit, 1e4, 1e5) == limit
        assert suites.truncation_law(limit, v1, 1e4, 0.3) == v1


def test_sharp_r2_next_truncation_is_a_close_warm_start():
    # the previous truncation's value is 13% off the next one; the law's
    # prediction is within 1e-3
    v4, v5 = (quotients.estimate("rellich_sharp_r2_radial", 5, CFG, r_max=r_max, M=2048).value
              for r_max in (1e4, 1e5))
    assert abs(v4 - v5) > 0.1 * v5
    assert suites.truncation_law(2.0, v4, 1e4, 1e5) == pytest.approx(v5, rel=1e-3)


def test_one_d_anchors():
    h = quotients.estimate("one_d_hardy", 1, CFG, M=4096)
    assert abs(h.value - 0.25) <= 1e-2
    # lowering r_min widens the log window: the estimate cannot increase
    q = quotients.QUOTIENTS["one_d_hardy"]
    wide = make_grid(1e-12, h.r_max, 4096, "geometric")
    h_wide = pencils.min_generalized_eigenvalue(
        pencils.assemble_pencil(q.manifold(1), q.V(1), q.W, wide, q.order))
    assert h_wide.value <= h.value
    r = quotients.estimate("one_d_rellich", 1, CFG, M=4096)
    assert abs(r.value - 9.0 / 16.0) <= 1e-2
    e = quotients.estimate("euclid_rellich_radial", 5, CFG, M=4096)
    assert abs(e.value - 25.0 / 16.0) <= 5e-2


def test_anchors_read_their_exact_truncated_values():
    # the 1-D Hardy anchor's truncated value is 1/4 + pi^2/L^2 exactly; the
    # two Rellich anchors are scale-invariant, so x = e^t turns each into
    # D^4 + (2k - 4) D^2 + k^2 - mu on [0, L], L = log(r_max/r_min), with
    # k = 3/4 - (N-1)(N-3)/4, clamped at both ends; the references are the
    # first root of its 4x4 determinant, computed with mpmath
    hardy_1d = 0.25 + math.pi**2 / math.log(1e10 / 1e-10) ** 2
    anchor = lambda name, N: quotients.estimate(name, N, CFG).value  # noqa: E731
    assert abs(anchor("one_d_hardy", 1) / hardy_1d - 1.0) <= 1e-7
    assert abs(anchor("euclid_rellich_radial", 5) / 1.6013347064 - 1.0) <= 3e-5
    assert abs(anchor("one_d_rellich", 1) / 0.5709735046 - 1.0) <= 5e-6


def test_asymptotic_constants_exact():
    c = rellich.asymptotic_constants(5)
    assert c.c1 == pytest.approx((1.0 / 12.0) ** (1.0 / 3.0), rel=1e-15)
    assert c.c2_over_c1 == Fraction(8, 9)
    assert c.k1_exact == Fraction(-8, 9)
    assert c.k1_exact - 2 * c.c2_over_c1 == Fraction(-8, 3)
    for N in range(5, 13):
        c = rellich.asymptotic_constants(N)
        assert c.k1_exact - 2 * c.c2_over_c1 == Fraction(-4 * (N - 1), N + 1)


def test_s_of_r_small_radius_against_quad_oracle():
    # independent oracle: the substituted integral int_0^{e^-r} y^3 (1-y^2)^-4 dy
    N = 5
    r0 = 1e-3
    I = quad(lambda y: y ** (N - 2) * (1 - y * y) ** (-(N - 1)),
             0.0, np.exp(-r0), limit=200)[0]
    s_oracle = (2 ** (N - 1) * (N - 2) * I) ** (-1.0 / (N - 2))
    assert rellich.s_of_r(N, r0) == pytest.approx(s_oracle, rel=1e-6)
    assert rellich.s_of_r(N, r0) / r0 == pytest.approx(1.0, abs=1e-3)


def test_s_of_r_growth_and_monotonicity():
    c = rellich.asymptotic_constants(5)
    dev = abs(rellich.s_of_r(5, 10.0) / (c.c1 * np.exp(40.0 / 3.0)) - 1.0)
    assert dev < 1e-8  # deviation is O(e^{-2r})
    r = np.geomspace(1e-3, 150.0, 256)
    assert np.all(np.diff(rellich.s_of_r(5, r)) > 0)
    assert rellich.s_of_r(5, 50.0) == pytest.approx(c.c1 * np.exp(50.0 * 4.0 / 3.0), rel=1e-8)


def test_r_of_s_roundtrip_and_range():
    r = np.array([0.5, 1.5, 3.0, 20.0])
    s = rellich.s_of_r(5, r)
    assert np.max(np.abs(rellich.r_of_s(5, s) - r) / r) < 1e-14
    # the map has no upper bound: s = 1e30 inverts, close to log(s/c1)/mu
    assert rellich.r_of_s(5, 1e30) == pytest.approx(52.4294, abs=1e-4)
    assert rellich.s_of_r(5, rellich.r_of_s(5, 1e30)) == pytest.approx(1e30, rel=1e-14)
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(DomainError):
            rellich.r_of_s(5, bad)
    with pytest.raises(DomainError):
        rellich.s_of_r(5, np.array([1.0, 0.0]))


# an independent oracle for s(r): I(r) = int_r^oo (2 sinh x)^(1-N) dx is,
# with t = e^-r, the incomplete beta integral
#   t^(N-1) / (N-1) 2F1(N-1, (N-1)/2; (N+1)/2; t^2)
_ORACLE_RADII = np.concatenate([np.geomspace(1e-6, 150.0, 40), [0.88137358701954, 0.8813735870196]])


def _s_oracle(N, r):
    import mpmath

    mp = mpmath.MPContext()
    mp.dps = 40
    t = mp.exp(-mp.mpf(r))
    tail = t ** (N - 1) / (N - 1) * mp.hyp2f1(N - 1, mp.mpf(N - 1) / 2, mp.mpf(N + 1) / 2, t * t)
    return float((2 ** (N - 1) * (N - 2) * tail) ** (-mp.mpf(1) / (N - 2)))


@pytest.mark.parametrize("N", [5, 8, 19, 20, 50])
def test_s_of_r_matches_an_independent_series(N):
    # both branches (sinh r < 1 and above, the two radii astride the
    # switch) from the pole to r = 150, where e^(-(N-1) r) underflows for
    # every N here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = rellich.s_of_r(N, _ORACLE_RADII)
    oracle = np.array([_s_oracle(N, r) for r in _ORACLE_RADII])
    assert np.max(np.abs(s / oracle - 1.0)) <= 1e-13


@pytest.mark.parametrize("N", [5, 8, 19, 20, 50])
def test_r_of_s_round_trip_over_the_range(N):
    r = np.geomspace(1e-6, 150.0, 301)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = rellich.r_of_s(N, rellich.s_of_r(N, r))
    assert np.max(np.abs(back / r - 1.0)) <= 1e-14


def test_two_term_expansion_ratio_precise():
    errs = rellich.two_term_expansion_error_precise(5, [8.0, 12.0])
    assert errs[1] < 0.5 * errs[0]
    # the float map agrees with the precise series while above the noise floor
    for r in (3.0, 4.0, 5.0):
        a = float(rellich.two_term_expansion_error(5, r))
        b = rellich.two_term_expansion_error_precise(5, [r])[0]
        assert a == pytest.approx(b, rel=1e-3)


def test_precise_series_matches_higher_precision():
    # the suite's radii at the default 50 digits against 80 digits, and
    # r = 0.05, on the reduction branch of rellich._log_tail, against the
    # same closed form in floats
    radii = [3.0, 4.0, 5.0, 8.0, 12.0]
    assert rellich.two_term_expansion_error_precise(5, radii) == pytest.approx(
        rellich.two_term_expansion_error_precise(5, radii, dps=80), rel=1e-15)
    precise = rellich.two_term_expansion_error_precise(5, [0.05])[0]
    assert precise == pytest.approx(
        rellich.two_term_expansion_error_precise(5, [0.05], dps=80)[0], rel=1e-15)
    assert precise == pytest.approx(float(rellich.two_term_expansion_error(5, 0.05)),
                                    rel=1e-12)


def test_precise_series_names_the_radius_it_cannot_sum(monkeypatch):
    # r = 0.05 (sinh r < 1) takes the reduction and sums no series; r = 3
    # needs more series terms than a lowered cap allows, in mpmath and in
    # floats alike
    monkeypatch.setattr(rellich, "TAIL_SERIES_CAP", 10)
    rellich.two_term_expansion_error_precise(5, [0.05])
    with pytest.raises(NumericError, match="tail series at r = 3 needs more than 10 terms"):
        rellich.two_term_expansion_error_precise(5, [0.05, 3.0])
    with pytest.raises(NumericError, match="tail series at r = 3 needs more than 10 terms"):
        rellich.s_of_r(5, np.array([0.05, 3.0, 4.0]))
    with pytest.raises(DomainError, match="r = 0"):
        rellich.two_term_expansion_error_precise(5, [0.0])


def test_precise_expansion_error_thread_safe():
    # every call must keep its own working precision while other threads
    # run the same function at another one
    jobs = [(dps, [8.0, 12.0]) for dps in (15, 30, 50, 70)]
    serial = [rellich.two_term_expansion_error_precise(5, r, dps) for dps, r in jobs]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [
                pool.submit(rellich.two_term_expansion_error_precise, 5, r, dps)
                for dps, r in jobs * 3
            ]
            threaded = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(old)
    assert threaded == serial * 3


def test_density_correction_fit():
    # formed in 50 digits, the fits approach k1 = -8/9 as e^(-2r) does:
    # 3.1e-8 at r = 8 (floats read 1.8e-4 of rounding at r = 12)
    fits = rellich.density_correction_fit(5, np.array([8.0, 10.0, 12.0]))
    k1 = rellich.asymptotic_constants(5).k1
    err = np.abs(fits / k1 - 1.0)
    assert err[0] <= 1e-7 and np.all(np.diff(err) < 0)


def test_mapped_rellich_margin_and_equivalence():
    rep = rellich.check_mapped_rellich(bump(2.0, 5.0), 5)
    assert rep.margin > 0
    zero = RadialFunction(lambda s, order: (np.zeros_like(np.asarray(s, float)),) * (order + 1),
                          support=(2.0, 5.0))
    assert rellich.check_mapped_rellich(zero, 5).margin == 0.0
    u = bump(1.0, 2.0)
    m_rad = rellich.principal_rellich_margin(u, 5, nodes=8192)
    m_map = rellich.check_mapped_rellich(
        rellich.mapped_from_radial(u, 5), 5, nodes=8192
    ).margin
    assert abs(m_rad - m_map) / abs(m_rad) <= 1e-4


def test_mapped_profile_inverts_once_per_jet(monkeypatch):
    # the jet matches the chain rule written out on one inversion r(s),
    # with r'(s) = exp(-log ds/dr), bit for bit, and inverts once per
    # call; a mapped margin inverts once for the profile's jet and once for
    # the density, with no state kept between the two
    N = 5
    u = bump(1.0, 2.0)
    v = rellich.mapped_from_radial(u, N)
    s = grid_covering(v.support, 512).nodes
    r = rellich.r_of_s(N, s)
    rp = np.exp(-rellich.log_ds_dr(N, r, s))
    rpp = (N - 1) * rp * (rp / np.tanh(r) - 1.0 / s)
    u0, u1, u2 = u.jet(r, 2)
    written_out = (u0, u1 * rp, u2 * rp * rp + u1 * rpp)
    for order in (0, 1, 2):
        jet = v.jet(s, order)
        assert len(jet) == order + 1
        assert all(np.array_equal(a, b) for a, b in zip(jet, written_out))

    calls = []
    invert = rellich.r_of_s
    monkeypatch.setattr(rellich, "r_of_s", lambda N, s: calls.append(1) or invert(N, s))
    v.jet(s, 2)
    assert len(calls) == 1
    rellich.check_mapped_rellich(v, N, nodes=256)
    assert len(calls) == 3


def test_mapped_rellich_on_far_and_near_supports():
    # supports far out (s up to 4e28) and near the pole map whole, onto
    # s(support), with positive margins
    for u in (bump(30.0, 50.0), bump(5e-5, 1e-3)):
        v = rellich.mapped_from_radial(u, 5)
        assert v.support == (rellich.s_of_r(5, u.support[0]), rellich.s_of_r(5, u.support[1]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rellich.check_mapped_rellich(v, 5).margin > 0


def test_r_of_s_is_newton_in_log_r_written_out():
    # reference, node by node: the documented start, then Newton steps in
    # log r on log s(r) with the slope r s'(r)/s written out with log sinh,
    # stopping one step after the residual is within 1e-9
    N, mu = 5, 4.0 / 3.0
    c1 = rellich.asymptotic_constants(N).c1
    log_sinh = mf.hyperbolic(N).log_psi

    def newton(s):
        r = s if s <= c1 else min(s, math.log(s / c1) / mu)
        for _ in range(8):
            f = math.log(rellich.s_of_r(N, r)) - math.log(s)
            slope = math.exp(math.log(r) + (N - 2) * (f + math.log(s)) - (N - 1) * log_sinh(r))
            r = math.exp(math.log(r) - f / slope)
            if abs(f) <= 1e-9:
                return r
        raise AssertionError(f"no convergence at s = {s}")

    s = np.geomspace(1e-6, 1e30, 301)
    got = rellich.r_of_s(N, s)
    assert np.max(np.abs(got / np.array([newton(x) for x in s]) - 1.0)) <= 1e-14
    # each node steps on its own residual: a node alone inverts to the same bits
    assert np.array_equal(rellich.r_of_s(N, s), got)
    assert all(rellich.r_of_s(N, float(x)) == y for x, y in zip(s[::10], got[::10]))

    # the mapped profile's r'(s), read from log_ds_dr, keeps the bits of
    # the density written out with log sinh
    line = RadialFunction(lambda r, order: (r, np.ones_like(r), np.zeros_like(r))[:order + 1],
                          support=(0.5, 2.0))
    rp = rellich.mapped_from_radial(line, 5).jet(s, 1)[1]
    assert np.array_equal(rp, np.exp(4 * (log_sinh(got) - np.log(s))))


def test_r_of_s_raises_when_newton_fails(monkeypatch):
    s = rellich.s_of_r(5, np.array([0.5, 2.0]))
    # a forward map rough at the 1e-6 level: no residual gets below 1e-9
    rough = rellich._log_s_minus_r
    monkeypatch.setattr(rellich, "_log_s_minus_r",
                        lambda N, r, m, eps: rough(N, r, m, eps) + 1e-6 * np.cos(1e9 * r))
    with pytest.raises(NumericError, match=r"did not converge in 8 Newton steps at s = "):
        rellich.r_of_s(5, s)


def test_mode_coefficients_from_integers_match_the_rational_sums():
    for N in range(5, 13):
        for n in range(51):
            lam = rellich.mode_eigenvalue(n, N)
            a = (Fraction(lam) ** 2 + Fraction(N * (N - 4), 2) * lam
                 + Fraction(((N - 1) * (N - 3)) ** 2, 16) - Fraction(3 * (N - 1) * (N - 3), 8))
            b = (Fraction((N + 1) * (N - 3), 2) * lam + Fraction((N - 1) ** 2 * (N - 3), 4)
                 + Fraction(((N - 1) * (N - 3)) ** 2, 8) - Fraction((N - 1) * (N - 3), 2))
            assert rellich.sinh4_coefficient(n, N) == a
            assert rellich.sinh2_coefficient(n, N) == b

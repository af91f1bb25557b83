import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from hardyrellich import manifolds as mf
from hardyrellich import radial
from hardyrellich.errors import (
    ArgumentError,
    CapabilityError,
    EvaluationError,
    SupportError,
)


def test_make_grid_uniform_example():
    g = radial.make_grid(1.0, 2.0, 3, "uniform")
    assert np.allclose(g.nodes, [1.25, 1.5, 1.75])


def test_make_grid_geometric_split():
    # ends symmetric in log r: half the nodes lie below 1
    g = radial.make_grid(1e-6, 1e6, 2048, "geometric")
    assert np.count_nonzero(g.nodes < 1.0) == 1024
    assert np.all(np.diff(g.nodes) > 0)
    assert g.nodes[0] > 1e-6 and g.nodes[-1] < 1e6


def test_make_grid_geometric():
    g = radial.make_grid(1e-4, 1e4, 64, "geometric")
    ratios = g.nodes[1:] / g.nodes[:-1]
    assert np.allclose(ratios, ratios[0])


def test_wide_geometric_grid_forms_no_unused_closure_correction():
    # the last cell of a geometric grid is wider than the gap before it,
    # so it is closed with a constant; the linear correction d^2/(2h) that
    # it does not use would overflow at r_max = 1e160 (a RuntimeWarning,
    # an error under this suite's warning filter)
    g = radial.make_grid(1e-6, 1e160, 8192, "geometric")
    assert np.all(np.isfinite(g.quad_weights)) and np.all(g.quad_weights > 0)
    half_gap = (g.nodes[-1] - g.nodes[-2]) / 2.0
    assert g.quad_weights[-1] == half_gap + (1e160 - g.nodes[-1])


def test_make_grid_argument_errors():
    with pytest.raises(ArgumentError):
        radial.make_grid(2.0, 1.0, 100, "uniform")
    with pytest.raises(ArgumentError):
        radial.make_grid(0.0, 1.0, 100, "uniform")
    with pytest.raises(ArgumentError):
        radial.make_grid(1.0, 2.0, 2, "uniform")
    with pytest.raises(ArgumentError):
        radial.make_grid(1.0, 2.0, 64, "chebyshev")
    with pytest.raises(ArgumentError):
        radial.make_grid(1.0, 2.0, 64, "log_graded")


def test_quadrature_exact_for_linear():
    # the end-closure makes interior-node trapezoid exact on degree <= 1
    g = radial.make_grid(1.0, 2.0, 1024, "uniform")
    assert abs(np.dot(g.quad_weights, g.nodes) - 1.5) / 1.5 < 1e-12
    assert abs(np.sum(g.quad_weights) - 1.0) < 1e-12


def test_quadrature_degree_two():
    g = radial.make_grid(1.0, 2.0, 8192, "uniform")
    assert abs(np.dot(g.quad_weights, g.nodes**2) - 7.0 / 3.0) / (7.0 / 3.0) < 1e-8


def test_quadrature_weights_positive():
    for grading in radial.GRADINGS:
        g = radial.make_grid(1e-4, 10.0, 512, grading)
        assert np.all(g.quad_weights > 0)


def test_integrate_weighted_polynomial():
    man = mf.euclidean(3)
    g = radial.make_grid(0.001, 1.0, 4096, "uniform")
    val = radial.integrate_weighted(lambda r: np.ones_like(r), 1.0, man, g)
    assert abs(val - 1.0 / 3.0) / (1.0 / 3.0) < 1e-6


def test_integrate_weighted_ground_state_mass():
    # v_+^2 * (4r^2)^-1 * sinh^(N-1) collapses to 1/(4r): mass over
    # [e^-k, 1] is k/4, the logarithmic divergence of the critical weight
    from hardyrellich.supersolutions import ground_state

    man = mf.hyperbolic(3)
    k = 8.0
    g = radial.make_grid(float(np.exp(-k)), 1.0, 4096, "geometric")
    val = radial.integrate_weighted(
        lambda r: ground_state(3, r) ** 2, lambda r: 0.25 / r**2, man, g
    )
    assert val == pytest.approx(k / 4.0, abs=1e-4)


def test_integrate_weighted_zero():
    man = mf.hyperbolic(4)
    g = radial.make_grid(0.5, 2.0, 64, "uniform")
    assert radial.integrate_weighted(lambda r: np.zeros_like(r), 7.0, man, g) == 0.0


def test_integrate_weighted_nonfinite_names_node():
    man = mf.euclidean(3)
    g = radial.make_grid(0.5, 2.0, 64, "uniform")
    bad_at = g.nodes[5]
    with np.errstate(divide="ignore"):
        with pytest.raises(EvaluationError, match="node 5"):
            radial.integrate_weighted(
                lambda r: np.ones_like(r), lambda r: 1.0 / (r - bad_at), man, g
            )


def test_bump_smoothness_and_support():
    u = radial.bump(1.0, 2.0)
    r = np.linspace(0.9, 2.1, 400)
    assert np.all(u(r) >= 0.0) and np.max(u(r)) == pytest.approx(1.0)
    assert np.all(u(np.array([0.99, 2.01])) == 0.0)
    h = 1e-5
    # the glue is C^inf, so the central differences match across the joins
    # (r = 1.5) and the support ends too
    rr = np.linspace(0.9, 2.1, 121)
    fd1 = (u(rr + h) - u(rr - h)) / (2 * h)
    fd2 = (u(rr + h) - 2 * u(rr) + u(rr - h)) / h**2
    _, d1, d2 = u.jet(rr, 2)
    assert np.max(np.abs(d1 - fd1)) < 1e-6
    assert np.max(np.abs(d2 - fd2)) < 1e-4


def test_plateau_cutoff_smoothness_and_support():
    # 1 on [0, delta], 0 from 2 delta on, and the ramp's derivatives carry
    # the 1/(-delta)^k of its argument (b - r)/delta
    c = radial.plateau_cutoff(0.25)
    assert c.support == (0.0, 0.5)
    assert np.all(c(np.array([0.0, 0.1, 0.25])) == 1.0)
    assert np.all(c(np.array([0.5, 0.6])) == 0.0)
    h = 1e-5
    rr = np.linspace(0.05, 0.55, 101)
    fd1 = (c(rr + h) - c(rr - h)) / (2 * h)
    fd2 = (c(rr + h) - 2 * c(rr) + c(rr - h)) / h**2
    _, d1, d2 = c.jet(rr, 2)
    assert np.max(np.abs(d1 - fd1)) < 1e-6
    assert np.max(np.abs(d2 - fd2)) < 1e-4


def test_seeded_bumps_reproducible():
    a = radial.seeded_bumps(11, 4, 0.5, 3.0)
    b = radial.seeded_bumps(11, 4, 0.5, 3.0)
    assert [u.support for u in a] == [u.support for u in b]
    for u in a:
        assert 0.5 <= u.support[0] < u.support[1] <= 3.0


def test_dirichlet_form_against_adaptive_oracle():
    u = radial.bump(1.0, 2.0)
    man = mf.euclidean(3)
    g = radial.grid_covering(u.support, 4096)
    mine = radial.dirichlet_form(u, man, g)
    oracle = quad(lambda r: float(u.jet(np.array([r]), 1)[1][0]) ** 2 * r**2,
                  1.0, 2.0, limit=200)[0]
    assert abs(mine - oracle) / oracle < 1e-6


def test_dirichlet_form_rejects_noncompact():
    const = radial.RadialFunction(
        lambda r, order: (np.ones_like(r),) + (np.zeros_like(r),) * order,
        support=(0.0, np.inf),
    )
    man = mf.hyperbolic(3)
    g = radial.make_grid(0.5, 2.0, 64, "uniform")
    with pytest.raises(SupportError):
        radial.dirichlet_form(const, man, g)


def test_dirichlet_form_poincare_bound():
    u = radial.bump(1.0, 2.0)
    man = mf.hyperbolic(3)
    g = radial.grid_covering(u.support, 4096)
    dirichlet = radial.dirichlet_form(u, man, g)
    l2 = radial.weighted_l2(u, 1.0, man, g)
    assert dirichlet >= (3 - 1) ** 2 / 4.0 * l2


def test_bilaplacian_form_against_adaptive_oracle():
    u = radial.bump(1.0, 2.0)
    man = mf.euclidean(5)
    g = radial.grid_covering(u.support, 4096)
    mine = radial.bilaplacian_form(u, man, g)

    def integrand(r):
        _, d1, d2 = (float(part[0]) for part in u.jet(np.array([r]), 2))
        return (d2 + 4.0 * d1 / r) ** 2 * r**4

    oracle = quad(integrand, 1.0, 2.0, limit=200)[0]
    assert abs(mine - oracle) / oracle < 1e-6


def test_bilaplacian_form_zero_function():
    zero = radial.RadialFunction(lambda r, order: (np.zeros_like(r),) * (order + 1),
                                 support=(1.0, 2.0))
    man = mf.hyperbolic(5)
    g = radial.make_grid(0.5, 3.0, 128, "uniform")
    assert radial.bilaplacian_form(zero, man, g) == 0.0


def test_bilaplacian_needs_second_derivative():
    u = radial.bump(1.0, 2.0)
    crippled = radial.RadialFunction(u.jet_fn, max_order=1, support=u.support)
    man = mf.hyperbolic(5)
    g = radial.grid_covering(u.support, 128)
    with pytest.raises(CapabilityError):
        radial.bilaplacian_form(crippled, man, g)


def _ramp_closed_form(t):
    """s(t) = (1 + tanh z)/2, z = tan(pi (t - 1/2)), with s' and s'' as the
    chain rule gives them, through numpy's tanh and cosh: s' = sech^2(z) z'/2
    and s'' = sech^2(z) z' (pi z - tanh(z) z'), z' = pi (1 + z^2)."""
    z = np.tan(np.pi * (t - 0.5))
    dz = np.pi * (1.0 + z * z)
    with np.errstate(over="ignore"):  # cosh overflows to inf near the ends
        sech2 = 1.0 / np.cosh(z) ** 2
    return (0.5 * (1.0 + np.tanh(z)), 0.5 * sech2 * dz,
            sech2 * dz * (np.pi * z - np.tanh(z) * dz))


def _piecewise_bump(a, b, rise, fall):
    """Reference bump: each piece of the rise, plateau and fall gathered and
    evaluated on its own nodes from the ramp's closed form."""
    m1, m2 = a + rise, b - fall

    def piece(r, k, plateau):
        out = np.zeros_like(r)
        sel = (r > a) & (r < m1)
        out[sel] = _ramp_closed_form((r[sel] - a) / rise)[k] / rise**k
        out[(r >= m1) & (r <= m2)] = plateau
        sel = (r > m2) & (r < b)
        out[sel] = _ramp_closed_form((b - r[sel]) / fall)[k] / (-fall) ** k
        return out

    return [lambda r, k=k: piece(r, k, 1.0 if k == 0 else 0.0) for k in range(3)]


@pytest.mark.parametrize("a, b, rise, fall", [
    (0.2, 0.8, None, None),
    (0.5, 1.5, None, None),
    (1.0, 2.0, 0.3, 0.2),
    (0.0, 1.0, 0.5, 0.5),
    (0.37, 2.11, 0.41, 0.77),
])
def test_bump_matches_piecewise_formula(a, b, rise, fall):
    u = radial.bump(a, b, rise, fall)
    rise = (b - a) / 2.0 if rise is None else rise
    fall = (b - a) / 2.0 if fall is None else fall
    m1, m2 = a + rise, b - fall
    r = np.concatenate([np.linspace(a - 0.3, b + 0.3, 20001), [a, b, m1, m2]])
    flat = ((r >= m1) & (r <= m2)) | (r <= a) | (r >= b)
    for g, ref in zip(u.jet(r, 2), _piecewise_bump(a, b, rise, fall)):
        e = ref(r)
        assert np.array_equal(g[flat], e[flat])
        # the two forms of tanh and sech^2 differ by rounding, relative to
        # each derivative's scale (s'' changes sign inside each ramp)
        assert np.all(np.abs(g - e) <= 1e-14 * np.max(np.abs(e)))


def test_ramp_ends_are_exact_and_finite():
    # tan(pi (t - 1/2)) is finite at t = 0 and 1, so no value overflows and
    # the ends come out exactly; the tiniest steps inside stay finite too
    # (a RuntimeWarning would fail the test)
    s, s1, s2 = radial._ramp_jet(np.array([0.0, 1.0]), 2)
    assert s.tolist() == [0.0, 1.0]
    assert s1.tolist() == [0.0, 0.0] and s2.tolist() == [0.0, 0.0]
    for part in radial._ramp_jet(np.array([5e-324, 1.0 - 2.0**-53]), 2):
        assert np.all(np.isfinite(part))
    assert radial._ramp_jet(np.array([0.5]), 2)[1][0] == pytest.approx(np.pi / 2)


def _ramp_exp_everywhere(t, order):
    """The ramp's jet as _ramp_jet forms it, with exp taken at every node."""
    z = np.tan(np.pi * (t - 0.5))
    e = np.exp(-2.0 * np.abs(z))
    one_e = 1.0 + e
    sech2 = 4.0 * e / (one_e * one_e)
    dz = np.pi * (1.0 + z * z)
    tanh = np.copysign((1.0 - e) / one_e, z)
    return (np.where(z < 0.0, e, 1.0) / one_e, 0.5 * sech2 * dz,
            sech2 * dz * (np.pi * z - tanh * dz))[:order + 1]


def test_ramp_skips_exp_only_where_it_underflows_to_zero():
    # exp(-2|z|) is exactly 0 beyond |z| = 372.57, so the jet that skips
    # exp there is the one that takes it everywhere, bit for bit, signed zeros included: at
    # the ends, on a fine grid, and on both sides of the cut at |z| = 373
    z = np.concatenate([np.linspace(372.0, 374.0, 401), [372.57, 372.58, 373.0]])
    near_cut = 0.5 + np.arctan(np.concatenate([z, -z])) / np.pi
    for t in (np.array([0.0, 1.0]), np.linspace(0.0, 1.0, 100_001), near_cut,
              np.array([np.nan, 0.5])):
        with np.errstate(invalid="ignore"):
            for order in (0, 1, 2):
                got, want = radial._ramp_jet(t, order), _ramp_exp_everywhere(t, order)
                assert len(got) == order + 1
                for g, w in zip(got, want):
                    assert g.tobytes() == w.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 1.0))
def test_ramp_is_symmetric(t):
    # s(1 - t) = 1 - s(t), up to the rounding of 1 - t (|s'| <= pi/2)
    s_t = radial._ramp_jet(np.array([t]), 0)[0][0]
    s_flip = radial._ramp_jet(np.array([1.0 - t]), 0)[0][0]
    assert abs(s_flip - (1.0 - s_t)) <= 1e-15


def test_bump_plateau_is_exact():
    # r = 0.5 is the rise's end knot of bump(0.2, 0.8), yet (r - a) / rise
    # rounds below 1 there, where s' is not exactly 0
    u = radial.bump(0.2, 0.8)
    assert 0.2 + (0.8 - 0.2) / 2.0 == 0.5
    assert (0.5 - 0.2) / ((0.8 - 0.2) / 2.0) < 1.0
    r = np.array([0.5])
    assert all(part[0] == value for part, value in zip(u.jet(r, 2), (1.0, 0.0, 0.0)))
    outside = np.array([0.2, 0.8, -1.0, 3.0])
    for part in u.jet(outside, 2):
        assert np.all(part == 0.0)


def _jet_cases():
    """Each constructor of a RadialFunction with sample points inside its
    domain."""
    from hardyrellich import euclid, iterated_log, rellich
    from hardyrellich import supersolutions as ss

    man = mf.hyperbolic(5)
    wide = np.linspace(-0.3, 2.4, 2001)
    unit = np.linspace(1e-3, 1.0, 501)
    positive = ss.IDENTITY_SAMPLE
    mapped = rellich.mapped_from_radial(radial.bump(1.0, 2.0), 5)
    return {
        "bump": lambda: (radial.bump(0.37, 2.11, 0.41, 0.77), wide),
        "plateau_cutoff": lambda: (radial.plateau_cutoff(0.5), wide),
        "iterated_log_profile": lambda: (iterated_log.iterated_log_profile(5, 2), unit),
        "comparison_profile": lambda: (ss.comparison_profile(man), positive),
        "power_profile": lambda: (ss.power_profile(-1.5), positive),
        "power_log_profile": lambda: (ss.power_log_profile(5), positive),
        "reduced_from_radial": lambda: (
            rellich.reduced_from_radial(radial.bump(0.5, 2.0), 5), wide[wide > 0.0]),
        "ball_from_radial": lambda: (
            euclid.ball_from_radial(radial.bump(0.5, 2.0), 5), unit[unit < 1.0]),
        "mapped_from_radial": lambda: (
            mapped, radial.grid_covering(mapped.support, 512).nodes),
    }


@pytest.mark.parametrize("case", list(_jet_cases()))
def test_jet_matches_separate_calls(case):
    # every constructor passes one jet: each shorter jet is a bitwise
    # prefix of a longer one, u(r) is the order-0 jet, and an order beyond
    # the stated one raises
    u, r = _jet_cases()[case]()
    assert u.max_order == (1 if case == "ball_from_radial" else 2)
    jets = [u.jet(r, order) for order in range(u.max_order + 1)]
    for order, jet in enumerate(jets):
        assert len(jet) == order + 1
        assert all(np.all(np.isfinite(part)) for part in jet)
        assert all(np.array_equal(a, b) for a, b in zip(jet, jets[-1]))
    assert np.array_equal(u(r), jets[0][0])
    with pytest.raises(CapabilityError):
        u.jet(r, u.max_order + 1)


def subgrid_sum(grid, vals):
    """The end-closed trapezoid sum over the grid nodes of even index,
    written out: the trapezoid between those nodes, and each boundary cell
    of width d next to a node value f with neighbour g at distance h (d <=
    h) closed by linear extrapolation, d f + d^2 / (2h) (f - g)."""
    s, f = grid.nodes[::2], vals[::2]
    total = np.sum(np.diff(s) * (f[1:] + f[:-1]) / 2.0)
    for end, inner, d in ((0, 1, s[0] - grid.r_min), (-1, -2, grid.r_max - s[-1])):
        h = abs(s[inner] - s[end])
        assert d <= h * (1.0 + 1e-12)
        total += d * f[end] + d * d / (2.0 * h) * (f[end] - f[inner])
    return total


def _reference_sums(u, grid, weight, measure, drift, zeroth):
    # each integral written out as a raw trapezoid dot product of separately
    # evaluated value, first and second derivative, and as the subgrid sum
    r, w = grid.nodes, grid.quad_weights
    uu, du, *d2 = u.jet(r, u.max_order)
    vals = {"v2": uu * uu * weight * measure, "grad2": du * du * weight * measure}
    if d2:
        lap = d2[0] + drift * du - zeroth * uu
        vals["lap2"] = lap * lap * weight * measure
    return {q: (np.dot(w, v), subgrid_sum(grid, v)) for q, v in vals.items()}


def _cut_iterated_log_profile():
    # nonzero at both ends of its support: the subgrid sum's end closures
    # and the grid's end weights see values, not the zeros of a bump
    from hardyrellich.iterated_log import iterated_log_profile

    return radial.RadialFunction(iterated_log_profile(5, 2).jet_fn, support=(0.02, 0.5))


def _sums_cases():
    from hardyrellich.euclid import ball_from_radial
    from hardyrellich.rellich import mapped_from_radial, reduced_from_radial

    return {
        "bump": lambda: radial.bump(0.6, 2.3, 0.4, 0.9),
        "cut_iterated_log_profile": _cut_iterated_log_profile,
        "reduced_from_radial": lambda: reduced_from_radial(radial.bump(0.5, 2.0), 5),
        "ball_from_radial": lambda: ball_from_radial(radial.bump(0.5, 2.0), 5),
        "mapped_from_radial": lambda: mapped_from_radial(radial.bump(1.0, 2.0), 5),
    }


@pytest.mark.parametrize("case", list(_sums_cases()))
def test_radial_sums_match_written_out_sums(case):
    u = _sums_cases()[case]()
    grid = radial.grid_covering(u.support, 1024)
    r = grid.nodes
    weight, measure = 1.0 + 1.0 / r**2, r**4
    drift, zeroth = 4.0 / r, 1.0 + 0.5 * r
    ref = _reference_sums(u, grid, weight, measure, drift, zeroth)
    qs = list(ref)
    for n in range(1, len(qs) + 1):  # each highest derivative order, terms reversed
        some = qs[:n][::-1]
        got = radial.radial_sums(u, grid, [(q, weight) for q in some], measure,
                                 drift=drift, zeroth=zeroth)
        for q, (value, sub) in zip(some, got):
            assert value > 0.0 and value == pytest.approx(ref[q][0], rel=1e-14, abs=0.0), q
            assert sub == pytest.approx(ref[q][1], rel=1e-13, abs=0.0), q
    if u.max_order < 2:  # ball_from_radial has first derivatives only
        with pytest.raises(CapabilityError):
            radial.radial_sums(u, grid, [("lap2", 1.0)], measure)


def _nan_on(u, lo, hi):
    """u with NaN value, slope and curvature on [lo, hi]."""
    def jet(r, order):
        r = np.asarray(r, dtype=float)
        return tuple(np.where((r >= lo) & (r <= hi), np.nan, part)
                     for part in u.jet(r, order))

    return radial.RadialFunction(jet, u.max_order, support=u.support, label="nan")


def _nan_checks():
    from hardyrellich import euclid, rellich

    def reduced(u):
        return rellich.reduced_from_radial(u, 5)

    return {
        "sinh_hardy_1d": lambda: rellich.check_sinh_hardy_1d(
            _nan_on(radial.bump(1.0, 2.0), 1.4, 1.6), nodes=256),
        "mode_chain": lambda: rellich.mode_chain_margin(
            _nan_on(reduced(radial.bump(1.0, 2.0)), 1.4, 1.6), 5, 1, nodes=256),
        "mapped_rellich": lambda: rellich.check_mapped_rellich(
            _nan_on(radial.bump(2.0, 5.0), 3.0, 3.5), 5, nodes=256),
        "ball_identity": lambda: euclid.ball_identity_check(
            _nan_on(radial.bump(1.0, 2.0), 1.4, 1.6), 5, nodes=256),
        "ball_hardy": lambda: euclid.check_ball_hardy(
            _nan_on(radial.bump(0.2, 0.6), 0.35, 0.45), 3, nodes=256),
        "halfspace_bilaplacian": lambda: euclid.halfspace_bilaplacian_identity(
            _nan_on(radial.bump(0.5, 1.5), 0.9, 1.1), 5, nodes=256),
    }


@pytest.mark.parametrize("check", list(_nan_checks()))
def test_nan_profile_names_its_radius(check):
    # these checks summed raw dot products, which turned a NaN profile
    # value into a NaN margin
    with pytest.raises(EvaluationError, match=r"non-finite at node \d+ \(r = "):
        _nan_checks()[check]()


# ---------------------------------------------------------------------------
# families: k test functions stacked row by row


def _families():
    from hardyrellich.euclid import ball_from_radial
    from hardyrellich.rellich import reduced_from_radial

    return {
        "bump": lambda: radial.seeded_bumps(5, 6, 0.4, 3.0),
        "reduced_from_radial": lambda: reduced_from_radial(
            radial.seeded_bumps(5, 6, 0.4, 3.0), 5),
        "ball_from_radial": lambda: ball_from_radial(radial.seeded_bumps(5, 6, 0.4, 3.0), 5),
    }


@pytest.mark.parametrize("case", list(_families()))
def test_family_rows_are_its_members(case):
    # iterating a family yields single functions whose jets are the
    # family's rows bit for bit; a single function is a family of one
    family = _families()[case]()
    members = list(family)
    assert len(members) == 6 and all(not m.members for m in members)
    assert family.labels == [m.label for m in members]
    grid = radial.grid_covering(family.support, 256)
    for order in range(family.max_order + 1):
        rows = family.jet(grid.nodes, order)
        for j, m in enumerate(members):
            assert (m.support[0], m.support[1]) == (family.support[0][j, 0],
                                                    family.support[1][j, 0])
            for row, part in zip(rows, m.jet(grid.nodes[j], order)):
                assert np.array_equal(row[j], part)
    single = members[0]
    assert list(single) == [single] and single.labels == [single.label]


def test_seeded_bumps_keep_their_draws():
    # bump k takes four consecutive draws of the seeded stream
    rng = np.random.default_rng(42)
    family = radial.seeded_bumps(42, 7, 0.3, 6.0)
    for k, u in enumerate(family):
        a = rng.uniform(0.3, 6.0 - 0.3)
        b = rng.uniform(a + 0.3, 6.0)
        rise = rng.uniform(0.2, 0.5) * (b - a)
        fall = rng.uniform(0.2, 0.5) * (b - a)
        ref = radial.bump(a, b, rise, fall)
        assert u.support == (a, b) and u.label == f"bump(seed=42,k={k})"
        r = np.linspace(a - 0.1, b + 0.1, 501)
        assert all(np.array_equal(x, y) for x, y in zip(u.jet(r, 2), ref.jet(r, 2)))


def test_stacked_grid_rows_are_single_grids():
    family = radial.seeded_bumps(9, 5, 0.3, 6.0)
    for grading in radial.GRADINGS:
        lo, hi = family.support[0] * 0.1, family.support[1] + 2.0
        grid = radial.make_grid(lo, hi, 257, grading)
        assert grid.nodes.shape == (5, 257) and grid.M == 257
        for j in range(5):
            row = radial.make_grid(float(lo[j, 0]), float(hi[j, 0]), 257, grading)
            assert np.array_equal(grid.nodes[j], row.nodes)
            assert np.array_equal(grid.quad_weights[j], row.quad_weights)
            assert np.array_equal(grid.sub_weights[j], row.sub_weights)


@pytest.mark.parametrize("case", list(_families()))
def test_stacked_sums_match_each_member(case):
    # row j of a family's sums on the stacked grid equals member j's sums
    # on its own grid
    family = _families()[case]()
    terms = [("grad2", 1.0), ("v2", "r^-2")]
    if family.max_order == 2:
        terms.append(("lap2", "r^-2"))

    def sums(u, grid):
        r = grid.nodes
        weights = [(q, 1.0 / r**2 if w == "r^-2" else w) for q, w in terms]
        return radial.radial_sums(u, grid, weights, r**3, drift=2.0 / r, zeroth=0.5)

    grid = radial.grid_covering(family.support, 512)
    stacked = sums(family, grid)
    assert stacked.shape == (len(terms), 6, 2)
    for j, m in enumerate(family):
        alone = sums(m, radial.grid_covering(m.support, 512))
        assert stacked[:, j] == pytest.approx(alone, rel=1e-15, abs=0.0)


def test_nan_in_a_row_names_its_label_and_radius():
    family = radial.seeded_bumps(3, 5, 0.4, 3.0)
    grid = radial.grid_covering(family.support, 128)
    j, i = 3, 70
    hit = np.zeros(grid.nodes.shape, dtype=bool)
    hit[j, i] = True

    def jet(r, order):
        value, *rest = family.jet(r, order)
        return (np.where(hit, np.nan, value), *rest)

    planted = radial.RadialFunction(jet, support=family.support,
                                    members=family.members)
    label = family.labels[j]
    with pytest.raises(EvaluationError, match=rf"of {re.escape(label)} is non-finite "
                       rf"at node {i} \(r = {grid.nodes[j, i]:.6g}\)"):
        radial.radial_sums(planted, grid, [("grad2", 1.0), ("v2", 1.0)], 1.0)


def test_support_outside_a_row_names_its_label():
    family = radial.seeded_bumps(3, 5, 0.4, 3.0)
    grid = radial.grid_covering(family.support, 64)
    lo = np.array(grid.r_min, copy=True)
    lo[2, 0] = family.support[0][2, 0] + 1e-3  # row 2 starts inside its bump
    narrow = radial.make_grid(lo, grid.r_max, 64)
    with pytest.raises(SupportError, match=re.escape(family.labels[2])):
        radial.radial_sums(family, narrow, [("v2", 1.0)], 1.0)


def _margin_checks():
    """One single-function check of each 1-D margin kind."""
    from hardyrellich import euclid, hardy, rellich

    return {
        "poincare_hardy": lambda: hardy.check_poincare_hardy(radial.bump(1.0, 2.5), 5, 512),
        "general_model": lambda: hardy.check_general_model(
            radial.bump(1.0, 2.5), mf.superexp(5, 2.0), 512),
        "iterated_log": lambda: hardy.check_iterated_log_improvement(
            radial.bump(0.2, 0.8), 5, 2, 512),
        "poincare_rellich": lambda: rellich.check_poincare_rellich(radial.bump(1.0, 2.5), 5, 512),
        "sinh_hardy_1d": lambda: rellich.check_sinh_hardy_1d(radial.bump(0.5, 2.0), 512),
        "mode_chain": lambda: rellich.mode_chain_margin(
            rellich.reduced_from_radial(radial.bump(0.5, 2.0), 5), 5, 2, 512),
        "mapped_rellich": lambda: rellich.check_mapped_rellich(
            rellich.mapped_from_radial(radial.bump(1.0, 2.0), 5), 5, 512),
        "ball_hardy": lambda: euclid.check_ball_hardy(radial.bump(0.2, 0.6), 3, 512),
    }


@pytest.mark.parametrize("kind", list(_margin_checks()))
def test_quad_error_is_the_margin_change_on_the_subgrid(kind, monkeypatch):
    # the same check with every integral summed by the written-out rules:
    # its margin is the grid margin and its quad_error the change of the
    # margin on the every-other-node subgrid (which every margin reads)
    report = _margin_checks()[kind]()
    monkeypatch.setattr(radial, "_integrate",
                        lambda vals, grid, what, labels=None, subgrid=True: np.array(
                            [np.dot(grid.quad_weights, vals), subgrid_sum(grid, vals)]))
    ref = _margin_checks()[kind]()
    assert (report.lhs, report.rhs, report.margin) == (ref.lhs, ref.rhs, ref.margin)
    assert report.quad_error > 0.0
    assert abs(report.quad_error - ref.quad_error) <= 1e-13 * abs(report.lhs)


def test_grid_only_sums_form_no_subgrid_weights(monkeypatch):
    # identities, forms and scans read only the grid sum, so they never
    # form the subgrid's closure weights; the margins still do
    from hardyrellich import euclid, hardy, rellich, supersolutions

    def no_subgrid(grid):
        raise AssertionError("subgrid weights formed for a grid-only sum")

    monkeypatch.setattr(radial.RadialGrid, "sub_weights", property(no_subgrid))
    u = radial.bump(1.0, 2.5)
    man = mf.hyperbolic(5)
    grid = radial.grid_covering(u.support, 512)
    radial.integrate_weighted(u, 1.0, man, grid)
    radial.dirichlet_form(u, man, grid)
    radial.bilaplacian_form(u, man, grid)
    radial.weighted_l2(u, 1.0, man, grid)
    rellich.radial_reduced_form(rellich.reduced_from_radial(u, 5), 5, 0, grid)
    euclid.ball_identity_check(u, 5, 512)
    euclid.hyperbolic_margin_without_sinh(u, 5, 512)
    supersolutions.null_criticality_scan(5, [2.0], M=512)
    hardy.iterated_log_optimality_scan(5, 1, params=[0.25], M=512)
    with pytest.raises(AssertionError, match="grid-only"):
        hardy.check_poincare_hardy(u, 5, 512)

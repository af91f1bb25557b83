import numpy as np
import pytest
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


def test_make_grid_log_graded_split():
    g = radial.make_grid(1e-6, 10.0, 2048, "log_graded", 1.0)
    assert np.count_nonzero(g.nodes < 1.0) == 1024
    assert np.all(np.diff(g.nodes) > 0)
    assert g.nodes[0] > 1e-6 and g.nodes[-1] < 10.0


def test_make_grid_geometric():
    g = radial.make_grid(1e-4, 1e4, 64, "geometric")
    ratios = g.nodes[1:] / g.nodes[:-1]
    assert np.allclose(ratios, ratios[0])


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
        radial.make_grid(1.0, 2.0, 64, "log_graded", 5.0)


def test_quadrature_exact_for_linear():
    # the end-closure makes interior-node trapezoid exact on degree <= 1
    g = radial.make_grid(1.0, 2.0, 1024, "uniform")
    assert abs(np.dot(g.quad_weights, g.nodes) - 1.5) / 1.5 < 1e-12
    assert abs(np.sum(g.quad_weights) - 1.0) < 1e-12


def test_quadrature_degree_two():
    g = radial.make_grid(1.0, 2.0, 8192, "uniform")
    assert abs(np.dot(g.quad_weights, g.nodes**2) - 7.0 / 3.0) / (7.0 / 3.0) < 1e-8


def test_quadrature_weights_positive():
    for grading in ("uniform", "geometric", "log_graded"):
        g = radial.make_grid(1e-4, 10.0, 512, grading, 1.0)
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
    # stay clear of the piecewise joins, where only C^2 glue is promised
    rr = np.concatenate([np.linspace(1.01, 1.49, 25), np.linspace(1.51, 1.99, 25)])
    fd1 = (u(rr + h) - u(rr - h)) / (2 * h)
    fd2 = (u(rr + h) - 2 * u(rr) + u(rr - h)) / h**2
    _, d1, d2 = u.jet(rr, 2)
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


def test_sampled_radial_function():
    g = radial.make_grid(1.0, 2.0, 64, "uniform")
    vals = np.sin(g.nodes)
    f = radial.RadialFunction.from_samples(g, vals)
    assert np.array_equal(f(g.nodes), vals)
    with pytest.raises(CapabilityError):
        f(np.array([1.5]))
    with pytest.raises(ArgumentError):
        radial.RadialFunction.from_samples(g, vals[:-1])


def _piecewise_bump(a, b, rise, fall):
    """Reference bump: each piece of the quintic rise, plateau and fall
    gathered and evaluated on its own nodes."""
    m1, m2 = a + rise, b - fall
    s = radial._smoothstep
    s1 = radial._smoothstep_d1
    s2 = radial._smoothstep_d2

    def piece(r, up, plateau, down):
        out = np.zeros_like(r)
        sel = (r > a) & (r < m1)
        out[sel] = up((r[sel] - a) / rise)
        out[(r >= m1) & (r <= m2)] = plateau
        sel = (r > m2) & (r < b)
        out[sel] = down((b - r[sel]) / fall)
        return out

    return (
        lambda r: piece(r, s, 1.0, s),
        lambda r: piece(r, lambda t: s1(t) / rise, 0.0, lambda t: -s1(t) / fall),
        lambda r: piece(r, lambda t: s2(t) / rise**2, 0.0, lambda t: s2(t) / fall**2),
    )


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
        assert np.all(np.abs(g - e) <= 1e-15 * np.abs(e))


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
    from hardyrellich import euclid, hardy, iterated_log, rellich
    from hardyrellich import supersolutions as ss

    man = mf.hyperbolic(5)
    grid = radial.make_grid(1.0, 2.0, 64, "uniform")
    wide = np.linspace(-0.3, 2.4, 2001)
    unit = np.linspace(1e-3, 1.0, 501)
    positive = ss.IDENTITY_SAMPLE
    mapped = rellich.mapped_from_radial(radial.bump(1.0, 2.0), 5)
    return {
        "from_samples": lambda: (
            radial.RadialFunction.from_samples(grid, np.sin(grid.nodes)), grid.nodes),
        "bump": lambda: (radial.bump(0.37, 2.11, 0.41, 0.77), wide),
        "plateau_cutoff": lambda: (radial.plateau_cutoff(0.5), wide),
        "trial_profile": lambda: (hardy.trial_profile(0.3, [0.5], 0.25), unit),
        "iterated_log_profile": lambda: (iterated_log.iterated_log_profile(5, 2), unit),
        "warp_power_profile": lambda: (ss.warp_power_profile(man, 0.5), positive),
        "comparison_profile": lambda: (ss.comparison_profile(man), positive),
        "power_profile": lambda: (ss.power_profile(-1.5), positive),
        "power_log_profile": lambda: (ss.power_log_profile(5), positive),
        "supersolution_profile": lambda: (
            ss.SupersolutionProfile(man, ss.power_log_profile(5)).profile(), positive),
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


def _reference_sums(u, grid, weight, measure, drift, zeroth):
    # each integral written out as a raw trapezoid dot product of separately
    # evaluated value, first and second derivative
    r, w = grid.nodes, grid.quad_weights
    uu, du, *d2 = u.jet(r, u.max_order)
    out = {"v2": np.dot(w, uu * uu * weight * measure),
           "grad2": np.dot(w, du * du * weight * measure)}
    if d2:
        lap = d2[0] + drift * du - zeroth * uu
        out["lap2"] = np.dot(w, lap * lap * weight * measure)
    return out


def _trial_inside(grid_end):
    # trial_profile reaches r = 0, where no grid starts; its declared support
    # is cut to the grid, as both sums visit the same nodes
    from hardyrellich.hardy import trial_profile

    u = trial_profile(0.3, [0.5], 0.25)
    return radial.RadialFunction(u.jet_fn, support=(grid_end, 0.5))


def _sums_cases():
    from hardyrellich.euclid import ball_from_radial
    from hardyrellich.rellich import mapped_from_radial, reduced_from_radial

    return {
        "bump": lambda: radial.bump(0.6, 2.3, 0.4, 0.9),
        "trial_profile": lambda: _trial_inside(0.02),
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
        for q, value in zip(some, got):
            assert value > 0.0 and value == pytest.approx(ref[q], rel=1e-14, abs=0.0), q
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
            _nan_on(radial.bump(0.5, 1.5), 0.9, 1.1), 5, nodes=256, nx=40, ny=32),
    }


@pytest.mark.parametrize("check", list(_nan_checks()))
def test_nan_profile_names_its_radius(check):
    # these checks summed raw dot products, which turned a NaN profile
    # value into a NaN margin
    with pytest.raises(EvaluationError, match=r"non-finite at node \d+ \(r = "):
        _nan_checks()[check]()

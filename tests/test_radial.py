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
    assert np.max(np.abs(u.d1(rr) - fd1)) < 1e-6
    assert np.max(np.abs(u.d2(rr) - fd2)) < 1e-4


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
    oracle = quad(lambda r: float(u.d1(np.array([r]))[0]) ** 2 * r**2,
                  1.0, 2.0, limit=200)[0]
    assert abs(mine - oracle) / oracle < 1e-6


def test_dirichlet_form_rejects_noncompact():
    const = radial.RadialFunction(
        lambda r: np.ones_like(np.asarray(r, float)),
        lambda r: np.zeros_like(np.asarray(r, float)),
        lambda r: np.zeros_like(np.asarray(r, float)),
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
        d1 = float(u.d1(np.array([r]))[0])
        d2 = float(u.d2(np.array([r]))[0])
        return (d2 + 4.0 * d1 / r) ** 2 * r**4

    oracle = quad(integrand, 1.0, 2.0, limit=200)[0]
    assert abs(mine - oracle) / oracle < 1e-6


def test_bilaplacian_form_zero_function():
    zero = radial.RadialFunction(
        lambda r: np.zeros_like(np.asarray(r, float)),
        lambda r: np.zeros_like(np.asarray(r, float)),
        lambda r: np.zeros_like(np.asarray(r, float)),
        support=(1.0, 2.0),
    )
    man = mf.hyperbolic(5)
    g = radial.make_grid(0.5, 3.0, 128, "uniform")
    assert radial.bilaplacian_form(zero, man, g) == 0.0


def test_bilaplacian_needs_second_derivative():
    u = radial.bump(1.0, 2.0)
    crippled = radial.RadialFunction(u.value, u.d1, None, support=u.support)
    man = mf.hyperbolic(5)
    g = radial.grid_covering(u.support, 128)
    with pytest.raises(CapabilityError):
        radial.bilaplacian_form(crippled, man, g)


def test_sampled_radial_function():
    g = radial.make_grid(1.0, 2.0, 64, "uniform")
    vals = np.sin(g.nodes)
    f = radial.RadialFunction.from_samples(g, vals)
    assert f.kind == "sampled"
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
    for got, ref in zip((u.value, u.d1, u.d2), _piecewise_bump(a, b, rise, fall)):
        g, e = got(r), ref(r)
        assert np.array_equal(g[flat], e[flat])
        assert np.all(np.abs(g - e) <= 1e-15 * np.abs(e))


def test_bump_plateau_is_exact():
    # r = 0.5 is the rise's end knot of bump(0.2, 0.8), yet (r - a) / rise
    # rounds below 1 there, where s' is not exactly 0
    u = radial.bump(0.2, 0.8)
    assert 0.2 + (0.8 - 0.2) / 2.0 == 0.5
    assert (0.5 - 0.2) / ((0.8 - 0.2) / 2.0) < 1.0
    r = np.array([0.5])
    assert u(r)[0] == 1.0 and u.d1(r)[0] == 0.0 and u.d2(r)[0] == 0.0
    outside = np.array([0.2, 0.8, -1.0, 3.0])
    for f in (u.value, u.d1, u.d2):
        assert np.all(f(outside) == 0.0)


@pytest.mark.parametrize("u", [radial.bump(0.37, 2.11, 0.41, 0.77),
                               radial.plateau_cutoff(0.5)])
def test_jet_matches_separate_calls(u):
    # the bump's joint jet shares one ramp; the cutoff's falls back to
    # value, d1 and d2
    r = np.linspace(-0.3, 2.4, 2001)
    separate = (u.value(r), u.d1(r), u.d2(r))
    for order in (1, 2):
        jet = u.jet(r, order)
        assert len(jet) == order + 1
        assert all(np.array_equal(a, b) for a, b in zip(jet, separate))

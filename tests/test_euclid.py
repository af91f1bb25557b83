import numpy as np
import pytest

from hardyrellich import euclid, suites
from hardyrellich.config import default_config
from hardyrellich.errors import ArgumentError, DomainError, EvaluationError, SupportError
from hardyrellich.radial import RadialFunction, bump, seeded_bumps


def _distance(xi, y):
    """The production half-space distance to (0, 1) at the nodes xi x y."""
    xi, y = np.atleast_1d(xi), np.atleast_1d(y)
    grid = euclid.TensorGrid.over_box(float(xi[-1]), float(y[0]), float(y[-1]),
                                      xi.size, y.size)
    return np.arccosh(grid.cosh_dist)


def test_distance_reference_point():
    assert _distance(0.0, 1.0)[0, 0] == 0.0


def test_distance_vertical_axis():
    for y in (0.5, 2.0, 7.0, 1e-3):
        assert _distance(0.0, y)[0, 0] == pytest.approx(abs(np.log(y)), rel=1e-9)
    y = np.linspace(0.5, 7.0, 14)
    assert _distance(0.0, y)[0] == pytest.approx(np.abs(np.log(y)), rel=1e-9)


def test_distance_boundary_asymptote():
    for y in (1e-3, 1e-6):
        assert _distance(0.0, y)[0, 0] / np.log(1.0 / y) == pytest.approx(1.0, rel=1e-12)


def test_distance_closed_form():
    # arccosh(1 + ((y-1)^2 + xi^2)/(2y)), written out as its own reference
    xi, y = np.linspace(0.0, 3.0, 7), np.linspace(0.05, 4.0, 9)
    ref = np.arccosh(1.0 + ((y[None, :] - 1.0) ** 2 + xi[:, None] ** 2) / (2.0 * y[None, :]))
    assert _distance(xi, y) == pytest.approx(ref, rel=1e-13)


def test_distance_rotation_invariance():
    from scipy.stats import ortho_group

    rng = np.random.default_rng(3)
    x = rng.normal(size=4)
    for k in range(3):
        Q = ortho_group.rvs(4, random_state=k)
        assert euclid._dist_args((Q @ x, 2.0))[0] == pytest.approx(
            euclid._dist_args((x, 2.0))[0], rel=1e-12
        )
    assert euclid._dist_args((x, 2.0)) == (pytest.approx(np.linalg.norm(x), rel=1e-15), 2.0)


def test_distance_domain_error():
    v = euclid.POLYNOMIAL_SUITE[0]
    with pytest.raises(DomainError):
        euclid.halfspace_laplacian_identity_residual(v, 1.0, (0.0, 0.0), 5)
    with pytest.raises(DomainError):
        euclid.halfspace_laplacian_identity_residual(v, 1.0, (1.0, -2.0), 5)
    with pytest.raises(ArgumentError):
        euclid.TensorGrid.over_box(1.0, 0.0, 2.0, 8, 8)
    with pytest.raises(ArgumentError):
        euclid.TensorGrid.over_box(1.0, -1.0, 2.0, 8, 8)


def test_ball_identities():
    worst = 0.0
    for N in (3, 5, 7):
        for u in seeded_bumps(80 + N, 7, 0.4, 3.0):
            worst = max(worst, *euclid.ball_identity_check(u, N))
    assert worst < 1e-6


def test_ball_identity_zero_function():
    from hardyrellich.radial import RadialFunction

    zero = RadialFunction(lambda r, order: (np.zeros_like(np.asarray(r, float)),) * (order + 1),
                          support=(1.0, 2.0))
    assert euclid.ball_identity_check(zero, 3) == (0.0, 0.0, 0.0)


def test_ball_hardy_margin_and_guard():
    rep = euclid.check_ball_hardy(bump(0.2, 0.6), 3)
    assert rep.margin > 0
    with pytest.raises(ArgumentError):
        euclid.check_ball_hardy(bump(0.5, 1.2), 3)
    # a family whose third member reaches |x| = 1 is refused by name
    family = bump(np.array([[0.2], [0.3], [0.5]]), np.array([[0.6], [0.7], [1.0]]))
    with pytest.raises(SupportError, match=r"bump\[0\.5,1\] support \[0\.5, 1\]"):
        euclid.check_ball_hardy(family, 3)
    with pytest.raises(DomainError):
        euclid.check_ball_hardy(bump(0.2, 0.6), 2)
    with pytest.raises(DomainError):
        euclid.ball_identity_check(bump(0.4, 1.0), 2)


def test_ball_equivalence_with_hyperbolic_margin():
    u = bump(0.8, 1.8)
    vb = euclid.ball_from_radial(u, 3)
    m_ball = euclid.check_ball_hardy(vb, 3, nodes=8192).margin
    m_hyp = euclid.hyperbolic_margin_without_sinh(u, 3, nodes=8192)
    assert m_ball == pytest.approx(m_hyp, rel=1e-5)


def test_boundary_weight_comparison():
    ok, excess = euclid.boundary_weight_comparison(1000)
    assert ok and excess <= 0.0


def test_halfspace_hardy_margin():
    v = euclid.tensor_bump(1.0, 0.5, 2.0)
    rep = euclid.check_halfspace_hardy(v, 3, nx=256, ny=256)
    assert rep.margin > 0


def test_halfspace_hardy_guards():
    v = euclid.tensor_bump(1.0, 0.5, 2.0)
    with pytest.raises(DomainError):
        euclid.check_halfspace_hardy(v, 2)
    touching = euclid.TensorProductFunction(v.fx, bump(0.0, 1.0))
    with pytest.raises(ArgumentError):
        euclid.check_halfspace_hardy(touching, 3)
    # every half-space check refuses a support that reaches y = 0
    on_boundary = euclid.tensor_bump(1.0, 0.0, 2.0)
    for call in (lambda: euclid.check_halfspace_hardy(on_boundary, 3),
                 lambda: euclid.check_halfspace_rellich(on_boundary, 5, "y2"),
                 lambda: euclid.check_halfspace_rellich(on_boundary, 5, "y4"),
                 lambda: euclid.aux_gradient_inequality(on_boundary, 5)):
        with pytest.raises(ArgumentError, match="y > 0"):
            call()


def test_halfspace_equivalence_with_hyperbolic():
    U = bump(0.5, 1.5)
    vtr = euclid.TransportedRadial(U, 3, alpha=0.5)
    m_t = euclid.check_halfspace_hardy(vtr, 3, *euclid.TRANSPORTED_RULE).margin
    m_h = euclid.hyperbolic_margin_without_sinh(U, 3, nodes=8192)
    ratio = euclid.sphere_area(3) / euclid.sphere_area(2)
    assert m_t == pytest.approx(m_h * ratio, rel=1e-10)


def test_transplant_rows_are_judged_at_1e_10(monkeypatch):
    # the two transplant rows read 1.5e-13 and 1.8e-14 on the polar rule;
    # a sphere-area ratio off by 1e-7 relative fails both
    cfg = default_config()

    def rows():
        return [suites.halfspace_bilaplacian_identity(cfg, 5),
                suites.halfspace_hardy_margin_and_equivalence(cfg, [suites.HALFSPACE_BUMP])]

    assert [(r.tolerance, r.passed) for r in rows()] == [(1e-10, True)] * 2
    area = euclid.sphere_area
    monkeypatch.setattr(euclid, "sphere_area", lambda dim: area(dim) * (1.0 + 1e-7 * dim))
    assert [r.passed for r in rows()] == [False, False]


# d node counts of the transported polar rule: the shipped count and its
# halvings, each at the shipped theta order
_D_LADDER = [euclid.TRANSPORTED_RULE[0] // 2**j for j in (3, 2, 1, 0)]


def _transported_hardy_error(n_d):
    """Relative gap of the transported N = 3 half-space Hardy margin on the
    polar rule of n_d nodes in d to the 65,536-node hyperbolic margin
    times the sphere-area ratio."""
    U = bump(0.5, 1.5)
    m_t = euclid.check_halfspace_hardy(euclid.TransportedRadial(U, 3, alpha=0.5), 3,
                                       n_d, euclid.TRANSPORTED_RULE[1]).margin
    m_h = euclid.hyperbolic_margin_without_sinh(U, 3, nodes=65536)
    ratio = euclid.sphere_area(3) / euclid.sphere_area(2)
    return abs(m_t - m_h * ratio) / abs(m_h * ratio)


def _transported_bilaplacian_error(monkeypatch, n_d):
    """The N = 5 bilaplacian identity's relative gap on the polar rule of
    n_d nodes in d, against the 65,536-node radial side."""
    monkeypatch.setattr(euclid, "TRANSPORTED_RULE", (n_d, euclid.TRANSPORTED_RULE[1]))
    return euclid.halfspace_bilaplacian_identity(bump(0.5, 1.5), 5, nodes=65536)[2]


@pytest.mark.parametrize("n_d", [256, 257])
def test_transported_hardy_matches_fine_radial_value(n_d):
    # below the shipped d count, of either parity, the N = 3 margin already
    # matches the fine radial value to rounding (2.0e-14 and 1.7e-14)
    assert _transported_hardy_error(n_d) <= 1e-10


@pytest.mark.parametrize("n_d", [320, 321, 512, 513])
def test_transported_bilaplacian_matches_fine_radial_value(monkeypatch, n_d):
    # the shipped d count, a finer one, and one of the other parity each
    assert _transported_bilaplacian_error(monkeypatch, n_d) <= 1e-10


def test_transported_rows_converge_along_the_d_ladder(monkeypatch):
    # the trapezoid rule in d converges faster than any power, so the error
    # of each row falls at every doubling (40, 80, 160, 320 nodes read
    # 4.2e-6, 2.2e-9, 1.5e-12, 1.8e-14 for the Hardy equivalence and
    # 3.3e-3, 4.1e-8, 2.7e-9, 1.5e-13 for the identity) and is at the
    # level of rounding at the shipped orders
    for error in (_transported_hardy_error,
                  lambda n_d: _transported_bilaplacian_error(monkeypatch, n_d)):
        ladder = [error(n_d) for n_d in _D_LADDER]
        assert all(finer <= coarser for coarser, finer in zip(ladder, ladder[1:])), ladder
        assert ladder[-1] <= 1e-10


def test_transported_rule_meets_its_stated_bound():
    # every term of the two suite rows on the shipped polar rule lies
    # within 1e-12, relative, of a rule with twice the nodes on each axis
    n_d, n_theta = euclid.TRANSPORTED_RULE
    rows = [(3, 0.5, [("grad2", 0, 0), ("v2", 2, 0), ("v2", 2, 1)]),
            (5, 1.5, [("lap2", -2, 0), ("grad2", 0, 0), ("v2", 2, 0)])]
    for N, alpha, terms in rows:
        v = euclid.TransportedRadial(bump(0.5, 1.5), N, alpha)
        shipped = euclid._halfspace_sums(v, N, n_d, n_theta, terms)[:, 0]
        finer = euclid._halfspace_sums(v, N, 2 * n_d - 1, 2 * n_theta, terms)[:, 0]
        assert shipped == pytest.approx(finer, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("row", [1, 3, 40])
def test_axis_weight_is_the_euler_maclaurin_end_term(row):
    # the end weight goes on the xi = 0 row alone: rows 1 and 3 are interior
    # rows the subgrid skips, row 40 the far end of the 41 rows, and each
    # keeps its trapezoid weight times xi^(N-2); sums apply the same weights
    grid = euclid.TensorGrid.over_box(2.0, 0.5, 2.0, 41, 16)
    h = 2.0 / 40
    end = 0.5 if row == 40 else 1.0
    sub = 0.0 if row % 2 else 2.0 * h * end
    ones = np.zeros((41, 16))
    ones[[0, row]] = 1.0
    for N in (3, 4, 5, 6, 7):
        w = grid.xi_weights(N)
        want = [_END_WEIGHT[N] * h ** (N - 1), _END_WEIGHT[N] * (2 * h) ** (N - 1)] \
            if N % 2 else [0.0, 0.0]
        assert w[:, 0] == pytest.approx(want, rel=1e-14, abs=0.0)
        assert w[:, row] == pytest.approx(np.array([h * end, sub]) * grid.xi[row] ** (N - 2),
                                          rel=1e-14, abs=0.0)
        summed = grid.sums(N, [("v2", 0, 0)], {"v2": ones})[0]
        assert summed == pytest.approx((w[:, 0] + w[:, row]) * grid.w_y.sum(axis=1),
                                       rel=1e-14, abs=0.0)


def test_laplacian_identity_corrected_passes():
    # 5 functions x 3 alphas x 10 points
    worst = 0.0
    rng = np.random.default_rng(42)
    pts = [(0.0, 2.0)] + [(rng.uniform(0.0, 2.0), rng.uniform(0.3, 4.0))
                          for _ in range(9)]
    for v in euclid.POLYNOMIAL_SUITE:
        for alpha in (0.0, 0.8, 2.5):
            for p in pts:
                worst = max(worst, euclid.halfspace_laplacian_identity_residual(
                    v, alpha, p, 5, corrected=True))
    assert worst < 1e-10


def test_laplacian_identity_alpha_zero_both_exact():
    # alpha = 0 degenerates to the bare hyperbolic Laplacian for both powers
    for corrected in (True, False):
        res = euclid.halfspace_laplacian_identity_residual(
            euclid.POLYNOMIAL_SUITE[2], 0.0, (0.7, 2.0), 5, corrected=corrected
        )
        # literal at alpha=0 still differs: (2*0-(N-2)) y^0 vs y^1 middle term
        if corrected:
            assert res < 1e-12
        else:
            assert res > 1e-6


def test_laplacian_identity_literal_fails_on_suite():
    worst = 0.0
    for v in euclid.POLYNOMIAL_SUITE:
        for alpha in (0.8, 2.5):
            for p in [(0.7, 2.0), (1.5, 0.8), (0.3, 3.0)]:
                worst = max(worst, euclid.halfspace_laplacian_identity_residual(
                    v, alpha, p, 5, corrected=False))
    assert worst > 1e-3


def test_laplacian_identity_degenerate_alpha():
    # at alpha = (N-2)/2 the middle term vanishes: both variants agree
    for corrected in (True, False):
        res = euclid.halfspace_laplacian_identity_residual(
            euclid.POLYNOMIAL_SUITE[1], 1.5, (0.7, 2.0), 5, corrected=corrected
        )
        assert res < 1e-12


def test_halfspace_rellich_margins():
    v = euclid.tensor_bump(1.0, 0.5, 2.0)
    for which in ("y2", "y4"):
        rep = euclid.check_halfspace_rellich(v, 5, which, nx=256, ny=256)
        assert rep.margin > 0
    with pytest.raises(DomainError):
        euclid.check_halfspace_rellich(v, 4, "y2")
    with pytest.raises(DomainError):
        euclid.halfspace_bilaplacian_identity(bump(0.5, 1.5), 4)
    with pytest.raises(ArgumentError):
        euclid.check_halfspace_rellich(v, 5, "y6")


def test_aux_gradient_inequality():
    worst = np.inf
    rng = np.random.default_rng(11)
    for _ in range(5):
        ylo = rng.uniform(0.3, 0.8)
        v = euclid.tensor_bump(rng.uniform(0.5, 1.5), ylo, ylo + rng.uniform(0.5, 2.0))
        rep = euclid.aux_gradient_inequality(v, 5, nx=256, ny=256)
        worst = min(worst, rep.margin / abs(rep.lhs))
    assert worst >= -1e-8


def test_bilaplacian_identity_cross_model():
    lhs, rhs, rel = euclid.halfspace_bilaplacian_identity(bump(0.5, 1.5), 5)
    assert rel <= 1e-10
    assert lhs > 0 and rhs > 0


def test_transported_radial_guard():
    with pytest.raises(ArgumentError):
        euclid.TransportedRadial(
            bump(0.0, 1.0, rise=0.5, fall=0.5), 3, alpha=0.5
        )


def test_sphere_area_values():
    assert euclid.sphere_area(2) == pytest.approx(2 * np.pi)
    assert euclid.sphere_area(3) == pytest.approx(4 * np.pi)


def test_ball_mapped_pair_supports_correspond():
    u = bump(0.8, 1.8)
    ta, tb = euclid.ball_from_radial(u, 3).support
    assert ta == pytest.approx(np.tanh(0.4), rel=1e-12)
    assert tb == pytest.approx(np.tanh(0.9), rel=1e-12)
    assert 0.0 < ta < tb < 1.0  # vanishes near the boundary


def _rule(v, nx, ny):
    """The rule of v's type that sums every term: a tensor product's grid,
    a transported profile's polar rule."""
    return v.rules(nx, ny, [])[0][0]


def _closed_form_distance(xi, y):
    return np.arccosh(1.0 + ((y - 1.0) ** 2 + xi * xi) / (2.0 * y))


def _fd_gaps(f, xi, y, vx, vy, lap, N, h):
    """Worst relative gap of a gradient and Laplacian given at the points
    (xi, y) against central differences of spacing h of the function
    f(xi, y) about them."""
    c = f(xi, y)
    xp, xm, yp, ym = f(xi + h, y), f(xi - h, y), f(xi, y + h), f(xi, y - h)
    fd_x = (xp - xm) / (2 * h)
    fd_y = (yp - ym) / (2 * h)
    fd_lap = (xp - 2 * c + xm) / h**2 + (N - 2) * fd_x / xi + (yp - 2 * c + ym) / h**2
    grad = np.hypot(vx, vy)
    assert np.max(grad) > 0.0 and np.max(np.abs(lap)) > 0.0
    return (
        np.max(np.hypot(fd_x - vx, fd_y - vy)) / np.max(grad),
        np.max(np.abs(fd_lap - lap)) / np.max(np.abs(lap)),
    )


@pytest.mark.parametrize("alpha", [0.5, 1.5])
def test_transported_jet_matches_finite_differences(alpha):
    # the jet on the polar mesh, U on its d axis, against central
    # differences about mesh nodes off the axis
    v = euclid.TransportedRadial(bump(0.5, 1.5), 5, alpha=alpha)
    rule = _rule(v, 33, 16)
    off_axis = np.s_[2:-2:3, 1:-1:2]
    _, vx, vy, lap = (p[off_axis] for p in v.jet(rule.d[:, None], rule.xi, rule.y, 5))
    xi, y = rule.xi[off_axis], rule.y[off_axis]

    def value(xi, y):
        return v.jet(_closed_form_distance(xi, y), xi, y, 5, laplacian=False)[0]

    grad_rel, lap_rel = _fd_gaps(value, xi, y, vx, vy, lap, 5, 1e-5)
    assert grad_rel <= 1e-5 and lap_rel <= 1e-5


def test_tensor_jet_matches_finite_differences():
    # Lx fy + fx fy'' against central differences of fx fy
    v = euclid.tensor_bump(1.0, 0.5, 2.0)
    # the factors are C^inf, so stencils may sit on their joints (|x| = 0.5,
    # y = 1.25)
    xi, y = (a.ravel() for a in np.meshgrid(np.linspace(0.1, 0.9, 9),
                                            np.linspace(0.55, 1.95, 15)))
    fx, fx1, lx = v.x_jet(xi, 5)
    fy, fy1, fy2 = v.fy.jet(y, 2)
    grad_rel, lap_rel = _fd_gaps(lambda xi, y: v.fx(xi) * v.fy(y), xi, y,
                                 fx1 * fy, fx * fy1, lx * fy + fx * fy2, 5, 1e-5)
    assert grad_rel <= 1e-5 and lap_rel <= 1e-5


def test_jets_vanish_outside_support():
    U = bump(0.5, 1.5)
    transported = euclid.TransportedRadial(U, 5, alpha=0.5)
    xi, y = np.meshgrid(np.linspace(0.0, 6.0, 96), np.linspace(0.1, 6.0, 96))
    d = _closed_form_distance(xi, y)
    outside = (d > 0.0) & ((d <= U.support[0]) | (d >= U.support[1]))
    assert outside.sum() > 1000
    for part in transported.jet(d[outside], xi[outside], y[outside], 5):
        assert np.all(part == 0.0)
    tensor = euclid.tensor_bump(1.0, 0.5, 2.0)
    xi_out = np.linspace(tensor.fx.support[1], 1.5, 20)
    y_out = np.concatenate([np.linspace(0.2, 0.5, 10), np.linspace(2.0, 2.4, 10)])
    for part in (*tensor.x_jet(xi_out, 5), *tensor.fy.jet(y_out)):
        assert np.all(part == 0.0)


def test_jet_without_laplacian_matches_full_jet():
    # the first-order checks skip the Laplacian; what they read is unchanged
    transported = euclid.TransportedRadial(bump(0.5, 1.5), 5, alpha=1.5)
    rule = _rule(transported, 64, 48)
    full = transported.jet(rule.d[:, None], rule.xi, rule.y, 5)
    first = transported.jet(rule.d[:, None], rule.xi, rule.y, 5, laplacian=False)
    assert len(full) == 4 and len(first) == 3
    for a, b in zip(first, full):
        assert np.array_equal(a, b)
    first_terms = [("grad2", 2, 0), ("v2", 4, 0), ("v2", 2, 1)]
    for v in (transported, euclid.tensor_bump(1.0, 0.5, 2.0)):
        sums = euclid._halfspace_sums(v, 5, 64, 48, first_terms)
        with_lap = euclid._halfspace_sums(v, 5, 64, 48, first_terms + [("lap2", 0, 0)])
        assert np.array_equal(with_lap[:3], sums)


def _nan_at(f, points):
    """f with its value made NaN within 1e-12 relative of the points."""
    points = np.asarray(points, dtype=float)

    def jet(r, order):
        r = np.asarray(r, dtype=float)
        hit = np.isclose(r[..., None], points, rtol=1e-12, atol=0.0).any(axis=-1)
        value, *derivatives = f.jet(r, order)
        return (np.where(hit, np.nan, value), *derivatives)

    return RadialFunction(jet, support=f.support, label="planted")


def test_tensor_integrate_keeps_the_axis_row():
    base = euclid.tensor_bump(1.0, 0.5, 2.0)
    grid = _rule(base, 8, 8)
    terms = [("v2", 2, 0), ("v2", 2, 1), ("lap2", 0, 0)]
    # the xi = 0 row is part of the rule (it carries the Euler-Maclaurin
    # end weight for odd N), so a NaN factor there is found at its first
    # node, and the Laplacian's fx'/xi takes its limit there
    on_axis = euclid.TensorProductFunction(_nan_at(base.fx, [0.0]), base.fy)
    with pytest.raises(EvaluationError, match=f"\\(0, {grid.y[0]:.6g}\\)"):
        euclid._halfspace_sums(on_axis, 5, 8, 8, terms)
    assert np.all(np.isfinite(euclid._halfspace_sums(base, 5, 8, 8, terms)))
    # a NaN factor at xi[4] makes that whole row NaN
    off_axis = euclid.TensorProductFunction(_nan_at(base.fx, [grid.xi[4]]), base.fy)
    with pytest.raises(EvaluationError, match=f"{grid.xi[4]:.6g}, {grid.y[0]:.6g}"):
        euclid._halfspace_sums(off_axis, 5, 8, 8, terms)


def test_tensor_x_jet_takes_its_axis_limit():
    v = euclid.tensor_bump(1.0, 0.5, 2.0)
    xi = np.array([0.0, 1e-9, 0.3, 0.45])
    for N in (3, 5):
        f, f1, lx = v.x_jet(xi, N)
        _, _, f2 = v.fx.jet(xi, 2)
        assert lx[0] == (N - 1) * f2[0]
        assert np.array_equal(lx[1:], f2[1:] + (N - 2) * f1[1:] / xi[1:])


def _constant(c, support):
    return RadialFunction(
        lambda r, order: (np.full(np.shape(r), c),) + (np.zeros(np.shape(r)),) * order,
        support=support)


def test_tensor_integrate_raises_on_overflow():
    big = 1.3e154  # v^2 = 1.69e308 is finite, but its integrals are not
    tensor = euclid.TensorProductFunction(_constant(big, (0.0, 10.0)),
                                          _constant(1.0, (0.5, 20.0)))
    transported = euclid.TransportedRadial(_constant(big, (0.5, 1.5)), 3, alpha=0.0)
    for v in (tensor, transported):
        with pytest.raises(EvaluationError, match="overflows"):
            euclid._halfspace_sums(v, 3, 8, 8, [("v2", -2, 0)])


def test_tensor_patch_refuses_a_distance_weighted_gradient_term():
    # the polar patch sums v^2 alone, so a grad2 term with k = 1 has no near part
    with pytest.raises(ArgumentError, match=r"\('grad2', 0, 1\)"):
        euclid._halfspace_sums(euclid.tensor_bump(1.0, 0.5, 2.0), 5, 16, 16, [("grad2", 0, 1)])


def _trapezoid(nodes):
    w = np.zeros_like(nodes)
    w[:-1] += np.diff(nodes) / 2.0
    w[1:] += np.diff(nodes) / 2.0
    return w


# B_(N-1)/(N-1) from B_2 = 1/6, B_4 = -1/30 and B_6 = 1/42
_END_WEIGHT = {3: 1.0 / 12.0, 5: -1.0 / 120.0, 7: 1.0 / 252.0}


def _written_out_rule(v, N, nx, ny, step):
    """(xi, y, w_xi, w_y) of a tensor product's grid rule on the nx x ny
    grid over the box of its supports padded by 2% (step 1) or on its
    subgrid of every other row and column (step 2), with xi^(N-2) in w_xi.
    The xi = 0 row is kept, weighted for odd N by B_(N-1)/(N-1) h^(N-1)
    with h its own xi spacing."""
    (_, xb), (ya, yb) = v.fx.support, v.fy.support
    xi = np.linspace(0.0, 1.02 * xb, nx)[::step]
    y = np.linspace(0.98 * ya, 1.02 * yb, ny)[::step]
    w_xi = _trapezoid(xi) * xi ** (N - 2)
    if N % 2:
        w_xi[0] = _END_WEIGHT[N] * (xi[1] - xi[0]) ** (N - 1)
    return xi, y, w_xi, _trapezoid(y)


def _chi(d):
    """The patch cutoff in d, written out: 1 up to R/2, 0 from R on, and
    the ramp s(t) = (1 + tanh(tan(pi (t - 1/2))))/2 of t = (R - d)/(R/2)
    between, R = euclid.PATCH_RADIUS."""
    R = euclid.PATCH_RADIUS
    t = np.clip((R - d) / (R / 2.0), 0.0, 1.0)
    with np.errstate(over="ignore"):
        ramp = (1.0 + np.tanh(np.tan(np.pi * (t - 0.5)))) / 2.0
    return np.where(d <= R / 2.0, 1.0, np.where(d >= R, 0.0, ramp))


def _clenshaw_curtis_by_moments(a, b, n):
    """Clenshaw-Curtis nodes and weights on [a, b], solved from the
    Chebyshev moments: sum_j w_j T_m(x_j) = int T_m for m = 0..n."""
    t = np.pi * np.arange(n + 1) / n
    m = np.arange(n + 1)
    moments = np.zeros(n + 1)
    moments[::2] = 2.0 / (1.0 - m[::2] ** 2)
    w = np.linalg.solve(np.cos(np.outer(m, t)), moments)
    return a + (b - a) * (1.0 - np.cos(t)) / 2.0, w * (b - a) / 2.0


def _written_out_patch(v, N, terms, step):
    """Each term's near part chi(d) d^(-2k) v^2 xi^(N-2) y^(-p), summed in
    geodesic polar coordinates about (0, 1), dxi dy = y^2 sinh d dd dtheta,
    with Clenshaw-Curtis rules in d on [0, R] and in theta on [0, pi]:
    the patch of euclid.PATCH_NODES (step 1) or its half rule (step 2).
    sinh(d)^(N-1)/d^(2k) is (sinh d/d)^(2k) sinh(d)^(N-1-2k), 1 or 0 at
    d = 0."""
    n_d, n_t = (n // step for n in euclid.PATCH_NODES)
    d, w_d = _clenshaw_curtis_by_moments(0.0, euclid.PATCH_RADIUS, n_d)
    t, w_t = _clenshaw_curtis_by_moments(0.0, np.pi, n_t)
    D, T = np.meshgrid(d, t, indexing="ij")
    y = 1.0 / (np.cosh(D) - np.sinh(D) * np.cos(T))
    xi = y * np.sinh(D) * np.sin(T)
    v2 = (v.fx(xi.ravel()) * v.fy(y.ravel())).reshape(xi.shape) ** 2
    ratio = np.where(D > 0.0, np.sinh(D) / np.where(D > 0.0, D, 1.0), 1.0)
    weight = np.outer(w_d, w_t) * _chi(D)
    return [float(np.sum(weight * (y * np.sin(T)) ** (N - 2) * y ** (2 - p) * v2
                         * ratio ** (2 * k) * np.sinh(D) ** (N - 1 - 2 * k)))
            if k else 0.0 for q, p, k in terms]


def _written_out_sums(v, N, nx, ny, terms, step):
    """Each term's sum from mesh arrays on every node of v's rule written
    out, on the nx x ny grid or polar rule (step 1) or on its coarser rule
    (step 2), with y^(-p) and d^(-2k) multiplied in node by node.  For a
    tensor product the values are outer products of the factors, and
    d^(-2k) is only its far part (1 - chi(d)) d^(-2k), 0 at d <= R/2, with
    the near part added from the written-out patch (its half rule for
    step 2)."""
    if isinstance(v, euclid.TransportedRadial):
        return _written_out_polar(v, N, nx, ny, terms, step)
    xi, y, w_xi, w_y = _written_out_rule(v, N, nx, ny, step)
    d = _closed_form_distance(xi[:, None], y)
    fx, fx1, fx2 = v.fx.jet(xi, 2)
    fy, fy1, fy2 = v.fy.jet(y, 2)
    val = np.outer(fx, fy)
    v_xi, v_y = np.outer(fx1, fy), np.outer(fx, fy1)
    # fx'(0) = 0, so fx'/xi tends to fx''(0) on the axis
    fx1_xi = np.where(xi > 0.0, fx1 / np.where(xi > 0.0, xi, 1.0), fx2)
    lap = np.outer(fx2 + (N - 2) * fx1_xi, fy) + np.outer(fx, fy2)
    near = d <= euclid.PATCH_RADIUS / 2.0
    safe_d = np.where(near, 1.0, d)
    quantity = {"v2": val * val, "grad2": v_xi * v_xi + v_y * v_y, "lap2": lap * lap}
    weight = np.outer(w_xi, w_y)
    far = [float(np.sum(weight * quantity[q] / y**p
                        * (np.where(near, 0.0, (1.0 - _chi(d)) / safe_d ** (2 * k)) if k
                           else 1.0)))
           for q, p, k in terms]
    return [a + b for a, b in zip(far, _written_out_patch(v, N, terms, step))]


def _written_out_polar(v, N, n_d, n_theta, terms, step):
    """Each term's sum of xi^(N-2) y^(-p) Q d^(-2k) over the transported
    profile's support annulus a <= d <= b, in geodesic polar coordinates
    about (0, 1), dxi dy = y^2 sinh d dd dtheta: the trapezoid rule on n_d
    nodes in d and the Clenshaw-Curtis rule of order n_theta in theta
    (step 1), or the every-other-d-node subgrid and the order n_theta/2
    rule (step 2), with Q from the jet at every node."""
    d = np.linspace(*v.U.support, n_d)[::step]
    t, w_t = _clenshaw_curtis_by_moments(0.0, np.pi, n_theta // step)
    D, T = np.meshgrid(d, t, indexing="ij")
    y = 1.0 / (np.cosh(D) - np.sinh(D) * np.cos(T))
    xi = y * np.sinh(D) * np.sin(T)
    val, v_xi, v_y, lap = v.jet(D, xi, y, N)
    quantity = {"v2": val * val, "grad2": v_xi * v_xi + v_y * v_y, "lap2": lap * lap}
    weight = np.outer(_trapezoid(d), w_t) * y**2 * np.sinh(D)
    return [float(np.sum(weight * xi ** (N - 2) * y**-p * quantity[q] / D ** (2 * k)))
            for q, p, k in terms]


@pytest.mark.parametrize("y_power", [2, 4, -2, 0])
def test_tensor_integrate_folds_y_power(y_power):
    # the sums of both rule types against sums written out node by node
    for N in (3, 5):
        # d^(-2k) is integrable about (0, 1) for 2k <= N - 1
        terms = [("v2", y_power, k) for k in range((N - 1) // 2 + 1)]
        terms += [("grad2", y_power, 0), ("lap2", y_power, 0)]
        # a transported profile's theta order is a multiple of 4
        for v, ny in ((euclid.tensor_bump(1.0, 0.5, 2.0), 37),
                      (euclid.TransportedRadial(bump(0.5, 1.5), N, alpha=0.5), 36)):
            sums = euclid._halfspace_sums(v, N, 41, ny, terms)[:, 0]
            assert sums == pytest.approx(_written_out_sums(v, N, 41, ny, terms, 1), rel=1e-13)


def test_clenshaw_curtis_order_must_be_a_multiple_of_4():
    # the half rule uses the even-order weight formula at order n/2
    nodes, weights = euclid._clenshaw_curtis(0.0, 1.0, 12)
    _, want = _clenshaw_curtis_by_moments(0.0, 1.0, 12)
    _, half = _clenshaw_curtis_by_moments(0.0, 1.0, 6)
    assert weights[0] == pytest.approx(want, abs=1e-15)
    assert weights[1, ::2] == pytest.approx(half, abs=1e-15)
    with pytest.raises(ArgumentError, match="order 30 is not a multiple of 4"):
        euclid._clenshaw_curtis(0.0, 1.0, 30)


def test_transported_radial_rejects_other_dimension():
    v = euclid.TransportedRadial(bump(0.5, 1.5), 5, alpha=1.5)
    with pytest.raises(ArgumentError, match="N = 5.*N = 3"):
        euclid.check_halfspace_hardy(v, 3, 40, 32)


def test_nan_in_a_tensor_product_names_its_node():
    tensor = euclid.tensor_bump(1.0, 0.5, 2.0)
    grid = _rule(tensor, 40, 32)
    # a NaN factor at row 25 of the 40 rows makes the whole row NaN; it is
    # found at the row's first node
    xi = grid.xi[25]
    planted = euclid.TensorProductFunction(_nan_at(tensor.fx, [xi]), tensor.fy)
    with pytest.raises(EvaluationError, match=f"\\({xi:.6g}, {grid.y[0]:.6g}\\)"):
        euclid.check_halfspace_hardy(planted, 3, 40, 32)
    # a tensor product keeps its xi = 0 row, so a NaN there is found first
    on_axis = euclid.TensorProductFunction(_nan_at(tensor.fx, [0.0, xi]), tensor.fy)
    with pytest.raises(EvaluationError, match=f"\\(0, {grid.y[0]:.6g}\\)"):
        euclid.check_halfspace_hardy(on_axis, 3, 40, 32)
    # a NaN met only on the polar patch is named at its patch node
    patch = euclid._polar_patch(*euclid.PATCH_NODES)
    y = patch.y[5, 3]
    planted = euclid.TensorProductFunction(tensor.fx, _nan_at(tensor.fy, [y]))
    with pytest.raises(EvaluationError, match=f"\\({patch.xi[5, 3]:.6g}, {y:.6g}\\)"):
        euclid.check_halfspace_hardy(planted, 3, 40, 32)


@pytest.mark.parametrize("nodes", [[15], [27, 15]], ids=["one_node", "two_nodes"])
def test_nan_in_a_transported_profile_names_its_polar_node(nodes):
    # U lives on the d axis of the polar rule, so a NaN planted in U at a
    # d node makes that row of the mesh NaN; it is found at the row's
    # first node, theta = 0, which is on the axis: (0, e^d).  With two
    # planted nodes the one nearer to (0, 1) is found, as rows run in d
    transported = euclid.TransportedRadial(bump(0.5, 1.5), 3, alpha=0.5)
    rule = _rule(transported, 40, 32)
    i = min(nodes)
    assert rule.xi[i, 0] == 0.0 and rule.y[i, 0] == pytest.approx(np.exp(rule.d[i]))
    planted = euclid.TransportedRadial(_nan_at(transported.U, rule.d[nodes]), 3, 0.5)
    with pytest.raises(EvaluationError, match=f"\\(0, {rule.y[i, 0]:.6g}\\)"):
        euclid.check_halfspace_hardy(planted, 3, 40, 32)


def _peak_bytes(check):
    import tracemalloc

    tracemalloc.start()
    try:
        check()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# a block is one TENSOR_GRID^2 mesh array of 128 KiB: every Q and distance
# weight a check forms is one block, and a check's peak stays under eight
# of them, 1 MiB (bound set before measuring)
def _block_bytes():
    return euclid.TENSOR_GRID ** 2 * 8


def test_halfspace_hardy_peak_memory_is_block_sized():
    v = euclid.tensor_bump(1.0, 0.5, 2.0)
    euclid.check_halfspace_hardy(v, 3, 16, 16)  # warm up lazy imports
    for N in (3, 5):
        assert _peak_bytes(lambda: euclid.check_halfspace_hardy(v, N)) < 8 * _block_bytes()


def test_halfspace_rellich_peak_memory_is_block_sized():
    # the y4 check names all three Q and two distance powers
    v = euclid.tensor_bump(1.0, 0.5, 2.0)
    euclid.check_halfspace_rellich(v, 5, "y4", 16, 16)  # warm up lazy imports
    for which in ("y2", "y4"):
        peak = _peak_bytes(lambda: euclid.check_halfspace_rellich(v, 5, which))
        assert peak < 8 * _block_bytes()


def _written_out_nested(v, N, nx, ny, terms):
    """Each term's sum, written out from mesh arrays, on v's rule and on
    its coarser rule, as _written_out_sums writes them."""
    return np.array([_written_out_sums(v, N, nx, ny, terms, step) for step in (1, 2)]).T


# a transported profile's theta order (ny) is a multiple of 4
@pytest.mark.parametrize("check", [
    lambda v: euclid.check_halfspace_hardy(v, 5, 41, 36),
    lambda v: euclid.check_halfspace_rellich(v, 5, "y2", 41, 40),
    lambda v: euclid.check_halfspace_rellich(v, 5, "y4", 40, 36),
    lambda v: euclid.aux_gradient_inequality(v, 5, 40, 40),
], ids=["hardy", "rellich_y2", "rellich_y4", "aux"])
@pytest.mark.parametrize("make", [
    lambda: euclid.tensor_bump(1.0, 0.5, 2.0),
    lambda: euclid.TransportedRadial(bump(0.5, 1.5), 5, alpha=1.5),
], ids=["tensor", "transported"])
def test_halfspace_quad_error_is_the_margin_change_on_the_subgrid(check, make, monkeypatch):
    # the same check with its sums written out on its rule and on the
    # coarser rule
    v = make()
    report = check(v)
    monkeypatch.setattr(euclid, "_halfspace_sums", _written_out_nested)
    ref = check(v)
    assert report.quad_error > 0.0
    assert (report.lhs, report.rhs) == pytest.approx((ref.lhs, ref.rhs), rel=1e-13)
    assert abs(report.quad_error - ref.quad_error) <= 1e-13 * abs(report.lhs)

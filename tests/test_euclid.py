import numpy as np
import pytest

from hardyrellich import euclid
from hardyrellich.errors import ArgumentError, DomainError, EvaluationError
from hardyrellich.radial import bump, seeded_bumps


def test_distance_reference_point():
    assert euclid.geodesic_distance_halfspace((0.0, 1.0)) == 0.0


def test_distance_vertical_axis():
    for y in (0.5, 2.0, 7.0, 1e-3):
        d = euclid.geodesic_distance_halfspace((0.0, y))
        assert d == pytest.approx(abs(np.log(y)), rel=1e-9)


def test_distance_boundary_asymptote():
    for y in (1e-3, 1e-6):
        assert euclid.geodesic_distance_halfspace((0.0, y)) / np.log(1.0 / y) == (
            pytest.approx(1.0, rel=1e-12)
        )


def test_distance_rotation_invariance():
    from scipy.stats import ortho_group

    rng = np.random.default_rng(3)
    x = rng.normal(size=4)
    for k in range(3):
        Q = ortho_group.rvs(4, random_state=k)
        assert euclid.geodesic_distance_halfspace((Q @ x, 2.0)) == pytest.approx(
            euclid.geodesic_distance_halfspace((x, 2.0)), rel=1e-12
        )


def test_distance_domain_error():
    with pytest.raises(DomainError):
        euclid.geodesic_distance_halfspace((0.0, 0.0))
    with pytest.raises(DomainError):
        euclid.geodesic_distance_halfspace(euclid.HalfSpacePoint(1.0, -2.0))


def test_ball_identities():
    worst = 0.0
    for N in (3, 5, 7):
        for u in seeded_bumps(80 + N, 7, 0.4, 3.0):
            for which in ("gradient", "l2", "hardy"):
                worst = max(worst, euclid.ball_identity_check(u, N, which))
    assert worst < 1e-6


def test_ball_identity_zero_function():
    from hardyrellich.radial import RadialFunction

    zero = RadialFunction(
        lambda r: np.zeros_like(np.asarray(r, float)),
        lambda r: np.zeros_like(np.asarray(r, float)),
        lambda r: np.zeros_like(np.asarray(r, float)),
        support=(1.0, 2.0),
    )
    assert euclid.ball_identity_check(zero, 3, "l2") == 0.0
    with pytest.raises(ArgumentError):
        euclid.ball_identity_check(bump(1.0, 2.0), 3, "mass")


def test_ball_hardy_margin_and_guard():
    rep = euclid.check_ball_hardy(bump(0.2, 0.6), 3)
    assert rep.margin > 0
    with pytest.raises(ArgumentError):
        euclid.check_ball_hardy(bump(0.5, 1.2), 3)


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


def test_halfspace_equivalence_with_hyperbolic():
    U = bump(0.5, 1.5)
    vtr = euclid.TransportedRadial(U, 3, alpha=0.5)
    m_t = euclid.check_halfspace_hardy(vtr, 3, nx=768, ny=768).margin
    m_h = euclid.hyperbolic_margin_without_sinh(U, 3, nodes=8192)
    ratio = euclid.sphere_area(3) / euclid.sphere_area(2)
    assert m_t == pytest.approx(m_h * ratio, rel=1e-4)


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
    lhs, rhs, rel = euclid.halfspace_bilaplacian_identity(bump(0.5, 1.5), 5,
                                                          nx=640, ny=640)
    assert rel <= 1e-4
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
    pair = euclid.BallMappedPair.from_radial(u, 3)
    ta, tb = pair.v.support
    assert ta == pytest.approx(np.tanh(0.4), rel=1e-12)
    assert tb == pytest.approx(np.tanh(0.9), rel=1e-12)
    assert 0.0 < ta < tb < 1.0  # vanishes near the boundary


def _stencil_grid(xs, ys, h):
    """Grid holding a 3x3 stencil of spacing h around every (x, y) pair."""
    offsets = np.array([-h, 0.0, h])
    xi = (np.asarray(xs)[:, None] + offsets).ravel()
    y = (np.asarray(ys)[:, None] + offsets).ravel()
    return euclid.TensorGrid(xi, y, np.zeros_like(xi), np.zeros_like(y))


def _jet_vs_finite_differences(v, N, xs, ys, h=1e-5):
    """Worst relative gap of jet's gradient and Laplacian against central
    differences of jet's own value, at the stencil centres."""
    val, vx, vy, lap = v.jet(_stencil_grid(xs, ys, h), N)
    c = np.s_[1::3, 1::3]
    fd_x = (val[2::3, 1::3] - val[0::3, 1::3]) / (2 * h)
    fd_y = (val[1::3, 2::3] - val[1::3, 0::3]) / (2 * h)
    fd_xx = (val[2::3, 1::3] - 2 * val[c] + val[0::3, 1::3]) / h**2
    fd_yy = (val[1::3, 2::3] - 2 * val[c] + val[1::3, 0::3]) / h**2
    fd_lap = fd_xx + (N - 2) * fd_x / np.asarray(xs)[:, None] + fd_yy
    grad = np.hypot(vx[c], vy[c])
    assert np.max(grad) > 0.0 and np.max(np.abs(lap[c])) > 0.0
    return (
        np.max(np.hypot(fd_x - vx[c], fd_y - vy[c])) / np.max(grad),
        np.max(np.abs(fd_lap - lap[c])) / np.max(np.abs(lap[c])),
    )


@pytest.mark.parametrize("alpha", [0.5, 1.5])
def test_transported_jet_matches_finite_differences(alpha):
    v = euclid.TransportedRadial(bump(0.5, 1.5), 5, alpha=alpha)
    xs = np.linspace(0.1, 0.9 * v.xi_support[1], 7)
    ys = np.linspace(1.05 * v.y_support[0], 0.95 * v.y_support[1], 9)
    grad_rel, lap_rel = _jet_vs_finite_differences(v, 5, xs, ys)
    assert grad_rel <= 1e-5 and lap_rel <= 1e-5


def test_tensor_jet_matches_finite_differences():
    v = euclid.tensor_bump(1.0, 0.5, 2.0)
    # stencils stay off the joints of the C^2 factors (|x| = 0.5, y = 1.25)
    xs = np.linspace(0.1, 0.95, 7)
    ys = np.linspace(0.55, 1.95, 8)
    grad_rel, lap_rel = _jet_vs_finite_differences(v, 5, xs, ys)
    assert grad_rel <= 1e-5 and lap_rel <= 1e-5


def test_jets_vanish_outside_support():
    U = bump(0.5, 1.5)
    transported = euclid.TransportedRadial(U, 5, alpha=0.5)
    tensor = euclid.tensor_bump(1.0, 0.5, 2.0)
    for v in (transported, tensor):
        grid = euclid.TensorGrid.over_box(*v.box(pad=0.2), 96, 96)
        XI, Y = np.meshgrid(grid.xi, grid.y, indexing="ij")
        if v is transported:
            d = np.arccosh(np.maximum(1.0 + ((Y - 1.0) ** 2 + XI**2) / (2.0 * Y), 1.0))
            outside = (d <= U.support[0]) | (d >= U.support[1])
        else:
            outside = ((XI >= v.xi_support[1]) | (Y <= v.y_support[0])
                       | (Y >= v.y_support[1]))
        assert outside.any() and not outside.all()
        for part in v.jet(grid, 5):
            assert np.all(part[outside] == 0.0)


def test_jet_without_laplacian_matches_full_jet():
    # the first-order checks skip the Laplacian; what they read is unchanged
    for v in (euclid.TransportedRadial(bump(0.5, 1.5), 5, alpha=1.5),
              euclid.tensor_bump(1.0, 0.5, 2.0)):
        grid = euclid.TensorGrid.over_box(*v.box(), 64, 48)
        full = v.jet(grid, 5)
        first = v.jet(grid, 5, laplacian=False)
        assert len(full) == 4 and len(first) == 3
        for a, b in zip(first, full):
            assert np.array_equal(a, b)


def test_tensor_integrate_masks_axis_only():
    grid = euclid.TensorGrid.over_box(1.0, 0.5, 2.0, 8, 8)
    values = np.ones((8, 8))
    values[0, 3] = np.nan  # the xi = 0 column carries zero measure
    assert np.isfinite(grid.integrate(values, 3))
    values[4, 5] = np.nan
    with pytest.raises(EvaluationError, match=f"{grid.xi[4]:.6g}, {grid.y[5]:.6g}"):
        grid.integrate(values, 3)


def test_tensor_integrate_raises_on_overflow():
    grid = euclid.TensorGrid.over_box(10.0, 0.5, 20.0, 8, 8)
    values = np.full((8, 8), 1e308)  # finite, but their integral is not
    with pytest.raises(EvaluationError, match="overflows"):
        grid.integrate(values, 3)


@pytest.mark.parametrize("y_power", [2, 4, -2])
def test_tensor_integrate_folds_y_power(y_power):
    grid = euclid.TensorGrid.over_box(1.3, 0.4, 2.5, 17, 23)
    values = np.random.default_rng(5).uniform(0.5, 2.0, (17, 23))
    direct = grid.integrate(values / grid.y ** y_power, 5)
    assert grid.integrate(values, 5, y_power) == pytest.approx(direct, rel=1e-14)


def test_blocks_partition_rows_under_budget(monkeypatch):
    monkeypatch.setattr(euclid, "BLOCK_NODES", 10 * 16)  # ten rows of 16
    for nx, rows in [(1, [1]), (9, [9]), (10, [10]), (23, [10, 10, 3])]:
        grid = euclid.TensorGrid.over_box(1.0, 0.5, 2.0, nx, 16)
        blocks = list(grid.blocks())
        assert [blk.xi.size for blk in blocks] == rows
        assert all(blk.y is grid.y and blk.w_y is grid.w_y for blk in blocks)
        assert np.array_equal(np.concatenate([blk.xi for blk in blocks]), grid.xi)
        assert np.array_equal(np.concatenate([blk.w_xi for blk in blocks]), grid.w_xi)
    monkeypatch.setattr(euclid, "BLOCK_NODES", 15)  # less than one row
    grid = euclid.TensorGrid.over_box(1.0, 0.5, 2.0, 3, 16)
    assert [blk.xi.size for blk in grid.blocks()] == [1, 1, 1]


def _blocked_values():
    transported = euclid.TransportedRadial(bump(0.5, 1.5), 5, alpha=1.5)
    tensor = euclid.tensor_bump(1.0, 0.5, 2.0)
    reports = [
        euclid.check_halfspace_hardy(transported, 5, 40, 32),
        euclid.check_halfspace_hardy(tensor, 3, 40, 32),
        euclid.check_halfspace_rellich(transported, 5, "y2", 40, 32),
        euclid.check_halfspace_rellich(tensor, 5, "y4", 40, 32),
        euclid.aux_gradient_inequality(tensor, 5, 40, 32),
    ]
    values = [x for rep in reports for x in (rep.lhs, rep.rhs, rep.margin)]
    return values + [euclid.halfspace_bilaplacian_identity(
        bump(0.5, 1.5), 5, nodes=512, nx=40, ny=32)[1]]


@pytest.mark.parametrize("rows", [1, 39, 40, 7])
def test_blocked_margins_match_single_block(monkeypatch, rows):
    # rows per block on the 40 x 32 grid: one row, all but one row (a
    # one-row remainder), exactly the grid, and a 5-row remainder
    single = _blocked_values()
    monkeypatch.setattr(euclid, "BLOCK_NODES", rows * 32)
    blocked = _blocked_values()
    assert blocked == pytest.approx(single, rel=1e-13)


class _PlantedNaN:
    """The tensor bump with its value made NaN at the nodes (xi, y)."""

    def __init__(self, xi, y):
        self.base = euclid.tensor_bump(1.0, 0.5, 2.0)
        self.xi, self.y = xi, y
        self.y_support = self.base.y_support
        self.label = "planted"

    def box(self):
        return self.base.box()

    def jet(self, grid, N, laplacian=True):
        parts = self.base.jet(grid, N, laplacian)
        parts[0][np.ix_(np.isin(grid.xi, self.xi), np.isin(grid.y, self.y))] = np.nan
        return parts


def test_nan_in_a_later_block_names_its_node(monkeypatch):
    monkeypatch.setattr(euclid, "BLOCK_NODES", 4 * 32)  # four rows a block
    grid = euclid.TensorGrid.over_box(*euclid.tensor_bump(1.0, 0.5, 2.0).box(), 40, 32)
    xi, y = grid.xi[25], grid.y[7]  # row 25 lies in the seventh block
    with pytest.raises(EvaluationError, match=f"\\({xi:.6g}, {y:.6g}\\)"):
        euclid.check_halfspace_hardy(_PlantedNaN(xi, y), 3, 40, 32)
    # a NaN on the xi = 0 axis carries zero measure and is dropped
    report = euclid.check_halfspace_hardy(_PlantedNaN(0.0, grid.y), 3, 40, 32)
    clean = euclid.check_halfspace_hardy(euclid.tensor_bump(1.0, 0.5, 2.0), 3, 40, 32)
    assert (report.lhs, report.rhs) == (clean.lhs, clean.rhs)


def test_halfspace_hardy_peak_memory_is_block_sized():
    import tracemalloc

    v = euclid.TransportedRadial(bump(0.5, 1.5), 3, 0.5)
    euclid.check_halfspace_hardy(v, 3, 16, 16)  # warm up lazy imports
    tracemalloc.start()
    try:
        euclid.check_halfspace_hardy(v, 3, 768, 768)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 768 * 768 * 8  # two 768^2 float arrays, 9 MiB

import numpy as np
import pytest

from hardyrellich import hardy
from hardyrellich import manifolds as mf
from hardyrellich.errors import ArgumentError, DomainError, SupportError
from hardyrellich.radial import (
    bump,
    dirichlet_form,
    grid_covering,
    seeded_bumps,
    weighted_l2,
)


def test_margin_positive_basic():
    rep = hardy.check_poincare_hardy(bump(1.0, 2.0), 3)
    assert rep.margin > 0
    assert rep.quad_error < 1e-8 * abs(rep.lhs)


def test_n3_sinh_coefficient_vanishes():
    # for N = 3 the rhs carries no sinh term: adding one with coefficient
    # (N-1)(N-3)/4 = 0 changes nothing
    u = bump(1.0, 2.0)
    rep = hardy.check_poincare_hardy(u, 3)
    man = mf.hyperbolic(3)
    g = grid_covering(u.support, 4096)
    rhs_by_hand = 0.25 * weighted_l2(u, lambda r: 1.0 / r**2, man, g)
    assert rep.rhs == pytest.approx(rhs_by_hand, rel=1e-12)


def test_far_support_hardy_dominates_sinh():
    u = bump(10.0, 11.0)
    rep = hardy.check_poincare_hardy(u, 5)
    assert rep.margin > 0
    man = mf.hyperbolic(5)
    g = grid_covering(u.support, 4096)
    hardy_term = 0.25 * weighted_l2(u, lambda r: 1.0 / r**2, man, g)
    sinh_term = 2.0 * weighted_l2(
        u, lambda r: np.exp(-2.0 * man.log_psi(r)), man, g
    )
    assert hardy_term > 1e4 * sinh_term


def test_general_model_euclidean_reduction():
    # weight w == 0: the margin is the classical Hardy margin with
    # 1/4 + (N-1)(N-3)/4 = (N-2)^2/4
    u = bump(2.0, 3.0)
    N = 5
    man = mf.euclidean(N)
    rep = hardy.check_general_model(u, man)
    g = grid_covering(u.support, 4096)
    classical = dirichlet_form(u, man, g) - (N - 2) ** 2 / 4.0 * weighted_l2(
        u, lambda r: 1.0 / r**2, man, g
    )
    assert rep.margin == pytest.approx(classical, rel=1e-9)


def test_general_model_matches_hyperbolic_specialization():
    u = bump(2.0, 3.0)
    rep_g = hardy.check_general_model(u, mf.hyperbolic(5))
    rep_h = hardy.check_poincare_hardy(u, 5)
    assert rep_g.margin == pytest.approx(rep_h.margin, rel=1e-12)


def test_general_model_superexp():
    man = mf.superexp(5, 2.0)
    rep = hardy.check_general_model(bump(2.0, 3.0), man)
    assert rep.margin > 0
    # the weight is dominated by psi''/psi ~ a^2 r^(2a-2) = 4 r^2 at large r
    assert man.ddpsi_over_psi(10.0) == pytest.approx(4 * 10.0**2, rel=0.02)


def test_margin_suite_seeded():
    worst = np.inf
    for N in (3, 4, 5, 7, 10):
        for u in seeded_bumps(7 + N, 10, 0.3, 6.0):
            rep = hardy.check_poincare_hardy(u, N, nodes=2048)
            worst = min(worst, rep.margin / abs(rep.lhs))
    assert worst >= -1e-8


def test_dimension_guard():
    with pytest.raises(DomainError):
        hardy.check_poincare_hardy(bump(1.0, 2.0), 2)


def test_poincare_gap():
    for N in (3, 5):
        est = hardy.poincare_gap(N, M=4096)
        lam = (N - 1) ** 2 / 4.0
        assert abs(est.value - lam) / lam < 0.01


def test_estimate_sharp_hardy_range_and_monotone():
    vals = []
    for rmax in (25.0, 50.0, 100.0):
        # monotonicity in r_max needs the resolution to stay ahead of the
        # continuum decrease: M = 8192 as in the acceptance setup
        est = hardy.estimate_sharp_hardy(3, r_max=rmax, M=8192)
        vals.append(est.value)
        assert 0.249 <= est.value <= 0.30
        assert len(est.history) >= 3
    assert vals[2] <= vals[1] <= vals[0]


def test_estimate_sharp_hardy_n5_lower_bound():
    est = hardy.estimate_sharp_hardy(5, r_min=1e-4, r_max=100.0, M=4096)
    assert est.value >= 0.249


def test_sweep_h_lambda_endpoints_and_shape():
    curve = hardy.sweep_h_lambda(5, M=4096)
    assert curve.h_values[0] == pytest.approx(2.25, rel=0.02)
    assert curve.h_values[-1] == pytest.approx(0.25, rel=0.02)
    assert curve.is_nonincreasing()
    assert curve.midpoint_concavity_defect() <= 1e-6
    # flat region: h(1) still at the euclidean constant
    lam_idx = int(np.argmin(np.abs(curve.lambdas - 1.0)))
    assert curve.h_values[lam_idx] == pytest.approx(2.25, rel=0.02)


def test_sweep_domain_guard():
    with pytest.raises(DomainError):
        hardy.sweep_h_lambda(5, lambdas=[5.0])


def test_iterated_log_improvement_margins():
    u = bump(0.2, 0.8)
    for k in (0, 1, 3):
        rep = hardy.check_iterated_log_improvement(u, 5, k)
        assert rep.margin > 0
    rep = hardy.check_iterated_log_improvement(u, 3, 1)
    assert rep.margin > 0


def test_iterated_log_k0_reduces_to_plain_inequality():
    u = bump(0.2, 0.8)
    m0 = hardy.check_iterated_log_improvement(u, 5, 0).margin
    mp = hardy.check_poincare_hardy(u, 5).margin
    assert m0 == pytest.approx(mp, rel=1e-9)


def test_iterated_log_margins_decrease_with_k():
    # each extra series term moves mass to the right side
    u = bump(0.2, 0.8)
    margins = [hardy.check_iterated_log_improvement(u, 5, k).margin for k in range(4)]
    assert all(np.diff(margins) < 0)


def test_iterated_log_support_guard():
    with pytest.raises(SupportError):
        hardy.check_iterated_log_improvement(bump(0.5, 1.5), 5, 1)


def test_trial_profile():
    tp = hardy.trial_profile(0.1, [0.1], 0.25)
    r = 0.05  # below delta: cutoff == 1
    x1 = 1.0 / (1.0 - np.log(r))
    assert tp(np.array([r]))[0] == pytest.approx(r**0.1 * x1**0.1, rel=1e-12)
    assert tp(np.array([0.6]))[0] == 0.0  # beyond 2*delta
    tp0 = hardy.trial_profile(0.3, [], 0.25)
    assert tp0(np.array([0.05]))[0] == pytest.approx(0.05**0.3, rel=1e-12)
    with pytest.raises(ArgumentError):
        hardy.trial_profile(0.1, [0.1], 0.6)
    # C^1 sanity across the cutoff ramp
    h = 1e-6
    for r0 in (0.05, 0.3, 0.4):
        fd = (tp(np.array([r0 + h]))[0] - tp(np.array([r0 - h]))[0]) / (2 * h)
        assert tp.d1(np.array([r0]))[0] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_optimality_scan_bound_and_trend():
    for k in (1, 2):
        q = hardy.iterated_log_optimality_scan(5, k)
        assert min(q) >= 0.25 - 1e-3
        assert all(np.diff(q) <= 1e-12)


def test_optimality_scan_matches_direct_quotient():
    # independent route at moderate parameters: assemble the level-0
    # functional by explicit quadrature and compare
    from hardyrellich.iterated_log import iterated_log_stack, iterated_log_profile
    from hardyrellich import supersolutions as ss
    from hardyrellich.radial import make_grid

    N, k, eps, delta = 5, 1, 0.5, 0.25
    u_t = hardy.trial_profile(eps, [eps] * k, delta)
    fk = iterated_log_profile(N, k)
    man = mf.hyperbolic(N)
    grid = make_grid(1e-10, 2 * delta, 8192, "geometric")
    r, w = grid.nodes, grid.quad_weights
    phik = np.exp(0.5 * (N - 1) * (np.log(r) - man.log_psi(r))) * fk(r)
    uu = phik * u_t(r)
    dlog = 0.5 * (N - 1) * (1.0 / r - 1.0 / np.tanh(r)) + fk.d1(r) / fk(r)
    du = phik * (dlog * u_t(r) + u_t.d1(r))
    mw = man.measure_weight(r)
    D = np.dot(w, du * du * mw)
    L2 = np.dot(w, uu * uu * mw)
    H = np.dot(w, uu * uu / r**2 * mw)
    S = np.dot(w, uu * uu * np.exp(-2 * man.log_psi(r)) * mw)
    X1 = iterated_log_stack(1, r)[0]
    den = np.dot(w, uu * uu / r**2 * X1**2 * mw)
    direct = (D - 4.0 * L2 - 2.0 * S - 0.25 * H) / den
    deco = hardy.iterated_log_optimality_scan(N, k, params=[eps])[0]
    assert deco == pytest.approx(direct, rel=1e-6)


def test_truncation_error_path(monkeypatch):
    # the numerator form is nonnegative on every admissible truncation, so the
    # indefinite branch is exercised by stubbing the eigensolve
    from hardyrellich.errors import TruncationError
    from hardyrellich.pencils import ConstantEstimate

    monkeypatch.setattr(
        hardy,
        "min_generalized_eigenvalue",
        lambda pencil, tol, label="": ConstantEstimate(-0.1, 1e-6, 1.0, 64, []),
    )
    with pytest.raises(TruncationError):
        hardy.estimate_sharp_hardy(3, M=64)

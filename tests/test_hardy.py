import numpy as np
import pytest

from hardyrellich import hardy, quotients
from hardyrellich import manifolds as mf
from hardyrellich.config import ToolkitConfig, default_config
from hardyrellich.errors import ArgumentError, DomainError, SupportError
from hardyrellich.radial import (
    RadialFunction,
    bilaplacian_form,
    bump,
    dirichlet_form,
    grid_covering,
    radial_sums,
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


CFG = default_config()


def _grids_r_min(r_min):
    """The default config with [grids] r_min = r_min."""
    return ToolkitConfig(sections={"grids": {"r_min": repr(r_min)}})


def test_dimension_guard():
    # every entry point refuses N = 2 through hyperbolic(N) or the one
    # dimension check of manifolds, before any other work
    u = bump(0.2, 0.8)
    for call in (lambda: hardy.check_poincare_hardy(u, 2),
                 lambda: hardy.check_general_model(u, mf.hyperbolic(2)),
                 lambda: quotients.estimate("poincare_gap_radial", 2, CFG),
                 lambda: hardy.estimate_sharp_hardy(2),
                 lambda: quotients.sweep_h_lambda(CFG, 2),
                 lambda: hardy.check_iterated_log_improvement(u, 2, 1),
                 lambda: hardy.iterated_log_optimality_scan(2, 1)):
        with pytest.raises(DomainError, match="dimension must be an integer >= 3"):
            call()


def test_poincare_gap():
    for N in (3, 5):
        est = quotients.estimate("poincare_gap_radial", N, CFG, M=4096)
        lam = (N - 1) ** 2 / 4.0
        assert abs(est.value - lam) / lam < 0.01


def test_estimate_sharp_hardy_range_and_monotone():
    vals = []
    for rmax in (25.0, 50.0, 100.0):
        # monotonicity in r_max needs the resolution to stay ahead of the
        # continuum decrease: M = 8192 as in the acceptance setup
        est = quotients.estimate("hardy_sharp_radial", 3, CFG, r_max=rmax, M=8192)
        vals.append(est.value)
        assert 0.249 <= est.value <= 0.30
        assert len(est.history) >= 3
    assert vals[2] <= vals[1] <= vals[0]


def test_estimate_sharp_hardy_n5_lower_bound():
    est = quotients.estimate("hardy_sharp_radial", 5, _grids_r_min(1e-4), r_max=100.0, M=4096)
    assert est.value >= 0.249


@pytest.mark.parametrize("r_min, r_max", [(1e-6, 25.0), (1e-6, 50.0), (1e-6, 100.0),
                                          (1e-4, 100.0), (1e-6, 1000.0)])
def test_sharp_hardy_n3_matches_its_exact_truncated_value(r_min, r_max):
    # for N = 3 the quotient is the 1-D Hardy quotient of v = u sinh r on
    # (r_min, r_max), whose minimum is 1/4 + pi^2/log^2(r_max/r_min)
    est = quotients.estimate("hardy_sharp_radial", 3, _grids_r_min(r_min), r_max=r_max)
    exact = 0.25 + np.pi**2 / np.log(r_max / r_min) ** 2
    assert abs(est.value - exact) <= 5e-8


def test_poincare_gap_n3_matches_its_exact_truncated_value():
    # for N = 3 the quotient is int v'^2 + int v^2 over int v^2 (v = u sinh r)
    est = quotients.estimate("poincare_gap_radial", 3, CFG)
    assert abs(est.value - (1.0 + np.pi**2 / (60.0 - 1e-3) ** 2)) <= 1e-8


def _shoot_sharp_hardy(N, r_min, r_max):
    """Smallest h with -v'' + (N-1)(N-3)/(4 sinh^2 r) v = h v / r^2 and
    v(r_min) = v(r_max) = 0, by shooting in t = log r, where the equation
    reads v_tt - v_t = ((N-1)(N-3)/4 (r/sinh r)^2 - h) v."""
    from scipy.integrate import solve_ivp
    from scipy.optimize import brentq

    c = (N - 1) * (N - 3) / 4.0
    t0, t1 = np.log(r_min), np.log(r_max)

    def shoot(h):
        def rhs(t, y):
            r = np.exp(t)
            return [y[1], y[1] + (c * (r / np.sinh(r)) ** 2 - h) * y[0]]

        return solve_ivp(rhs, (t0, t1), [0.0, 1.0], method="DOP853", rtol=1e-12,
                         atol=1e-14, dense_output=True)

    hs = np.arange(0.3, 2.0, 0.1)
    ends = [shoot(h).y[0, -1] for h in hs]
    i = next(i for i in range(len(hs) - 1) if ends[i] * ends[i + 1] < 0.0)
    h = brentq(lambda h: shoot(h).y[0, -1], hs[i], hs[i + 1], xtol=1e-13, rtol=1e-13)
    # the ground state: no sign change strictly inside the interval
    v = shoot(h).sol(np.linspace(t0, t1, 4001)[1:-1])[0]
    assert np.count_nonzero(np.diff(np.sign(v))) == 0
    return h


def test_sharp_hardy_n5_matches_ode_shooting():
    ref = _shoot_sharp_hardy(5, 1e-6, 100.0)
    assert ref == pytest.approx(0.69423878, abs=1e-8)
    assert abs(hardy.estimate_sharp_hardy(5).value - ref) <= 1e-6


def test_sharp_hardy_converges_at_second_order():
    (_, v0), (_, v1), (_, v2) = hardy.estimate_sharp_hardy(3, M=2048).history
    assert 1.8 <= np.log2(abs(v1 - v0) / abs(v2 - v1)) <= 2.2


def test_sweep_h_lambda_endpoints_and_shape():
    curve = quotients.sweep_h_lambda(CFG, 5)
    assert curve.h_values[0] == pytest.approx(2.25, rel=0.02)
    assert curve.h_values[-1] == pytest.approx(0.25, rel=0.02)
    assert curve.is_nonincreasing()
    assert curve.midpoint_concavity_defect() <= 1e-6
    # flat region: h(1) still at the euclidean constant
    lam_idx = int(np.argmin(np.abs(curve.lambdas - 1.0)))
    assert curve.h_values[lam_idx] == pytest.approx(2.25, rel=0.02)


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
    # a family whose third member reaches the unit sphere is refused by name
    family = bump(np.array([[0.2], [0.3], [0.5]]), np.array([[0.6], [0.7], [1.0]]))
    with pytest.raises(SupportError, match=r"bump\[0\.5,1\] support \[0\.5, 1\]"):
        hardy.check_iterated_log_improvement(family, 5, [0, 1])


def trial_profile(eps: float, k: int, delta: float, r):
    """The trial profile u = r^eps X_1^eps ... X_k^eps c and its u', with c
    the cutoff that is 1 on [0, delta] and 0 beyond 2 delta, written out
    from the core's log-derivative: u' = core (l1 c + c')."""
    from hardyrellich.iterated_log import iterated_log_stack, log_derivatives
    from hardyrellich.radial import plateau_cutoff

    c, c1 = plateau_cutoff(delta).jet(r, 1)
    core = r**eps * np.prod(iterated_log_stack(k, r) ** eps, axis=0)
    l1 = eps / r + log_derivatives([eps] * k, r)[0]
    return core * c, core * (l1 * c + c1)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_scan_is_the_trial_profile_quotient(k):
    # the scan forms the t-free factors once; the quotient of each trial
    # profile at t, written out, is the same to rounding
    from hardyrellich.iterated_log import iterated_log_stack
    from hardyrellich.radial import _integrate, make_grid

    grid = make_grid(1e-10, 0.5, 8192, "geometric")
    r = grid.nodes
    pk = np.prod(iterated_log_stack(k, r), axis=0)
    params = [0.5 * 2.0**-j for j in range(5)]
    want = []
    for t in params:
        u, du = trial_profile(t, k, 0.25, r)
        want.append(0.25 + _integrate(du * du * r / pk, grid, "num", subgrid=False)
                    / _integrate(u * u * pk / r, grid, "den", subgrid=False))
    assert hardy.iterated_log_optimality_scan(5, k, params) == pytest.approx(want, rel=1e-14)


def test_scan_rejects_nonpositive_parameters():
    with pytest.raises(ArgumentError, match="scan parameters must be positive"):
        hardy.iterated_log_optimality_scan(5, 1, params=[0.0])


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
    fk = iterated_log_profile(N, k)
    man = mf.hyperbolic(N)
    grid = make_grid(1e-10, 2 * delta, 8192, "geometric")
    r, w = grid.nodes, grid.quad_weights
    phik = np.exp(0.5 * (N - 1) * (np.log(r) - man.log_psi(r))) * fk(r)
    u0, u1 = trial_profile(eps, k, delta, r)
    uu = phik * u0
    f0, f1 = fk.jet(r, 1)
    dlog = 0.5 * (N - 1) * (1.0 / r - 1.0 / np.tanh(r)) + f1 / f0
    du = phik * (dlog * u0 + u1)
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


def test_model_integrals_evaluate_each_profile_once(monkeypatch):
    # one jet of u and one psi^(N-1) per grid, and the same bits as the
    # one-term forms, which evaluate them again for every term
    base = bump(1.0, 2.0)
    man = mf.superexp(4, 1.5)
    grid = grid_covering(base.support, 512)
    r = grid.nodes
    weights = [1.0, 1.0 / r**2, np.exp(-2.0 * man.log_psi(r)),
               mf.hardy_weight_general(man, r)]
    expected = [dirichlet_form(base, man, grid)]
    expected += [weighted_l2(base, w, man, grid) for w in weights]

    calls = []
    measure = mf.ModelManifold.measure_weight
    monkeypatch.setattr(mf.ModelManifold, "measure_weight",
                        lambda self, r: calls.append("psi") or measure(self, r))
    u = RadialFunction(lambda r, order: calls.append(f"jet{order}") or base.jet(r, order),
                       support=base.support)
    terms = [("grad2", 1.0)] + [("v2", w) for w in weights]
    assert radial_sums(u, grid, terms, man.measure_weight(r))[:, 0].tolist() == expected
    assert sorted(calls) == ["jet1", "psi"]

    calls.clear()
    hardy.check_general_model(u, man, nodes=512)  # one grid, and its subgrid
    assert sorted(calls) == ["jet1", "psi"]


def _family_checks():
    """Each family check of the suites, as (check of a test function,
    the family it takes, jet calls it makes: one per grid)."""
    from hardyrellich import euclid, rellich

    return {
        "poincare_hardy": (lambda u: hardy.check_poincare_hardy(u, 5, 256),
                           seeded_bumps(8, 4, 0.3, 6.0), 1),
        "general_model": (lambda u: hardy.check_general_model(u, mf.superexp(5, 2.0), 256),
                          seeded_bumps(8, 4, 0.5, 4.0), 1),
        "iterated_log": (lambda u: hardy.check_iterated_log_improvement(u, 5, range(4), 256),
                         seeded_bumps(8, 4, 0.15, 0.85), 1),
        "poincare_rellich": (lambda u: rellich.check_poincare_rellich(u, 6, 256),
                             seeded_bumps(8, 4, 0.3, 6.0), 1),
        "sinh_hardy_1d": (lambda u: rellich.check_sinh_hardy_1d(u, 256),
                          seeded_bumps(8, 4, 0.5, 5.0), 1),
        "mode_chain": (lambda u: rellich.mode_chain_margin(
            rellich.reduced_from_radial(u, 5), 5, 3, 256), seeded_bumps(8, 3, 0.4, 4.0), 1),
        "mapped_rellich": (lambda u: rellich.check_mapped_rellich(u, 5, 256),
                           seeded_bumps(8, 4, 2.0, 6.0), 1),
        "ball_hardy": (lambda u: euclid.check_ball_hardy(u, 3, 256),
                       seeded_bumps(8, 4, 0.05, 0.9), 1),
        "ball_identities": (lambda u: euclid.ball_identity_check(u, 5, 256),
                            seeded_bumps(8, 4, 0.4, 3.0), 2),
        "bilaplacian_vs_reduced": (lambda u: (
            bilaplacian_form(u, mf.hyperbolic(5), grid_covering(u.support, 256)),
            rellich.radial_reduced_form(rellich.reduced_from_radial(u, 5), 5, 0,
                                        grid_covering(u.support, 256))),
            seeded_bumps(8, 4, 0.4, 5.0), 2),
    }


@pytest.mark.parametrize("kind", list(_family_checks()))
def test_family_check_evaluates_its_jet_once_per_grid(kind):
    # a family's check gives what its members' checks give, one by one,
    # from one jet call per grid for the whole family
    check, family, grids = _family_checks()[kind]
    calls = []
    counted = RadialFunction(lambda r, order: calls.append(order) or family.jet(r, order),
                             support=family.support, label=family.label,
                             members=family.members)
    stacked = check(counted)
    assert len(calls) == grids
    singles = [check(m) for m in family]
    if isinstance(singles[0], tuple):  # identities: one array per quantity
        assert all(np.array_equal(np.stack(column), values)
                   for column, values in zip(zip(*singles), stacked))
    else:  # margin reports, member-major for each series length
        by_member = [rep for j in range(len(singles)) for rep in stacked[j::len(singles)]]
        assert by_member == [rep for reps in singles for rep in reps]


def test_iterated_log_lengths_from_one_grid():
    u = bump(0.2, 0.8)
    together = hardy.check_iterated_log_improvement(u, 5, range(4))
    assert together == [hardy.check_iterated_log_improvement(u, 5, k) for k in range(4)]
    assert [rep.name for rep in together] == [f"iterated_log_improvement(k={k})"
                                              for k in range(4)]

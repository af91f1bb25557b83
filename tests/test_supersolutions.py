import numpy as np
import pytest
import sympy

from hardyrellich import manifolds as mf
from hardyrellich import supersolutions as ss
from hardyrellich.errors import ArgumentError, DomainError
from hardyrellich.iterated_log import iterated_log_profile
from hardyrellich.radial import make_grid

FAMILIES = [mf.hyperbolic(3), mf.hyperbolic(5), mf.euclidean(4), mf.superexp(5, 2.0)]


def test_warp_identity_spot_values():
    assert ss.warp_power_identity_residual(mf.hyperbolic(3), -1.0, 1.0) < 1e-10
    # euclidean: both sides vanish termwise for every alpha
    for alpha in (-2.0, 0.7, 3.0):
        assert ss.warp_power_identity_residual(mf.euclidean(5), alpha, 2.0) < 1e-14
    man = mf.superexp(4, 2.0)
    assert ss.warp_power_identity_residual(man, (man.N - 1) / 2.0, 2.0) < 1e-8


def test_stacked_warp_residuals_are_the_per_alpha_residuals():
    alphas = (-2.0, -0.5, 1.0, 2.0)
    for man in FAMILIES:
        stacked = ss.warp_power_identity_residual(man, np.array(alphas)[:, None],
                                                  ss.IDENTITY_SAMPLE)
        assert stacked.shape == (4, ss.IDENTITY_SAMPLE.size)
        for alpha, res in zip(alphas, stacked):
            assert np.array_equal(res, ss.warp_power_identity_residual(
                man, alpha, ss.IDENTITY_SAMPLE))


def test_warp_identity_full_sample():
    for man in FAMILIES:
        for alpha in (-2.0, -0.5, 1.0, (man.N - 1) / 2.0):
            res = ss.warp_power_identity_residual(man, alpha, ss.IDENTITY_SAMPLE)
            assert float(np.max(res)) <= 1e-8


def test_warp_identity_against_sympy_oracle():
    # independent route: symbolically expand -Lap Phi for Phi = (sinh r/r)^a
    r, a = sympy.symbols("r a", positive=True)
    psi = sympy.sinh(r)
    phi = (psi / r) ** a
    lap = sympy.diff(phi, r, 2) + (3 - 1) * sympy.diff(psi, r) / psi * sympy.diff(phi, r)
    k_rad = -sympy.diff(psi, r, 2) / psi
    k_tan = -(sympy.diff(psi, r) ** 2 - 1) / psi**2
    lhs_sym = -lap - a * (k_rad + (a - 2 + 3) * k_tan) * phi
    rhs_sym = (
        -a * (a - 2 + 3) * phi / psi**2
        - a * (a + 1) / r**2 * phi
        + (2 * a**2 + a * (3 - 1)) / r * sympy.diff(psi, r) / psi * phi
    )
    for aval, rval in ((-1, 1.0), (2.5, 0.7)):
        diff = float((lhs_sym - rhs_sym).subs({a: aval, r: rval}).evalf(30))
        assert abs(diff) < 1e-12  # exact identity, numeric evaluation floor
        # and our numeric LHS/RHS split matches the symbolic LHS value
        lhs_val = float(lhs_sym.subs({a: aval, r: rval}).evalf(30))
        man = mf.hyperbolic(3)
        s = man.dpsi_over_psi(rval)
        m = aval * (s - 1.0 / rval)
        mp = aval * (man.ddpsi_over_psi(rval) - s * s + 1.0 / rval**2)
        phi_val = float((psi / r).subs(r, rval) ** aval)
        mine = (
            -(mp + m * m) * phi_val
            - 2 * s * m * phi_val
            - aval * (-1.0 + (aval + 1.0) * -1.0) * phi_val
        )
        assert mine == pytest.approx(lhs_val, rel=1e-10)


def test_product_identity_listed_multipliers():
    man = mf.hyperbolic(5)
    assert ss.product_profile_identity_residual(man, ss.power_profile(-1.5), 0.7) < 1e-10
    # f == 1 reduces to the pure-power identity
    assert ss.product_profile_identity_residual(mf.superexp(4, 2.0),
                                                ss.power_profile(0.0), 1.0) < 1e-10
    # the sign-changing second solution satisfies the same equation
    man3 = mf.hyperbolic(3)
    assert ss.product_profile_identity_residual(man3, ss.power_log_profile(3), 0.5) < 1e-10


def test_product_identity_full_sample():
    for man in FAMILIES:
        N = man.N
        for f in (ss.power_profile((2.0 - N) / 2.0), ss.power_log_profile(N)):
            res = ss.product_profile_identity_residual(man, f, ss.IDENTITY_SAMPLE)
            assert float(np.max(res)) <= 1e-8
        rin = np.geomspace(1e-3, 0.99, 64)
        for k in (1, 2, 3):
            res = ss.product_profile_identity_residual(
                man, iterated_log_profile(N, k), rin
            )
            assert float(np.max(res)) <= 1e-8


def test_supersolution_equality_on_models():
    for man in FAMILIES:
        res = ss.supersolution_equality_residual(man, ss.IDENTITY_SAMPLE)
        assert float(np.max(res)) <= 1e-8


def test_ground_state_values():
    assert ss.ground_state(3, 1.0) == pytest.approx(1.0 / np.sinh(1.0), rel=1e-12)
    # r -> 0: diverges like r^(-1/2)
    assert ss.ground_state(3, 1e-4) * 1e-2 == pytest.approx(1.0, abs=1e-3)
    # the comparison profile on H^N is the ground state, bit for bit
    r = np.geomspace(1e-6, 800.0, 257)
    for N in (3, 5, 8):
        assert np.array_equal(ss.comparison_profile(mf.hyperbolic(N))(r),
                              ss.ground_state(N, r))
    for call in (lambda: ss.ground_state(2, 1.0),
                 lambda: ss.ground_state_residual(2, np.array([0.1, 1.0])),
                 lambda: ss.minimal_growth_ratios(2, 1e-3, 10.0),
                 lambda: ss.null_criticality_scan(2, [2.0])):
        with pytest.raises(DomainError, match="dimension must be an integer >= 3"):
            call()


def test_ground_state_solves_critical_equation():
    for N in (3, 5, 8):
        res = ss.ground_state_residual(N, np.array([0.1, 1.0, 10.0]))
        assert float(np.max(res)) < 1e-10


def test_ground_state_positive_and_second_solution_sign_change():
    r = np.geomspace(1e-3, 30.0, 200)
    assert np.all(ss.ground_state(5, r) > 0.0)
    f = ss.power_log_profile(5)
    vals = f(r)
    signs = np.sign(vals[np.abs(vals) > 1e-14])
    changes = np.count_nonzero(np.diff(signs) != 0)
    assert changes == 1
    assert f(0.5) > 0.0 > f(2.0)


def test_minimal_growth_ratios():
    r0, rinf = ss.minimal_growth_ratios(5, 1e-3, 10.0)
    assert r0 == pytest.approx(1.0 / (3.0 * np.log(1e3)), rel=1e-12)
    assert rinf == pytest.approx(1.0 / (3.0 * np.log(10.0)), rel=1e-12)
    seq = [ss.minimal_growth_ratios(5, rs, 10.0)[0] for rs in (1e-3, 1e-6, 1e-9)]
    assert all(np.diff(seq) < 0)
    seq = [ss.minimal_growth_ratios(5, 1e-3, rl)[1] for rl in (10.0, 1e2, 1e3)]
    assert all(np.diff(seq) < 0)


def test_minimal_growth_errors():
    with pytest.raises(ArgumentError):
        ss.minimal_growth_ratios(5, 1e-3, 1.0)
    with pytest.raises(ArgumentError):
        ss.minimal_growth_ratios(5, 1.5, 2.0)


def test_null_criticality_scan():
    pairs = ss.null_criticality_scan(5, [4.0])
    assert pairs[0][1] == pytest.approx(1.0, abs=1e-4)
    pairs = ss.null_criticality_scan(3, [8.0])
    assert pairs[0][1] == pytest.approx(2.0, abs=1e-4)
    slope = ss.null_criticality_slope(5, (2.0, 4.0, 8.0, 16.0))
    assert slope == pytest.approx(0.25, abs=1e-3)


def test_null_criticality_slope_reads_the_ground_state(monkeypatch):
    # v_+ r^0.01 makes the integrand r^0.02/(4r), whose mass over
    # [e^-k, 1] is (1 - e^(-0.02 k))/0.08: the fitted slope leaves the
    # 1e-3 window around 1/4
    ks = np.array([2.0, 4.0, 8.0, 16.0])
    ground = ss.ground_state
    monkeypatch.setattr(ss, "ground_state", lambda N, r: ground(N, r) * r**0.01)
    slope = ss.null_criticality_slope(5, tuple(ks))
    expected = np.polyfit(ks, (1.0 - np.exp(-0.02 * ks)) / 0.08, 1)[0]
    assert slope == pytest.approx(expected, abs=1e-4)
    assert abs(slope - 0.25) > 1e-3


def test_profile_nonincreasing():
    grid = make_grid(1e-3, 20.0, 512, "geometric")
    assert ss.check_profile_nonincreasing(mf.hyperbolic(4), grid) is True
    assert ss.check_profile_nonincreasing(mf.euclidean(3), grid) is True
    assert ss.check_profile_nonincreasing(mf.superexp(5, 2.0), grid) is True
    # condition violated: reported inapplicable, not False
    # psi = sin r from its four ratios: log sin r, cot r, -1 and -1
    sin_man = mf.ModelManifold(4, "sin", lambda r: np.log(np.sin(r)), lambda r: 1.0 / np.tan(r),
                               lambda r: -np.ones_like(r), lambda r: -np.ones_like(r))
    grid2 = make_grid(0.05, 1.5, 256, "uniform")
    assert ss.check_profile_nonincreasing(sin_man, grid2) is None

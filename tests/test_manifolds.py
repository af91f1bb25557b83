import dataclasses

import numpy as np
import pytest
import sympy

from hardyrellich import manifolds as mf
from hardyrellich.errors import DomainError
from hardyrellich.radial import make_grid


def test_curvatures_hyperbolic_exact_minus_one():
    man = mf.hyperbolic(3)
    assert mf.curvature_rad(man, 1.0) == pytest.approx(-1.0, rel=1e-14)
    assert mf.curvature_tan(man, 1.0) == pytest.approx(-1.0, rel=1e-14)
    # overflow-safe across the whole working range
    r = np.geomspace(1e-3, 50.0, 200)
    assert np.max(np.abs(mf.curvature_rad(man, r) + 1.0)) <= 1e-12
    assert np.max(np.abs(mf.curvature_tan(man, r) + 1.0)) <= 1e-12


def test_curvatures_euclidean_zero():
    man = mf.euclidean(5)
    assert mf.curvature_rad(man, 2.0) == 0.0
    assert mf.curvature_tan(mf.euclidean(3), 0.5) == 0.0


def test_superexp_curvature_against_sympy():
    # independent symbolic differentiation of r*exp(r^2)
    r = sympy.symbols("r", positive=True)
    psi = r * sympy.exp(r**2)
    k_rad = sympy.lambdify(r, -sympy.diff(psi, r, 2) / psi)
    k_tan = sympy.lambdify(r, -(sympy.diff(psi, r) ** 2 - 1) / psi**2)
    man = mf.superexp(4, 2.0)
    for rv in (0.5, 1.0, 3.0):
        assert mf.curvature_rad(man, rv) == pytest.approx(k_rad(rv), rel=1e-12)
        assert mf.curvature_tan(man, rv) == pytest.approx(k_tan(rv), rel=1e-12)
    # leading asymptotics -a^2 r^(2a-2): exact gap is a(1+a) r^(a-2)
    assert mf.curvature_rad(man, 3.0) == pytest.approx(-36.0 - 6.0, rel=1e-12)
    assert abs(mf.curvature_rad(man, 50.0) / (-4 * 50.0**2) - 1.0) < 1e-3


def test_superexp_tan_curvature_value():
    # psi(1) = e, psi'(1) = 3e
    man = mf.superexp(4, 2.0)
    e = np.exp(1.0)
    assert mf.curvature_tan(man, 1.0) == pytest.approx(
        -((3 * e) ** 2 - 1.0) / e**2, rel=1e-12
    )


def test_hardy_weight_closed_forms():
    for N in (3, 5, 9):
        man = mf.hyperbolic(N)
        w = mf.hardy_weight_general(man, np.array([0.1, 1.0, 30.0]))
        assert np.all(w == (N - 1) ** 2 / 4.0)  # exact closed form
        assert np.all(mf.hardy_weight_general(mf.euclidean(N), np.array([0.5, 7.0])) == 0.0)


def test_hardy_weight_superexp_asymptotics():
    man = mf.superexp(4, 2.0)
    lead = lambda r: (4 - 1) ** 2 * 4.0 / 4.0 * r**2  # (N-1)^2 a^2 r^(2a-2) / 4
    assert abs(mf.hardy_weight_general(man, 5.0) / lead(5.0) - 1.0) < 0.06
    assert abs(mf.hardy_weight_general(man, 50.0) / lead(50.0) - 1.0) < 1e-3


def test_monotonicity_condition_builtin_and_sin():
    grid = make_grid(1e-3, 20.0, 256, "geometric")
    for man in (mf.hyperbolic(4), mf.euclidean(3), mf.superexp(5, 2.0)):
        ok, idx = mf.check_monotonicity_condition(man, grid)
        assert ok and idx is None
    # psi = sin r, which bends back: its four ratios are log sin r, cot r,
    # psi''/psi = -1 and (cos^2 r - 1)/sin^2 r = -1
    sin_man = mf.ModelManifold(4, "sin", lambda r: np.log(np.sin(r)), lambda r: 1.0 / np.tan(r),
                               lambda r: -np.ones_like(r), lambda r: -np.ones_like(r))
    grid = make_grid(0.05, 1.5, 512, "uniform")
    ok, idx = mf.check_monotonicity_condition(sin_man, grid)
    assert not ok
    # bisection oracle for the sign change of (N-2)cos r - (N-1) r sin r
    lo, hi = 0.05, 1.5
    g = lambda r: 2.0 * np.cos(r) - 3.0 * r * np.sin(r)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if g(mid) > 0 else (lo, mid)
    root = 0.5 * (lo + hi)
    assert grid.nodes[idx - 1] < root < grid.nodes[idx] + 1e-12


def test_monotonicity_condition_finite_past_psi_overflow():
    # sinh r overflows past r = 710 and r e^(r^2) past r = 26.6; the
    # hypothesis and the profile check read only the ratios
    from hardyrellich.supersolutions import check_profile_nonincreasing

    wide = make_grid(1.0, 800.0, 512, "geometric")
    assert mf.check_monotonicity_condition(mf.hyperbolic(3), wide) == (True, None)
    assert check_profile_nonincreasing(mf.hyperbolic(3), wide) is True
    grid = make_grid(1.0, 40.0, 512, "geometric")
    assert mf.check_monotonicity_condition(mf.superexp(5, 2.0), grid) == (True, None)


def test_laplace_radial_ground_state_relation():
    # for the N=3 comparison profile: -Lap(v) = (1 + 1/(4 r^2)) v, with the
    # radial Laplacian v'' + (N-1)(psi'/psi) v' taken from the profile's jet
    from hardyrellich.supersolutions import comparison_profile

    man = mf.hyperbolic(3)
    r = 1.0
    v, v1, v2 = comparison_profile(man).jet(r, 2)
    lap = v2 + 2 * man.dpsi_over_psi(r) * v1
    assert lap == pytest.approx(-(1.0 + 0.25 / r**2) * v, rel=1e-12)


def test_derivatives_match_finite_differences():
    # the ratios every consumer reads against central differences of psi
    # with h = 1e-5, divided by psi and evaluated in high precision: the
    # second difference of sinh at r = 10 cancels 10 digits, which float64
    # cannot spare at the 1e-6 relative tolerance
    import mpmath as mp

    h = mp.mpf("1e-5")
    mp_psi = {
        "euclidean": lambda r: r,
        "hyperbolic": mp.sinh,
        "superexp": lambda r: r * mp.e ** (r**2),
    }
    r_samples = np.geomspace(1e-3, 10.0, 25)
    with mp.workdps(40):
        for man in (mf.euclidean(4), mf.hyperbolic(5), mf.superexp(3, 2.0)):
            psi = mp_psi[man.family]
            for rv in r_samples:
                rm = mp.mpf(float(rv))
                p0 = psi(rm)
                s1 = (psi(rm + h) - psi(rm - h)) / (2 * h) / p0
                s2 = float((psi(rm + h) - 2 * p0 + psi(rm - h)) / h**2 / p0)
                assert abs(float(man.dpsi_over_psi(rv)) / float(s1) - 1.0) < 1e-6
                # psi''/psi relative to max(|psi''|/psi, 1)
                assert abs(float(man.ddpsi_over_psi(rv)) - s2) / max(abs(s2), 1.0) < 1e-6
                # (psi'^2 - 1)/psi^2 relative to the larger of its two pieces
                tan = float(s1**2 - 1 / p0**2)
                scale = float(max(s1**2, 1 / p0**2))
                assert abs(float(man.tan_ratio(rv)) - tan) / scale < 1e-6


def test_pole_conditions():
    # every family closes smoothly at the pole: psi(r)/r -> 1, psi' -> 1
    # and psi'' -> 0, with psi, psi' and psi'' rebuilt from the ratios
    for man in (mf.euclidean(3), mf.hyperbolic(6), mf.superexp(4, 2.0),
                mf.superexp(5, 2.5)):
        for r in (1e-6, 1e-8):
            psi = np.exp(man.log_psi(r))
            assert abs(psi / r - 1.0) <= 1e-4
            assert abs(psi * man.dpsi_over_psi(r) - 1.0) <= 1e-4
            assert abs(psi * man.ddpsi_over_psi(r)) <= 1e-4
    # superexp near the pole: psi'' -> 0 like r^(a-1)
    man = mf.superexp(4, 2.0)
    ddpsi = lambda r: np.exp(man.log_psi(r)) * man.ddpsi_over_psi(r)  # noqa: E731
    assert abs(ddpsi(1e-8)) < abs(ddpsi(1e-6))


def test_dimension_and_domain_guards():
    with pytest.raises(DomainError):
        mf.hyperbolic(2)
    with pytest.raises(DomainError):
        mf.superexp(4, 1.0)
    with pytest.raises(DomainError):
        mf.curvature_rad(mf.hyperbolic(3), -1.0)
    with pytest.raises(DomainError):
        mf.curvature_tan(mf.hyperbolic(3), 0.0)
    # at r = 701 the volume weight sinh^2 r overflows float64; the ratios
    # and everything built from them stay finite
    man = mf.hyperbolic(3)
    for value in (man.log_psi(701.0), man.inv_psi_sq(701.0),
                  mf.curvature_rad(man, 701.0), mf.curvature_tan(man, 701.0),
                  mf.hardy_weight_general(man, 701.0)):
        assert np.isfinite(value)


def test_every_model_checks_its_dimension_however_built():
    # the check lives in ModelManifold itself, so a model copied with
    # another N is checked as the factories' models are
    for N in (2, 2.5, 0):
        with pytest.raises(DomainError, match="integer >= 3"):
            dataclasses.replace(mf.hyperbolic(3), N=N)
    flat = mf.euclidean(3)
    with pytest.raises(DomainError):  # a model built from its own ratios
        mf.ModelManifold(2, "flat", flat.log_psi, flat.dpsi_over_psi, flat.ddpsi_over_psi,
                         flat.tan_ratio)
    man = dataclasses.replace(mf.superexp(5, 2.0), N=4.0)
    assert man.N == 4 and isinstance(man.N, int)


def test_measure_weight_log_domain():
    man = mf.hyperbolic(9)
    # sinh(80) alone is ~2.8e34; the 8th power only fits through log_psi
    val = man.measure_weight(np.array([80.0]))
    assert np.isfinite(val).all()
    assert np.log(val[0]) == pytest.approx(8 * (80.0 - np.log(2.0)), rel=1e-10)


def test_substitution_potential_closed_forms():
    # q = a psi''/psi + a(a-1)(psi'/psi)^2, a = (N-1)/2, against its closed
    # forms: (N-1)(N-3)/4 coth^2 r + (N-1)/2 on hyperbolic(N), and
    # (N-1)(N-3)/(4 r^2) on euclidean(N)
    r = np.geomspace(1e-6, 700.0, 999)
    for N in (3, 5, 8):
        c = (N - 1) * (N - 3) / 4.0
        hyp = c / np.tanh(r) ** 2 + (N - 1) / 2.0
        assert mf.hyperbolic(N).substitution_potential(r) == pytest.approx(hyp, rel=1e-14)
        flat = mf.euclidean(N).substitution_potential(r)
        if N == 3:
            assert np.all(flat == 0.0)
        else:
            assert flat == pytest.approx(c / r**2, rel=1e-14)
    # finite where psi = r e^(r^2) itself overflows
    assert np.isfinite(mf.superexp(5, 2.0).substitution_potential(30.0))
    assert mf.superexp(5, 2.0).log_psi(30.0) > np.log(np.finfo(float).max)

"""The table of claimed constants: each entry is its paper formula, in the
same bits as the literal it replaced, and every consumer reads it when it
runs, so perturbing one entry moves every margin, estimator and check row
that states it."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from hardyrellich import claims, euclid, hardy, pencils, quotients, rellich, suites
from hardyrellich import manifolds as mf
from hardyrellich import supersolutions as ss
from hardyrellich.config import ToolkitConfig, default_config
from hardyrellich.pencils import ConstantEstimate
from hardyrellich.radial import bump

# entry -> (the paper's formula, the floating-point literal each consumer
# spelled before the table existed); N-free entries ignore N
PAPER = {
    "spectral_gap": (lambda N: Fraction(N - 1, 2) ** 2, lambda N: (N - 1) ** 2 / 4.0),
    "HARDY_R2": (lambda N: Fraction(1, 2) ** 2, lambda N: 0.25),
    "sinh_hardy": (lambda N: Fraction(N - 1, 2) * Fraction(N - 3, 2),
                   lambda N: (N - 1) * (N - 3) / 4.0),
    "euclid_hardy": (lambda N: Fraction(N - 2, 2) ** 2, lambda N: (N - 2) ** 2 / 4.0),
    "ITERATED_LOG": (lambda N: Fraction(1, 4), lambda N: 0.25),
    "BALL_HARDY": (lambda N: Fraction(1, 4), lambda N: 0.25),
    "HALFSPACE_HARDY": (lambda N: Fraction(1, 4), lambda N: 0.25),
    "rellich_l2": (lambda N: Fraction(N - 1, 2) ** 4, lambda N: (N - 1) ** 4 / 16.0),
    "rellich_r2": (lambda N: Fraction(N - 1, 2) ** 2 / 2, lambda N: (N - 1) ** 2 / 8.0),
    "RELLICH_R4": (lambda N: Fraction(3, 4) ** 2, lambda N: 9.0 / 16.0),
    "euclid_rellich": (lambda N: Fraction(N * (N - 4), 4) ** 2,
                       lambda N: N * N * (N - 4) ** 2 / 16.0),
    "SINH_1D_S4": (lambda N: Fraction(3, 2) ** 2, lambda N: 2.25),
    "SINH_1D_S2": (lambda N: Fraction(1), lambda N: 1.0),
    "HALFSPACE_AUX": (lambda N: Fraction(3, 2) ** 2, lambda N: 2.25),
    "halfspace_y2_grad": (lambda N: Fraction(N * (N - 2), 2), lambda N: N * (N - 2) / 2.0),
    "halfspace_y2_l2": (lambda N: Fraction(2 * N * N - 4 * N + 1, 16),
                        lambda N: (2.0 * N * N - 4.0 * N + 1.0) / 16.0),
    "halfspace_y4_grad": (lambda N: Fraction(N * N - 2 * N - 4, 2),
                          lambda N: (N * N - 2.0 * N - 4.0) / 2.0),
    "halfspace_y4_l2": (lambda N: 9 * Fraction(2 * N * N - 4 * N - 7, 16),
                        lambda N: 9.0 * (2.0 * N * N - 4.0 * N - 7.0) / 16.0),
}


def _entries():
    return sorted(name for name, value in vars(claims).items()
                  if isinstance(value, Fraction)
                  or callable(value) and getattr(value, "__module__", "") == claims.__name__)


def _value(name, N):
    entry = getattr(claims, name)
    return entry(N) if callable(entry) else entry


def test_every_entry_has_its_formula_and_consumers():
    assert sorted(PAPER) == _entries() == sorted(CONSUMERS)


@pytest.mark.parametrize("name", sorted(PAPER))
def test_entry_is_its_paper_formula_in_the_same_bits(name):
    formula, literal = PAPER[name]
    for N in range(3, 13):
        value = _value(name, N)
        assert isinstance(value, Fraction)
        assert value == formula(N)
        assert float(value).hex() == float(literal(N)).hex()


def test_claims_relate_as_the_paper_states():
    for N in range(5, 13):
        assert claims.rellich_l2(N) == claims.spectral_gap(N) ** 2
        # the 1/r^2 Rellich constant is the 1-D Hardy constant times (N-1)^2/2
        assert claims.rellich_r2(N) == Fraction((N - 1) ** 2, 2) * claims.HARDY_R2


# ---------------------------------------------------------------------------
# perturbation: every consumer reads the table


CFG = default_config()
SMALL_SWEEP = ToolkitConfig(sections={"hardy": {"sweep_M": "256"}})
U = bump(0.5, 2.0)
BALL_U = bump(0.2, 0.8)
TENSOR = euclid.tensor_bump(1.0, 0.5, 2.0)


def _estimate(value, r_max=1.0):
    """A stub estimate on [1e-3, r_max] whose two-level history gives it
    the budget 1e-4."""
    return ConstantEstimate(1e-3, r_max, [(64, value + 1e-4), (128, value)])


def _stubbed(check, stubs):
    """check() with the module attributes in stubs replaced, as a thunk."""

    def run():
        with pytest.MonkeyPatch.context() as mp:
            for (module, attr), value in stubs.items():
                mp.setattr(module, attr, value)
            return check()

    return run


# an h(lambda) curve for N = 5 with both ends 1.95% below their claims
# 9/4 and 1/4: inside the 2% windows, and out of them once a claim grows
# by 1e-3
H0, H1 = 0.9805 * 2.25, 0.9805 * 0.25
H_CURVE = quotients.LambdaCurve(5, np.array([0.0, 1.0, 2.0]),
                            np.array([H0, 0.5 * (H0 + H1), H1]))


def _sharp_row(name, runs):
    return lambda: suites.sharp_constants(CFG, name, runs).passed


# the 1-D Hardy anchor at its exact truncated value 1/4 + pi^2/log^2(1e3),
# the others 1e-5 inside the low end of their windows, claim - budget: a
# claim 1e-3 larger puts each outside
ANCHOR_STUBS = {"one_d_hardy": _estimate(0.25 + np.pi**2 / np.log(1e3) ** 2),
                "one_d_rellich": _estimate(9 / 16 - 1e-4 + 1e-5),
                "euclid_rellich_radial": _estimate(25 / 16 - 1e-4 + 1e-5)}
ANCHORS = _stubbed(_sharp_row("one_d_and_euclid_anchors", suites.ANCHOR_RUNS), {
    (quotients, "estimate"): lambda name, N, cfg, **kw: ANCHOR_STUBS[name]})
ITERLOG_SCAN = _stubbed(lambda: suites.iterated_log_optimality_scan(CFG, 5, (1,)).passed, {
    (hardy, "iterated_log_optimality_scan"): lambda N, k: [0.25 - 1e-3 + 2e-4]})
RELLICH_FLOOR = _stubbed(
    _sharp_row("rellich_sharp_r2", [("rellich_sharp_r2_radial", 5, (1e6,))]), {
        (quotients, "estimate"):
            lambda name, N, cfg, **kw: _estimate(2.0 - 1e-4 + 1e-5, kw["r_max"])})


def _rellich_warm_start():
    """The warm start the rellich_sharp_r2 row derives from the claim for
    its second truncation, from a stubbed first estimate of 2.5."""
    nears = []

    def stub(name, N, cfg, **kw):
        nears.append(kw["near"])
        return _estimate(2.5, kw["r_max"])

    _stubbed(_sharp_row("rellich_sharp_r2", [("rellich_sharp_r2_radial", 5, (1e4, 1e5))]),
             {(quotients, "estimate"): stub})()
    return nears[1]


H_ENDS = lambda: suites.h_lambda_endpoints_and_shape(CFG, 5, H_CURVE).passed  # noqa: E731
JOINT = lambda: suites.joint_sharpness_sum_exact(CFG).value  # noqa: E731
SPLIT_ROW = lambda: suites.euclidean_rellich_split_exact(CFG).value  # noqa: E731
SPLIT = lambda: rellich.verify_euclidean_rellich_split(5)[0]  # noqa: E731
GROUND = lambda: ss.ground_state_residual(5, np.array([0.1, 1.0, 10.0]))  # noqa: E731
EQUALITY = lambda: ss.supersolution_equality_residual(  # noqa: E731
    mf.hyperbolic(5), ss.IDENTITY_SAMPLE)
HYP_MARGIN = lambda: euclid.hyperbolic_margin_without_sinh(U, 5, nodes=512)  # noqa: E731


def _hardy(N=5):
    return hardy.check_poincare_hardy(U, N, nodes=512)


def _model():
    return hardy.check_general_model(U, mf.superexp(5, 2.0), nodes=512)


def _iterlog(k):
    return hardy.check_iterated_log_improvement(BALL_U, 5, k, nodes=512)


def _rellich():
    return rellich.check_poincare_rellich(U, 5, nodes=512)


def _chain():
    return rellich.mode_chain_margin(rellich.reduced_from_radial(U, 5), 5, 1, nodes=512)


def _mapped():
    return rellich.check_mapped_rellich(rellich.mapped_from_radial(bump(1.0, 2.0), 5), 5,
                                        nodes=256)


def _halfspace(which):
    return euclid.check_halfspace_rellich(TENSOR, 5, which, 32, 32)


def _principal():
    return rellich.principal_rellich_margin(U, 5, nodes=512)


# entry -> the consumers that state it, as thunks whose result must move
CONSUMERS = {
    "spectral_gap": [
        lambda: _hardy().lhs,
        lambda: _iterlog(0).lhs,
        lambda: quotients.estimate("hardy_sharp_radial", 3, CFG, r_max=10.0, M=256).value,
        lambda: quotients.sweep_h_lambda(SMALL_SWEEP, 5).h_values,
        # 1e-5 inside the low end of the N = 5 window, claim - budget
        _stubbed(_sharp_row("poincare_gap_within_1pct", [("poincare_gap_radial", 5, (None,))]),
                 {(quotients, "estimate"):
                  lambda name, N, cfg, **kw: _estimate(4.0 - 1e-4 + 1e-5)}),
        HYP_MARGIN,
        GROUND,
        JOINT,
    ],
    "HARDY_R2": [
        lambda: _hardy().rhs,
        lambda: _model().rhs,
        lambda: _iterlog(0).rhs,
        lambda: euclid.check_ball_hardy(BALL_U, 3, nodes=512).rhs,
        lambda: euclid.check_halfspace_hardy(TENSOR, 3, 32, 32).rhs,
        HYP_MARGIN,
        H_ENDS,
        ANCHORS,
        GROUND,
        EQUALITY,
        lambda: suites.null_criticality_slope(CFG, 5).value,
        JOINT,
    ],
    "sinh_hardy": [
        lambda: _hardy().rhs,
        lambda: _model().rhs,
        lambda: _iterlog(0).rhs,
        GROUND,
        EQUALITY,
    ],
    "euclid_hardy": [H_ENDS],
    "ITERATED_LOG": [lambda: _iterlog(1).rhs, ITERLOG_SCAN],
    "BALL_HARDY": [lambda: euclid.check_ball_hardy(BALL_U, 3, nodes=512).rhs],
    "HALFSPACE_HARDY": [lambda: euclid.check_halfspace_hardy(TENSOR, 3, 32, 32).rhs],
    "rellich_l2": [
        lambda: _rellich().lhs,
        _principal,
        lambda: _chain().rhs,
        lambda: _mapped().rhs,
        lambda: quotients.estimate("rellich_sharp_r2_radial", 5, CFG, r_max=10.0, M=256).value,
        JOINT,
    ],
    "rellich_r2": [
        lambda: _rellich().rhs,
        _principal,
        lambda: _chain().rhs,
        lambda: _mapped().rhs,
        lambda: _halfspace("y2").rhs,
        lambda: _halfspace("y4").rhs,
        _rellich_warm_start,
        RELLICH_FLOOR,
        JOINT,
    ],
    "RELLICH_R4": [
        lambda: _rellich().rhs,
        _principal,
        lambda: _chain().rhs,
        lambda: _mapped().rhs,
        lambda: _halfspace("y2").rhs,
        lambda: _halfspace("y4").rhs,
        ANCHORS,
        SPLIT_ROW,
        SPLIT,
    ],
    "euclid_rellich": [ANCHORS, SPLIT_ROW, SPLIT],
    "SINH_1D_S4": [lambda: rellich.check_sinh_hardy_1d(U, nodes=512).rhs],
    "SINH_1D_S2": [lambda: rellich.check_sinh_hardy_1d(U, nodes=512).rhs],
    "HALFSPACE_AUX": [lambda: euclid.aux_gradient_inequality(TENSOR, 5, 32, 32).rhs],
    "halfspace_y2_grad": [lambda: _halfspace("y2").lhs],
    "halfspace_y2_l2": [lambda: _halfspace("y2").rhs],
    "halfspace_y4_grad": [lambda: _halfspace("y4").lhs],
    "halfspace_y4_l2": [lambda: _halfspace("y4").rhs],
}


def _perturb(monkeypatch, name, scale=Fraction(1001, 1000)):
    entry = getattr(claims, name)
    monkeypatch.setattr(claims, name,
                        (lambda N: entry(N) * scale) if callable(entry) else entry * scale)


@pytest.mark.parametrize("name", sorted(CONSUMERS))
def test_every_consumer_moves_with_its_claim(name, monkeypatch):
    before = [np.asarray(consumer(), dtype=float) for consumer in CONSUMERS[name]]
    _perturb(monkeypatch, name)
    after = [np.asarray(consumer(), dtype=float) for consumer in CONSUMERS[name]]
    still = [i for i, (b, a) in enumerate(zip(before, after)) if np.array_equal(b, a)]
    assert still == []


def test_poincare_hardy_rhs_grows_by_the_perturbation(monkeypatch):
    # rhs = 1/4 int u^2/r^2 + ..., so 1/4 -> 1/4 (1 + 1e-3) adds exactly
    # 1e-3 * 1/4 int u^2/r^2, and the lhs does not move
    before = _hardy(3)
    by_r2 = before.rhs / 0.25  # N = 3: the sinh term vanishes
    _perturb(monkeypatch, "HARDY_R2")
    after = _hardy(3)
    assert after.lhs == before.lhs
    assert after.rhs - before.rhs == pytest.approx(1e-3 * 0.25 * by_r2, rel=1e-9)


# the Hardy estimators (every order-2 quotient of the table, and the
# h(lambda) sweep) derive 1/4 and (N-1)(N-3)/4 from psi in the
# ground-state substitution: they measure these claims, so they must not
# read them
ESTIMATORS = [
    *[lambda name=name: quotients.estimate(name, 5, CFG).value
      for name, q in quotients.QUOTIENTS.items() if q.order == pencils.ORDER_LAPLACIAN],
    lambda: quotients.sweep_h_lambda(CFG, 5).h_values,
]


@pytest.mark.parametrize("name", ["HARDY_R2", "sinh_hardy"])
def test_hardy_estimators_do_not_read_what_they_estimate(name, monkeypatch):
    before = [np.asarray(estimate(), dtype=float) for estimate in ESTIMATORS]
    _perturb(monkeypatch, name)
    after = [np.asarray(estimate(), dtype=float) for estimate in ESTIMATORS]
    assert all(np.array_equal(b, a) for b, a in zip(before, after))


def test_h_lambda_row_catches_a_wrong_hardy_claim(monkeypatch):
    # h(lambda) at lambda = (N-1)^2/4 estimates 1/4 (0.25275 on the default
    # truncation); a claim of 53/200 = 0.265 lies 4.6% above it, outside
    # the row's 2% window
    assert suites.h_lambda_endpoints_and_shape(CFG, 5).passed
    monkeypatch.setattr(claims, "HARDY_R2", Fraction(53, 200))
    assert not suites.h_lambda_endpoints_and_shape(CFG, 5).passed


# ---------------------------------------------------------------------------
# the sharp-constant rows: a false claim fails its row


@pytest.mark.parametrize("name, scale, suite, row", [
    # an L^2 constant too large leaves the r^-2 numerator indefinite
    ("rellich_l2", Fraction(1_000_001, 1_000_000), "rellich", "rellich_sharp_r2"),
    ("spectral_gap", Fraction(1001, 1000), "hardy", "hardy_sharp_range_and_monotone"),
])
def test_a_falsified_claim_fails_its_row_and_the_manifest_is_written(
        name, scale, suite, row, monkeypatch):
    _perturb(monkeypatch, name, scale)
    manifest = suites.run_suite(suite, CFG)
    (result,) = [r for r in manifest.results if r.name == row]
    assert not result.passed and result.value < 0.0
    assert manifest.exit_code == 1


# each estimate with a closed-form truncated value, and the claim it is
# built from: the estimators do not read the claim, so only the exact
# value moves
EXACT = [
    ("hardy_sharp_range_and_monotone", ("hardy_sharp_radial", 3, (100.0,)), "HARDY_R2"),
    ("poincare_gap_within_1pct", ("poincare_gap_radial", 3, (None,)), "spectral_gap"),
    ("one_d_and_euclid_anchors", ("one_d_hardy", 1, (None,)), "HARDY_R2"),
]


@pytest.mark.parametrize("row, run, name", EXACT, ids=[run[0] for _, run, _ in EXACT])
def test_an_exact_value_catches_a_claim_off_by_one_in_a_million(row, run, name):
    assert suites.sharp_constants(CFG, row, [run]).passed
    for scale in (Fraction(999_999, 1_000_000), Fraction(1_000_001, 1_000_000)):
        with pytest.MonkeyPatch.context() as mp:
            _perturb(mp, name, scale)
            assert not suites.sharp_constants(CFG, row, [run]).passed


# ---------------------------------------------------------------------------
# the exact rows: each proves its polynomial claim for every N >= 5 (and
# mode n >= 0), so a perturbation fails it, wherever it first shows


def _replace(module, name, change):
    """A perturbation: module.name replaced by change(module.name)."""
    return lambda mp: mp.setattr(module, name, change(getattr(module, name)))


# case -> (row, perturbation)
EXACT_ROWS = {
    "split: RELLICH_R4 + 1/16": (
        suites.euclidean_rellich_split_exact,
        _replace(claims, "RELLICH_R4", lambda c: c + Fraction(1, 16))),
    **{f"joint: {name} (1 + 1e-6)": (
        suites.joint_sharpness_sum_exact,
        lambda mp, name=name: _perturb(mp, name, Fraction(1_000_001, 1_000_000)))
       for name in ("spectral_gap", "HARDY_R2", "rellich_l2", "rellich_r2")},
    # A_n - lambda^3/1e6 keeps its minimum at n = 0 for every n <= 50 and
    # N <= 12, the modes the row once sampled, but A_1000 = -3.0e9 at N = 5
    "minima: sinh4_coefficient - lambda^3/1e6": (
        suites.mode_coefficient_minima_exact,
        _replace(rellich, "sinh4_coefficient", lambda a: lambda n, N: (
            a(n, N) - Fraction(rellich.mode_eigenvalue(n, N) ** 3, 10**6)))),
    "minima: min_sinh2_closed_form + 1/8": (
        suites.mode_coefficient_minima_exact,
        _replace(rellich, "min_sinh2_closed_form", lambda b: lambda N: b(N) + Fraction(1, 8))),
    "consistency: k1_exact + 1/100": (
        suites.asymptotic_consistency_exact,
        _replace(rellich, "asymptotic_constants", lambda c: lambda N: dataclasses.replace(
            c(N), k1_exact=c(N).k1_exact + Fraction(1, 100)))),
}


@pytest.mark.parametrize("case", sorted(EXACT_ROWS))
def test_an_exact_row_fails_under_a_perturbation(case, monkeypatch):
    check, perturb = EXACT_ROWS[case]
    assert check(CFG).passed and check(CFG).value == 0
    perturb(monkeypatch)
    result = check(CFG)
    assert not result.passed and result.value > 0


def test_the_difference_helper_reports_a_degree_above_its_bound():
    failed = suites._failed_differences
    # (N-5)^5 >= 0 for every N >= 5, but its degree is not 4: its fifth
    # difference, 5! = 120, counts
    assert failed(lambda N: Fraction(N - 5) ** 4, (4,), nonnegative=True) == 0
    assert failed(lambda N: Fraction(N - 5) ** 5, (4,), nonnegative=True) == 1
    # N n^3 has degree 3 in n: bounded by 2, its two nonzero third
    # differences in n (j = 0, 1) count
    assert failed(lambda N, n: Fraction(N * n**3), (1, 3), nonnegative=True) == 0
    assert failed(lambda N, n: Fraction(N * n**3), (1, 2), nonnegative=True) == 2
    # N - 6 < 0 at N = 5: its zeroth difference counts as an inequality,
    # both nonzero differences as an identity
    assert failed(lambda N: Fraction(N - 6), (1,), nonnegative=True) == 1
    assert failed(lambda N: Fraction(N - 6), (1,)) == 2

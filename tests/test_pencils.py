import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hardyrellich import manifolds as mf
from hardyrellich import cli, hardy, pencils, rellich
from hardyrellich.errors import ArgumentError, NumericError
from hardyrellich.radial import make_grid


def hardy_pencil_euclid(N=3, r_min=1e-10, r_max=1e10, M=8192):
    grid = make_grid(r_min, r_max, M, "geometric")
    return pencils.assemble_pencil(mf.euclidean(N), None,
                                   lambda r: 1.0 / r**2, grid)


def test_euclid_hardy_quarter():
    # the truncated value sits at 1/4 + pi^2/ln^2(r_max/r_min)
    est = pencils.smallest_eigenvalue(hardy_pencil_euclid())
    assert abs(est - 0.25) < 1e-2
    assert est >= 0.25 - 1e-3


def test_hyperbolic_gap_n3():
    grid = make_grid(1e-3, 60.0, 8192, "log_graded", 1.0)
    p = pencils.assemble_pencil(mf.hyperbolic(3), None, 1.0, grid)
    assert abs(pencils.smallest_eigenvalue(p) - 1.0) < 1e-2


def test_denominator_sign_violation():
    grid = make_grid(0.5, 2.0, 64, "uniform")
    with pytest.raises(ArgumentError, match="W <= 0"):
        pencils.assemble_pencil(mf.euclidean(3), None,
                                lambda r: 1.0 / r**2 - 1.0, grid)


def test_identity_pencil_exact_one():
    grid = make_grid(1.0, 2.0, 64, "uniform")
    bands = np.zeros((2, 64))
    bands[0] = 1.0
    p = pencils.QuadraticPencil(bands, np.ones(64), grid, pencils.ORDER_LAPLACIAN)
    assert pencils.smallest_eigenvalue(p) == 1.0
    est = pencils.min_generalized_eigenvalue(p)
    assert est.value == 1.0 and len(est.history) == 1


def test_one_d_hardy_anchor():
    # numerator int z'^2, denominator int z^2/x^2 on the line measure

    def build(m):
        return pencils.assemble_custom_pencil(
            make_grid(1e-10, 1e10, m, "geometric"), log_weight=np.zeros_like,
            drift=None, zeroth=None, V=None, W=lambda r: 1.0 / r**2,
            order=pencils.ORDER_LAPLACIAN, rebuild=build)

    est = pencils.min_generalized_eigenvalue(build(8192))
    assert abs(est.value - 0.25) < 1e-2
    assert len(est.history) >= 3


def test_history_refinement_monotone():
    grid = make_grid(1e-6, 100.0, 8192, "log_graded", 1.0)
    p = pencils.assemble_pencil(mf.hyperbolic(3), 1.0, lambda r: 1.0 / r**2, grid)
    est = pencils.min_generalized_eigenvalue(p)
    d1 = abs(est.history[1][1] - est.history[0][1])
    d2 = abs(est.history[2][1] - est.history[1][1])
    assert d2 <= d1
    assert est.history[-1][0] == 8192 and est.value == est.history[-1][1]


def test_euclid_rellich_pencil():
    grid = make_grid(1e-9, 1e9, 8192, "geometric")
    p = pencils.assemble_pencil(mf.euclidean(5), None, lambda r: 1.0 / r**4,
                                grid, pencils.ORDER_BILAPLACIAN)
    est = pencils.smallest_eigenvalue(p)
    assert abs(est - 25.0 / 16.0) < 5e-2


@st.composite
def spd_banded_pencils(draw):
    """A = L L^T for a random lower-banded L with positive diagonal, so A is
    SPD with the bandwidth of L; B is a positive diagonal."""
    bw = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(8, 64))
    diag = draw(hnp.arrays(float, n, elements=st.floats(0.1, 2.0)))
    offs = draw(hnp.arrays(float, (bw, n), elements=st.floats(-1.0, 1.0)))
    b_diag = draw(hnp.arrays(float, n, elements=st.floats(0.1, 10.0)))
    L = np.diag(diag)
    for k in range(1, bw + 1):
        L += np.diag(offs[k - 1, : n - k], -k)
    A = L @ L.T
    a_bands = np.zeros((bw + 1, n))
    for k in range(bw + 1):
        a_bands[k, : n - k] = np.diag(A, -k)
    grid = make_grid(1.0, 2.0, n, "uniform")
    order = pencils.ORDER_LAPLACIAN if bw == 1 else pencils.ORDER_BILAPLACIAN
    return pencils.QuadraticPencil(a_bands, b_diag, grid, order), A


# warm-start values handed to the solver, as functions of the true value;
# every one, however wrong, must leave the answer within tol
NEAR = {
    "none": lambda ref: None,
    "accurate": lambda ref: ref,
    "close": lambda ref: ref * (1.0 + 3e-5),
    "far_above": lambda ref: 40.0 * ref + 3.0,
    "far_below": lambda ref: ref - 0.999 * abs(ref),
    "wrong_sign": lambda ref: -ref,
    "nan": lambda ref: float("nan"),
    "plus_inf": lambda ref: float("inf"),
    "minus_inf": lambda ref: float("-inf"),
    "outside_bracket": lambda ref: -1e300,
}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(spd_banded_pencils(), st.sampled_from([1e-6, 1e-8, 1e-10]),
       st.sampled_from(sorted(NEAR)))
def test_solver_matches_dense_eigh(case, tol, near):
    pencil, A = case
    ref = scipy.linalg.eigh(A, np.diag(pencil.b_diag), eigvals_only=True)[0]
    mu = pencils.smallest_eigenvalue(pencil, tol, near=NEAR[near](ref))
    assert abs(mu - ref) <= tol * max(1.0, abs(mu))
    if near in ("nan", "plus_inf", "minus_inf", "outside_bracket"):
        assert mu == pencils.smallest_eigenvalue(pencil, tol)  # ignored


def _banded_pencil(A, bw):
    n = A.shape[0]
    a_bands = np.zeros((bw + 1, n))
    for k in range(bw + 1):
        a_bands[k, : n - k] = np.diag(A, -k)
    order = pencils.ORDER_LAPLACIAN if bw == 1 else pencils.ORDER_BILAPLACIAN
    return pencils.QuadraticPencil(a_bands, np.ones(n), make_grid(1.0, 2.0, n, "uniform"), order)


def _assert_certified(pencil, A, tol):
    ref = scipy.linalg.eigh(A, eigvals_only=True)[0]
    mu = pencils.smallest_eigenvalue(pencil, tol)
    assert abs(mu - ref) <= tol * max(1.0, abs(mu))
    assert _positive_definite(pencil, mu - 2 * tol * abs(mu))
    assert not _positive_definite(pencil, mu + 2 * tol * abs(mu))


@pytest.mark.parametrize("bw", [1, 2])
def test_start_vector_orthogonal_to_ground_state(bw):
    # T = tridiag(1, 2, 1) of even size has an antisymmetric ground state,
    # orthogonal to the solver's start vector B^(-1/2) 1 (all ones here):
    # in exact arithmetic inverse iteration would find the second
    # eigenvalue.  T^2 has the same eigenvectors.
    n = 40
    T = 2.0 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)
    A = (T if bw == 1 else T @ T) + np.eye(n)
    ground = scipy.linalg.eigh(A)[1][:, 0]
    assert abs(ground.sum()) < 1e-12
    _assert_certified(_banded_pencil(A, bw), A, 1e-8)


def test_nearly_degenerate_lowest_pair():
    # two Dirichlet chains joined by a weak bond: the symmetric and
    # antisymmetric ground states split by ~1e-6 relative, so inverse
    # iteration from any shift not that close converges slowly
    m = 20
    A = 3.0 * np.eye(2 * m) - np.eye(2 * m, k=1) - np.eye(2 * m, k=-1)
    A[m - 1, m] = A[m, m - 1] = -2.4e-4
    lam = scipy.linalg.eigh(A, eigvals_only=True)
    assert 3e-7 < (lam[1] - lam[0]) / lam[0] < 3e-6
    _assert_certified(_banded_pencil(A, 1), A, 1e-8)


def _positive_definite(pencil, mu):
    ab = pencil.a_bands.copy()
    ab[0] -= mu * pencil.b_diag
    try:
        scipy.linalg.cholesky_banded(ab, lower=True)
    except scipy.linalg.LinAlgError:
        return False
    return True


def _assert_tolerance_honoured(monkeypatch, module, estimate, bandwidth):
    # inertia brackets the true eigenvalue: A - mu B is positive definite
    # exactly below it, so mu must sit within tol of that switch
    solved = []

    def recording(pencil, tol, near=None):
        solved.append(pencil)
        return pencils.min_generalized_eigenvalue(pencil, tol, near)

    monkeypatch.setattr(module, "min_generalized_eigenvalue", recording)
    tol = 1e-8
    mu = estimate(tol).value
    pencil = solved[-1]
    assert pencil.bandwidth == bandwidth
    assert _positive_definite(pencil, mu - 2 * tol * abs(mu))
    assert not _positive_definite(pencil, mu + 2 * tol * abs(mu))


def test_tolerance_honoured_on_pentadiagonal_pencil(monkeypatch):
    _assert_tolerance_honoured(
        monkeypatch, rellich,
        lambda tol: rellich.estimate_sharp_rellich_r2(5, M=8192, tol=tol), 2)


def test_tolerance_honoured_on_tridiagonal_pencil(monkeypatch):
    _assert_tolerance_honoured(
        monkeypatch, hardy, lambda tol: hardy.estimate_sharp_hardy(3, tol=tol), 1)


def _count_lapack_calls(monkeypatch):
    """Record every factorization (its shift) and every solve with one
    (the string "solve") through the one LAPACK entry point."""
    calls = []
    factor = pencils._positive_definite

    def counted(pencil, mu):
        calls.append(mu)
        solve = factor(pencil, mu)
        if solve is None:
            return None

        def counted_solve(rhs):
            calls.append("solve")
            return solve(rhs)

        return counted_solve

    monkeypatch.setattr(pencils, "_positive_definite", counted)
    return calls


def test_factorization_count(monkeypatch):
    # inverse iteration on the factor at the lower bracket end, certified
    # by two inertia tests, keeps a three-level estimate within 50 LAPACK
    # calls, factorizations and solves alike
    calls = _count_lapack_calls(monkeypatch)
    for estimate in (lambda: hardy.estimate_sharp_hardy(3),
                     lambda: rellich.estimate_sharp_rellich_r2(5, M=8192)):
        calls.clear()
        estimate()
        assert 0 < len(calls) <= 50
        assert "solve" in calls
    # a neighbouring truncation's value warm-starts the coarsest level too
    near = hardy.estimate_sharp_hardy(3, r_max=25.0).value
    counts = []
    for warm in (None, near):
        calls.clear()
        hardy.estimate_sharp_hardy(3, r_max=50.0, near=warm)
        counts.append(len(calls))
    assert counts[1] < counts[0]


def _factorizations(calls):
    return sum(1 for c in calls if c != "solve")


def test_sharp_large_M_factorization_count(monkeypatch):
    # the benchmark's M = 32768 pair: one probe below each coarser level's
    # value, inverse iteration on that factor while it pays, and a
    # certificate above the Rayleigh quotient first
    calls = _count_lapack_calls(monkeypatch)
    hardy.estimate_sharp_hardy(3, M=32768)
    rellich.estimate_sharp_rellich_r2(5, M=32768)
    assert _factorizations(calls) <= 32


def test_verify_all_lapack_calls(monkeypatch, tmp_path):
    # factorizations and solves alike, through the one LAPACK entry point
    calls = _count_lapack_calls(monkeypatch)
    assert cli.main(["verify", "--suite", "all", "--out", str(tmp_path)]) == 0
    assert len(calls) < 533


@pytest.mark.parametrize("offset", [1e-6, -1e-6])
def test_warm_solve_with_accurate_near_factors_three_times(monkeypatch, offset):
    # the sharp Hardy pencil at M = 8192: one factorization below near,
    # then one on each side of the converged Rayleigh quotient
    grid = make_grid(1e-6, 100.0, 8192, "log_graded", 1.0)
    p = pencils.assemble_pencil(mf.hyperbolic(3), 1.0, lambda r: 1.0 / r**2, grid)
    value = pencils.smallest_eigenvalue(p)
    calls = _count_lapack_calls(monkeypatch)
    mu = pencils.smallest_eigenvalue(p, near=value + offset)
    assert abs(mu - value) <= 1e-8  # both within tol * max(1, |value|)
    assert _factorizations(calls) <= 3


def test_discrete_minimum_principle():
    # pencil minima stay above the continuum sharp constants minus 1e-2
    cases = []
    grid = make_grid(1e-3, 60.0, 8192, "log_graded", 1.0)
    for N in (3, 5):
        p = pencils.assemble_pencil(mf.hyperbolic(N), None, 1.0, grid)
        cases.append((pencils.smallest_eigenvalue(p), (N - 1) ** 2 / 4.0))
    cases.append((pencils.smallest_eigenvalue(hardy_pencil_euclid()), 0.25))
    for value, sharp in cases:
        assert value >= sharp - 1e-2


def test_budget_exhaustion_raises_with_diagnostics():
    grid = make_grid(1e-6, 100.0, 2048, "log_graded", 1.0)
    p = pencils.assemble_pencil(mf.hyperbolic(3), 1.0, lambda r: 1.0 / r**2, grid)
    with pytest.raises(NumericError, match="budget"):
        pencils.smallest_eigenvalue(p, tol=1e-12, budget=3)
    # warm-start probes count against the same budget
    near = pencils.smallest_eigenvalue(p)
    with pytest.raises(NumericError, match=r"budget: bracket \[.*\], width"):
        pencils.smallest_eigenvalue(p, tol=1e-12, budget=3, near=near)


def test_budget_counts_every_lapack_call(monkeypatch):
    grid = make_grid(1e-6, 100.0, 2048, "log_graded", 1.0)
    p = pencils.assemble_pencil(mf.hyperbolic(3), 1.0, lambda r: 1.0 / r**2, grid)
    calls = _count_lapack_calls(monkeypatch)
    value = pencils.smallest_eigenvalue(p)
    used = len(calls)
    assert "solve" in calls
    assert pencils.smallest_eigenvalue(p, budget=used) == value
    with pytest.raises(NumericError, match=r"size 2048, bandwidth 1"):
        pencils.smallest_eigenvalue(p, budget=used - 1)


def test_tolerance_guard():
    grid = make_grid(1.0, 2.0, 64, "uniform")
    p = pencils.assemble_pencil(mf.euclidean(3), None, 1.0, grid)
    with pytest.raises(ArgumentError):
        pencils.smallest_eigenvalue(p, tol=0.0)


def test_refinement_error_decreases_for_bilaplacian():
    def build(m):
        grid = make_grid(1e-9, 1e9, m, "geometric")
        return pencils.assemble_pencil(mf.euclidean(5), None,
                                       lambda r: 1.0 / r**4, grid,
                                       pencils.ORDER_BILAPLACIAN)

    p = build(4096)
    p.rebuild = build
    est = pencils.min_generalized_eigenvalue(p)
    d1 = abs(est.history[1][1] - est.history[0][1])
    d2 = abs(est.history[2][1] - est.history[1][1])
    assert d2 <= d1


@pytest.mark.parametrize("order", [2, "2", 4, "4", "laplacian"], ids=repr)
def test_pencil_order_must_be_a_named_constant(order):
    grid = make_grid(1.0, 2.0, 64, "uniform")
    with pytest.raises(ArgumentError, match="unknown pencil order"):
        pencils.assemble_pencil(mf.hyperbolic(3), None, 1.0, grid, order)
    with pytest.raises(ArgumentError, match="unknown pencil order"):
        pencils.assemble_custom_pencil(grid, lambda r: np.zeros_like(r), None, None,
                                       None, 1.0, order)

"""Margin checks and sharp-constant estimation for the improved Hardy
inequalities: the shifted-Laplacian inequality on hyperbolic space, its
curvature-weighted generalization on models, the h(lambda) interpolation
curve, and the iterated-log series improvement on the unit ball."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DomainError, SupportError, TruncationError
from .iterated_log import iterated_log_stack, log_derivatives
from .manifolds import (
    ModelManifold,
    _inv_sinh_sq,
    flat_line,
    hardy_weight_general,
    hyperbolic,
)
from .pencils import ConstantEstimate, assemble_pencil, min_generalized_eigenvalue
from .radial import (
    RadialFunction,
    RadialGrid,
    dirichlet_form,
    grid_covering,
    make_grid,
    plateau_cutoff,
    weighted_l2,
)

@dataclass
class MarginReport:
    """One inequality evaluation: lhs >= rhs up to quadrature error.

    Reports carry no verdict: a check row judges margin / |lhs| against
    the configured margin tolerance."""

    name: str
    N: int
    family: str
    test_id: str
    lhs: float
    rhs: float
    margin: float
    quad_error: float

    @classmethod
    def from_sides(cls, sides, sizes: tuple[int, ...], name: str, N: int,
                   family: str, test_id: str) -> "MarginReport":
        """Report for sides(*sizes) -> (lhs, rhs); the margin change against
        sides at half of every size is the quadrature error."""
        lhs, rhs = sides(*sizes)
        lhs_c, rhs_c = sides(*(n // 2 for n in sizes))
        return cls(name, N, family, test_id, lhs, rhs, lhs - rhs,
                   abs((lhs - rhs) - (lhs_c - rhs_c)))


@dataclass
class LambdaCurve:
    """Estimated best Hardy constant as a function of the subtracted
    spectral fraction lambda in [0, (N-1)^2/4]."""

    N: int
    lambdas: np.ndarray
    h_values: np.ndarray
    r_min: float
    r_max: float
    M: int

    def is_nonincreasing(self, slack: float = 1e-9) -> bool:
        return bool(np.all(np.diff(self.h_values) <= slack))

    def midpoint_concavity_defect(self) -> float:
        """max over interior points of (h[i-1]+h[i+1])/2 - h[i]; concavity
        means this is <= 0 up to solver noise."""
        h = self.h_values
        if h.size < 3:
            return 0.0
        return float(np.max(0.5 * (h[:-2] + h[2:]) - h[1:-1]))


def _model_integrals(u: RadialFunction, manifold: ModelManifold, grid: RadialGrid):
    vals = {
        "dirichlet": dirichlet_form(u, manifold, grid),
        "l2": weighted_l2(u, 1.0, manifold, grid),
        "hardy": weighted_l2(u, lambda r: 1.0 / r**2, manifold, grid),
        "psi2": weighted_l2(
            u, lambda r: np.exp(-2.0 * manifold.log_psi(r)), manifold, grid
        ),
    }
    return vals


def check_poincare_hardy(u: RadialFunction, N: int, nodes: int = 4096) -> MarginReport:
    """Margin of the sharp Poincare-Hardy inequality on hyperbolic space:

      int |grad u|^2 - (N-1)^2/4 int u^2
        >= 1/4 int u^2/r^2 + (N-1)(N-3)/4 int u^2/sinh^2 r

    (radial reduction, volume weight sinh^(N-1) r).  For N = 3 the sinh
    coefficient vanishes and this is the plain optimal-constant form.
    """
    if N < 3:
        raise DomainError("the inequality needs N >= 3")
    man = hyperbolic(N)
    lam = (N - 1) ** 2 / 4.0
    c_sinh = (N - 1) * (N - 3) / 4.0

    def one(nn: int):
        vals = _model_integrals(u, man, grid_covering(u.support, nn))
        lhs = vals["dirichlet"] - lam * vals["l2"]
        rhs = 0.25 * vals["hardy"] + c_sinh * vals["psi2"]
        return lhs, rhs

    return MarginReport.from_sides(one, (nodes,), "poincare_hardy",
                                   N, "hyperbolic", u.label)


def check_general_model(u: RadialFunction, manifold: ModelManifold,
                        nodes: int = 4096) -> MarginReport:
    """Margin of the curvature-weighted Hardy inequality on a model:

      int |grad u|^2 - int w u^2 >= 1/4 int u^2/r^2 + (N-1)(N-3)/4 int u^2/psi^2

    with w the curvature Hardy weight.  Reduces to the classical Hardy
    inequality for the euclidean family and to the hyperbolic form above
    for psi = sinh r.
    """
    if manifold.N < 3:
        raise DomainError("the inequality needs N >= 3")
    N = manifold.N

    def one(nn: int):
        grid = grid_covering(u.support, nn)
        vals = _model_integrals(u, manifold, grid)
        weight_term = weighted_l2(
            u, lambda r: hardy_weight_general(manifold, r), manifold, grid
        )
        lhs = vals["dirichlet"] - weight_term
        rhs = 0.25 * vals["hardy"] + (N - 1) * (N - 3) / 4.0 * vals["psi2"]
        return lhs, rhs

    return MarginReport.from_sides(one, (nodes,), "general_model_hardy",
                                   N, manifold.family, u.label)


def poincare_gap(N: int, r_min: float = 1e-3, r_max: float = 60.0,
                 M: int = 8192, tol: float = 1e-8) -> ConstantEstimate:
    """Bottom of the radial L^2 pencil for the hyperbolic Laplacian on a
    truncation; reproduces the spectral gap (N-1)^2/4 as the ends widen."""
    if N < 3:
        raise DomainError("the gap estimator needs N >= 3")
    man = hyperbolic(N)
    grid = make_grid(r_min, r_max, M, "log_graded", 1.0)
    pencil = assemble_pencil(man, None, 1.0, grid)
    return min_generalized_eigenvalue(pencil, tol, label=f"poincare_gap(N={N})")


def estimate_sharp_hardy(N: int, r_min: float = 1e-6, r_max: float = 100.0,
                         M: int = 8192, tol: float = 1e-8) -> ConstantEstimate:
    """Radial-sector estimate of the best constant in front of int u^2/r^2.

    Minimal eigenvalue of the pencil with numerator
    Dirichlet - (N-1)^2/4 * L^2 and denominator int u^2/r^2 on the
    truncation; tends to 1/4 from above as the truncation widens (the
    remaining gap is pi^2/log^2(r_max/r_min) to leading order).
    """
    if N < 3:
        raise DomainError("the Hardy estimator needs N >= 3")
    man = hyperbolic(N)
    lam = (N - 1) ** 2 / 4.0
    grid = make_grid(r_min, r_max, M, "log_graded", 1.0)
    pencil = assemble_pencil(man, lam, lambda r: 1.0 / r**2, grid)
    est = min_generalized_eigenvalue(pencil, tol, label=f"hardy_sharp_radial(N={N})")
    if est.value < 0.0:
        raise TruncationError(
            "numerator form is indefinite on this truncation; widen "
            f"[{r_min:g}, {r_max:g}]"
        )
    return est


def sweep_h_lambda(N: int, lambdas=None, r_min: float = 1e-9,
                   r_max: float = 1e26, M: int = 4096,
                   tol: float = 1e-10) -> LambdaCurve:
    """h(lambda) = best constant of int u^2/r^2 under numerator
    Dirichlet - lambda L^2, for lambda in [0, (N-1)^2/4] (radial sector).

    Assembled after the exact ground-state substitution u = v_+ phi, under
    which the quotient becomes a weight-r pencil with potential
    ((N-1)^2/4 - lambda) + (N-1)(N-3)/(4 sinh^2 r) against denominator
    weight 1/r^2; this reaches the huge truncation radii the lambda ->
    (N-1)^2/4 endpoint needs without ever forming sinh^(N-1).
    """
    if N < 3:
        raise DomainError("the h(lambda) sweep needs N >= 3")
    lam_top = (N - 1) ** 2 / 4.0
    if lambdas is None:
        lambdas = np.linspace(0.0, lam_top, 17)
    lambdas = np.asarray(lambdas, dtype=float)
    if np.any(lambdas < 0.0) or np.any(lambdas > lam_top * (1 + 1e-12)):
        raise DomainError("lambda must lie in [0, (N-1)^2/4]")

    c_sinh = (N - 1) * (N - 3) / 4.0
    line = flat_line(2)
    grid = make_grid(r_min, r_max, M, "geometric")
    h_values = []
    for lam in lambdas:
        gap = lam_top - lam

        def potential(r, gap=gap):
            return -(gap + c_sinh * _inv_sinh_sq(r))

        pencil = assemble_pencil(line, potential, lambda r: 1.0 / r**2, grid)
        pencil.rebuild = None  # one solve per lambda; history not needed here
        est = min_generalized_eigenvalue(pencil, tol)
        h_values.append(0.25 + est.value)
    return LambdaCurve(N, lambdas, np.asarray(h_values), r_min, r_max, M)


# ---------------------------------------------------------------------------
# ball improvements with iterated-log weights


def check_iterated_log_improvement(u: RadialFunction, N: int, k: int,
                                   nodes: int = 4096) -> MarginReport:
    """Margin of the k-term series-improved inequality on the unit ball:

      lhs of the Poincare-Hardy form
        >= 1/4 int u^2/r^2 + (N-1)(N-3)/4 int u^2/sinh^2
           + 1/4 sum_{i<=k} int u^2/r^2 X_1^2...X_i^2.

    Truncating the (positive) series only weakens the inequality, so any
    k >= 0 is a valid check; k = 0 recovers the plain form on the ball.
    """
    if N < 3:
        raise DomainError("the inequality needs N >= 3")
    if k < 0:
        raise ArgumentError("series length k must be >= 0")
    a, b = u.support
    if not (0.0 < a and b < 1.0):
        raise SupportError(
            f"support [{a:g}, {b:g}] must lie strictly inside the unit ball"
        )
    man = hyperbolic(N)

    def series_weight(r):
        if k == 0:
            return np.zeros_like(np.asarray(r, dtype=float))
        stack = iterated_log_stack(k, r) ** 2
        return np.cumprod(stack, axis=0).sum(axis=0) / np.asarray(r, dtype=float) ** 2

    def one(nn: int):
        # pad without leaving (0, 1), where the log weights live
        grid = make_grid(a * 0.9, min(b + 0.05 * (b - a), (b + 1.0) / 2.0), nn, "uniform")
        vals = _model_integrals(u, man, grid)
        lhs = vals["dirichlet"] - (N - 1) ** 2 / 4.0 * vals["l2"]
        rhs = (
            0.25 * vals["hardy"]
            + (N - 1) * (N - 3) / 4.0 * vals["psi2"]
            + 0.25 * weighted_l2(u, series_weight, man, grid)
        )
        return lhs, rhs

    return MarginReport.from_sides(one, (nodes,), f"iterated_log_improvement(k={k})",
                                   N, "hyperbolic", u.label)


def trial_profile(eps: float, a, delta: float) -> RadialFunction:
    """Near-optimizer family r^eps X_1^{a_1} ... X_k^{a_k} times a C^2
    cutoff that is 1 on [0, delta] and 0 beyond 2*delta."""
    if eps <= 0.0:
        raise ArgumentError("exponent eps must be positive")
    a = [float(x) for x in a]
    if any(x <= 0 for x in a):
        raise ArgumentError("iterated-log exponents must be positive")
    if not 2.0 * delta < 1.0:
        raise ArgumentError("cutoff needs 2*delta < 1")
    cut = plateau_cutoff(delta, delta)
    k = len(a)

    def _pieces(r):
        r = np.asarray(r, dtype=float)
        if k:
            stack = iterated_log_stack(k, r)
            core = r**eps * np.prod(
                stack ** np.asarray(a).reshape((k,) + (1,) * r.ndim), axis=0
            )
            l1x, l2x = log_derivatives(a, r)
        else:
            core = r**eps
            l1x = np.zeros_like(r)
            l2x = np.zeros_like(r)
        l1 = eps / r + l1x
        l2 = -eps / r**2 + l2x
        return core, l1, l2

    def value(r):
        core, _, _ = _pieces(r)
        return core * cut(r)

    def d1(r):
        core, l1, _ = _pieces(r)
        return core * (l1 * cut(r) + cut.d1(r))

    def d2(r):
        core, l1, l2 = _pieces(r)
        w2 = l2 + l1 * l1
        return core * (w2 * cut(r) + 2.0 * l1 * cut.d1(r) + cut.d2(r))

    return RadialFunction(
        value, d1, d2, support=(0.0, 2.0 * delta),
        label=f"trial(eps={eps:g},a={a},delta={delta:g})",
    )


def iterated_log_optimality_scan(N: int, k: int, params=None,
                                 r_floor: float = 1e-10, M: int = 8192) -> list[float]:
    """Rayleigh quotients of the level-k improvement along a shrinking
    parameter sequence; each is >= 1/4 and the sequence drifts down toward
    it (logarithmically slowly, so only the trend is asserted).

    The quotient is evaluated through its exact decomposition
    quotient = 1/4 + int (r / P_k) U'^2 dr / int (P_k / r) U^2 dr
    (P_k = X_1...X_k; the profile and volume factors cancel exactly),
    whose two integrands are pointwise nonnegative: the lower bound 1/4
    survives any domain truncation.
    """
    if N < 3:
        raise DomainError("the optimality scan needs N >= 3")
    if k < 1:
        raise ArgumentError("the scan needs k >= 1 series terms")
    if params is None:
        params = [0.5 * 2.0**-j for j in range(5)]
    delta = 0.25
    out = []
    for t in params:
        u = trial_profile(t, [t] * k, delta)
        grid = make_grid(r_floor, 2.0 * delta, M, "geometric")
        r = grid.nodes
        pk = np.prod(iterated_log_stack(k, r), axis=0)
        du = u.d1(r)
        uu = u(r)
        num = float(np.dot(grid.quad_weights, du * du * r / pk))
        den = float(np.dot(grid.quad_weights, uu * uu * pk / r))
        out.append(0.25 + num / den)
    return out

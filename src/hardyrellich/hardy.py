"""Margin checks for the improved Hardy inequalities: the
shifted-Laplacian inequality on hyperbolic space, its curvature-weighted
generalization on models, and the iterated-log series improvement on the
unit ball; the sharp Hardy estimate is an entry of quotients.QUOTIENTS."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import claims, quotients
from .config import default_config
from .errors import ArgumentError
from .iterated_log import iterated_log_stack
from .manifolds import ModelManifold, _check_dimension, hardy_weight_general, hyperbolic
from .pencils import ConstantEstimate
from .radial import (
    RadialFunction,
    RadialGrid,
    _check_support_inside,
    _integrate,
    grid_covering,
    make_grid,
    plateau_cutoff,
    radial_sums,
)

@dataclass
class MarginReport:
    """One inequality evaluation: lhs >= rhs up to quadrature error.

    Reports carry no verdict: a check row judges margin / |lhs| against
    the configured margin tolerance.  Iterating a report yields the report
    itself, as a check on a family returns a list of them.

    quad_error is the margin change on the every-other-node subgrid: an
    estimate of the quadrature error, not a bound.  Where the rule
    converges fast it is about the subgrid's own error and overstates the
    grid's by orders of magnitude.  On the C^inf bumps of the 1-D margins
    at 1024 nodes the poincare_rellich_margins row reads
    quad_error/|lhs| = 2.0e-10, while its margins agree with a 16,384-node
    grid to 7.1e-16 of |lhs|; on the 128^2 half-space y2 margin of a tensor
    bump (see euclid.TensorProductFunction) it reads 8.4e-5 against a
    true error of 6.8e-8."""

    name: str
    N: int
    family: str
    test_id: str
    lhs: float
    rhs: float
    margin: float
    quad_error: float

    def __iter__(self):
        yield self

    @classmethod
    def from_sides(cls, lhs, rhs, name: str, N: int, family: str, test_ids):
        """Reports of lhs >= rhs, where lhs and rhs hold (grid, subgrid)
        sums on their last axis, both summed from one evaluation of the test
        function (see RadialGrid.sub_weights, and the (2, n) weight stacks of
        euclid's TensorGrid and polar rules): the margin change against the
        coarser rule is the quadrature error.

        lhs and rhs of shape (2,) give one report; shape (k, 2), from a
        family on a stacked grid, gives a list of k, one per test id."""
        margin = np.subtract(lhs, rhs)
        reports = [
            cls(name, N, family, test_id, float(l[0]), float(r[0]), float(m[0]),
                float(abs(m[0] - m[1])))
            for test_id, l, r, m in zip(test_ids, *(np.reshape(x, (-1, 2))
                                                    for x in (lhs, rhs, margin)))
        ]
        return reports if np.ndim(margin) > 1 else reports[0]


def _hardy_sums(u: RadialFunction, manifold: ModelManifold, grid: RadialGrid,
                *weights) -> np.ndarray:
    """int u'^2, int u^2/r^2 and int u^2/psi^2, then int u^2 w for each
    weight w, all against the volume weight psi^(N-1), as radial_sums
    returns them."""
    r = grid.nodes
    terms = [("grad2", 1.0), ("v2", 1.0 / r**2), ("v2", manifold.inv_psi_sq(r)),
             *(("v2", w) for w in weights)]
    return radial_sums(u, grid, terms, manifold.measure_weight(r))


def check_poincare_hardy(u: RadialFunction, N: int, nodes: int = 1024) -> MarginReport:
    """Margin of the sharp Poincare-Hardy inequality on hyperbolic space:

      int |grad u|^2 - (N-1)^2/4 int u^2
        >= 1/4 int u^2/r^2 + (N-1)(N-3)/4 int u^2/sinh^2 r

    (radial reduction, volume weight sinh^(N-1) r).  For N = 3 the sinh
    coefficient vanishes and this is the plain optimal-constant form.
    """
    man = hyperbolic(N)
    dirichlet, by_r2, by_psi2, l2 = _hardy_sums(u, man, grid_covering(u.support, nodes), 1.0)
    return MarginReport.from_sides(
        dirichlet - float(claims.spectral_gap(N)) * l2,
        float(claims.HARDY_R2) * by_r2 + float(claims.sinh_hardy(N)) * by_psi2,
        "poincare_hardy", N, "hyperbolic", u.labels)


def check_general_model(u: RadialFunction, manifold: ModelManifold,
                        nodes: int = 1024) -> MarginReport:
    """Margin of the curvature-weighted Hardy inequality on a model:

      int |grad u|^2 - int w u^2 >= 1/4 int u^2/r^2 + (N-1)(N-3)/4 int u^2/psi^2

    with w the curvature Hardy weight.  Reduces to the classical Hardy
    inequality for the euclidean family and to the hyperbolic form above
    for psi = sinh r.
    """
    N = manifold.N

    grid = grid_covering(u.support, nodes)
    dirichlet, by_r2, by_psi2, curvature = _hardy_sums(
        u, manifold, grid, hardy_weight_general(manifold, grid.nodes))
    return MarginReport.from_sides(
        dirichlet - curvature,
        float(claims.HARDY_R2) * by_r2 + float(claims.sinh_hardy(N)) * by_psi2,
        "general_model_hardy", N, manifold.family, u.labels)


def estimate_sharp_hardy(N: int, M: int | None = None) -> ConstantEstimate:
    """The hardy_sharp_radial estimate of quotients.QUOTIENTS on the
    default truncation, on M nodes where given."""
    return quotients.estimate("hardy_sharp_radial", N, default_config(), M=M)


# ---------------------------------------------------------------------------
# ball improvements with iterated-log weights


def check_iterated_log_improvement(u: RadialFunction, N: int, k,
                                   nodes: int = 1024):
    """Margin of the k-term series-improved inequality on the unit ball:

      lhs of the Poincare-Hardy form
        >= 1/4 int u^2/r^2 + (N-1)(N-3)/4 int u^2/sinh^2
           + 1/4 sum_{i<=k} int u^2/r^2 X_1^2...X_i^2.

    Truncating the (positive) series only weakens the inequality, so any
    k >= 0 is a valid check; k = 0 recovers the plain form on the ball.
    A sequence of series lengths k is served by one grid and one jet of u,
    and gives the reports of every length, length by length.
    """
    man = hyperbolic(N)
    ks = list(np.atleast_1d(k))
    if not ks or min(ks) < 0:
        raise ArgumentError(f"series lengths k must be >= 0, and at least one, got {ks}")
    _check_support_inside(u, 0.0, 1.0)
    a, b = u.support
    # pad without leaving (0, 1), where the log weights live
    grid = make_grid(a * 0.9, np.minimum(b + 0.05 * (b - a), (b + 1.0) / 2.0), nodes, "uniform")
    r = grid.nodes
    # the series weight of length i is the sum of the first i products
    # X_1^2...X_j^2, over r^2
    series = np.cumsum(np.cumprod(iterated_log_stack(max(ks), r) ** 2, axis=0), axis=0) / r**2
    weights = {i: series[i - 1] for i in ks if i}
    dirichlet, by_r2, by_psi2, l2, *by_series = _hardy_sums(u, man, grid, 1.0, *weights.values())
    series_sums = dict(zip(weights, by_series))
    lhs = dirichlet - float(claims.spectral_gap(N)) * l2
    rhs = float(claims.HARDY_R2) * by_r2 + float(claims.sinh_hardy(N)) * by_psi2
    reports = [
        MarginReport.from_sides(lhs, rhs + float(claims.ITERATED_LOG) * series_sums[i]
                                if i else rhs,
                                f"iterated_log_improvement(k={i})", N, "hyperbolic", u.labels)
        for i in ks
    ]
    return reports[0] if np.ndim(k) == 0 else [rep for per_k in reports for rep in per_k]


def iterated_log_optimality_scan(N: int, k: int, params=None,
                                 M: int = 8192) -> list[float]:
    """Rayleigh quotients of the level-k improvement along a shrinking
    parameter sequence; each is >= 1/4 and the sequence drifts down toward
    it (logarithmically slowly, so only the trend is asserted).

    The quotient is evaluated through its exact decomposition
    quotient = 1/4 + int (r / P_k) U'^2 dr / int (P_k / r) U^2 dr
    (P_k = X_1...X_k; the profile and volume factors cancel exactly),
    whose two integrands are pointwise nonnegative: the lower bound 1/4
    survives any domain truncation.
    """
    _check_dimension(N)
    if k < 1:
        raise ArgumentError("the scan needs k >= 1 series terms")
    if params is None:
        params = [0.5 * 2.0**-j for j in range(5)]
    if any(t <= 0.0 for t in params):
        raise ArgumentError("scan parameters must be positive")
    delta = 0.25
    grid = make_grid(1e-10, 2.0 * delta, M, "geometric")
    r = grid.nodes
    # the trial profile at t is U = core(t) c, with core(t) = (r P_k)^t =
    # r^t X_1^t ... X_k^t and c the cutoff equal to 1 on [0, delta] and 0
    # beyond 2 delta; U' = core(t) (t g c + c'), g = (1 + sum_i P_i)/r, and
    # everything but the powers of r P_k is formed once for all t
    c, c1 = plateau_cutoff(delta).jet(r, 1)
    products = np.cumprod(iterated_log_stack(k, r), axis=0)
    pk = products[-1]
    base = r * pk
    g_c = (1.0 + products.sum(axis=0)) / r * c
    w_num = r / pk
    den_weight = c * c * pk / r
    out = []
    for t in params:
        core_sq = base ** (2.0 * t)
        du = t * g_c + c1
        num = _integrate(core_sq * du * du * w_num, grid, "quotient numerator", subgrid=False)
        den = _integrate(core_sq * den_weight, grid, "quotient denominator", subgrid=False)
        out.append(0.25 + num / den)
    return out

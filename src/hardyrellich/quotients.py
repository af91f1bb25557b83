"""The sharp constants the toolkit estimates, as truncated Rayleigh
quotients: one table, keyed by the constants.csv names, the one function
that solves an entry, and the h(lambda) sweep over the sharp Hardy
entry's quotient.

An entry states the claim its estimates are judged against (read from
claims when it runs), the quotient for N as assemble_pencil takes it
(manifold, V, W, order), the truncation (r_min, r_max, M), each a fixed
number or a (section, key) of the config, whose default config.DEFAULTS
states, and the window an estimate must fall in: the exact truncated
value where the quotient has one in closed form, built from the claim,
else an allowance above the claim, or neither.  Every quotient is solved
on a geometric grid, on which the pencils are second order in the log
spacing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import claims
from .config import ToolkitConfig
from .errors import ArgumentError
from .manifolds import _check_dimension, euclidean, hyperbolic
from .pencils import (
    ORDER_BILAPLACIAN,
    ORDER_LAPLACIAN,
    ConstantEstimate,
    assemble_pencil,
    min_generalized_eigenvalue,
    smallest_eigenvalue,
)
from .radial import make_grid


@dataclass(frozen=True)
class SharpQuotient:
    """A claimed sharp constant and the truncated quotient that estimates
    it: [int u'^2 - V int u^2] / int W u^2 (order 2), or (Delta u)^2 in the
    numerator (order 4), on manifold(N) (see assemble_pencil).

    exact(N, c, est) is the truncated value of the quotient for the claim
    c on est's truncation, or None where no closed form is known;
    allowance(c) bounds an estimate above c where there is none."""

    claim: Callable
    manifold: Callable
    V: Callable
    W: object
    truncation: tuple
    order: str = ORDER_LAPLACIAN
    exact: Callable | None = None
    allowance: Callable | None = None


def _inv_r2(r):
    return 1.0 / r**2


def _inv_r4(r):
    return 1.0 / r**4


def _hardy_1d(c: float, est: ConstantEstimate) -> float:
    """The truncated 1-D Hardy quotient int v'^2 / int v^2/r^2, whose
    infimum c is 1/4, in closed form: c + pi^2/log^2(r_max/r_min)."""
    return c + math.pi**2 / math.log(est.r_max / est.r_min) ** 2


QUOTIENTS = {
    # Dirichlet - (N-1)^2/4 L^2 over int u^2/r^2 on H^N, tending to 1/4
    # from above.  At N = 3 it is the 1-D Hardy quotient int v'^2 over
    # int v^2/r^2 (v = u sinh r, measure dr); other N add the sinh
    # potential.  A negative value refutes the claimed gap.
    "hardy_sharp_radial": SharpQuotient(
        lambda N: claims.HARDY_R2, hyperbolic, lambda N: float(claims.spectral_gap(N)),
        _inv_r2, (("grids", "r_min"), ("grids", "r_max"), ("grids", "M")),
        exact=lambda N, c, est: _hardy_1d(c, est) if N == 3 else None),
    # the bottom of the radial L^2 spectrum of the hyperbolic Laplacian,
    # tending to (N-1)^2/4; at N = 3 the quotient is int v'^2 + int v^2
    # over int v^2, whose truncated value is 1 + pi^2/(r_max - r_min)^2
    "poincare_gap_radial": SharpQuotient(
        lambda N: claims.spectral_gap(N), hyperbolic, lambda N: None, 1.0,
        (1e-3, 60.0, ("grids", "M")),
        exact=lambda N, c, est: c + math.pi**2 / (est.r_max - est.r_min) ** 2 if N == 3 else None,
        allowance=lambda c: 0.01 * c),
    # 1-D anchor: int z'^2 over int z^2/x^2 tends to 1/4, the limit behind
    # the sharpness of (N-1)^2/8, which enters only through the final
    # (N-1)^2/2 rescaling: the euclidean(3) Hardy pencil (z = r u)
    "one_d_hardy": SharpQuotient(
        lambda N: claims.HARDY_R2, lambda N: euclidean(3), lambda N: None, _inv_r2,
        (1e-10, 1e10, 8192), exact=lambda N, c, est: _hardy_1d(c, est)),
    # 1-D anchor: int u''^2 over int u^2/x^4 tends to 9/16, the constant the
    # fourth-power weight inherits in the mode reduction: the euclidean(3)
    # Rellich pencil, whose substitution d = r u leaves d''
    "one_d_rellich": SharpQuotient(
        lambda N: claims.RELLICH_R4, lambda N: euclidean(3), lambda N: None, _inv_r4,
        (1e-12, 1e12, 8192), ORDER_BILAPLACIAN, allowance=lambda c: 1e-2),
    # int (Lap u)^2 over int u^2/r^4 on R^N, tending to N^2(N-4)^2/16; after
    # d = r^((N-1)/2) u, int (d'' - (N-1)(N-3)/(4 r^2) d)^2 over int d^2/r^4
    "euclid_rellich_radial": SharpQuotient(
        lambda N: claims.euclid_rellich(N), lambda N: euclidean(_check_dimension(N, 5)),
        lambda N: None, _inv_r4, (1e-9, 1e9, 8192), ORDER_BILAPLACIAN,
        allowance=lambda c: 5e-2),
    # the best 1/r^2 constant of Poincare-Rellich on H^N, tending to
    # (N-1)^2/8: the mode-0 reduced form after d = sinh^((N-1)/2) u, as
    # direct sinh^(N-1) assembly both overflows at the radii the constant
    # needs and loses accuracy to exponential cancellation.  A negative
    # value refutes the claimed L^2 constant.
    "rellich_sharp_r2_radial": SharpQuotient(
        lambda N: claims.rellich_r2(N), lambda N: hyperbolic(_check_dimension(N, 5)),
        lambda N: float(claims.rellich_l2(N)), _inv_r2,
        (("rellich", "sharp_r_min"), ("rellich", "sharp_r_max"), ("rellich", "sharp_M")),
        ORDER_BILAPLACIAN),
}


def estimate(name: str, N: int, cfg: ToolkitConfig, r_max: float | None = None,
             M: int | None = None, near: float | None = None) -> ConstantEstimate:
    """The named entry's quotient for N on its truncation, its minimal
    eigenvalue with a refinement history (min_generalized_eigenvalue,
    tol 1e-8); r_max and M, where given, replace the entry's, and
    ``near`` warm-starts the solve."""
    q = QUOTIENTS[name]
    man = q.manifold(N)
    r_min, top, m = (get(*x) if isinstance(x, tuple) else x for x, get in
                     zip(q.truncation, (cfg.get_float, cfg.get_float, cfg.get_int)))
    grid = make_grid(r_min, top if r_max is None else r_max, m if M is None else M,
                     "geometric")
    return min_generalized_eigenvalue(assemble_pencil(man, q.V(N), q.W, grid, q.order),
                                      1e-8, near)


@dataclass
class LambdaCurve:
    """Estimated best Hardy constant as a function of the subtracted
    spectral fraction lambda in [0, (N-1)^2/4]."""

    N: int
    lambdas: np.ndarray
    h_values: np.ndarray

    def is_nonincreasing(self) -> bool:
        return bool(np.all(np.diff(self.h_values) <= 1e-9))

    def midpoint_concavity_defect(self) -> float:
        """max over interior points of (h[i-1]+h[i+1])/2 - h[i]; concavity
        means this is <= 0 up to solver noise."""
        h = self.h_values
        if h.size < 3:
            return 0.0
        return float(np.max(0.5 * (h[:-2] + h[2:]) - h[1:-1]))


def sweep_h_lambda(cfg: ToolkitConfig, N: int) -> LambdaCurve:
    """h(lambda) = best constant of int u^2/r^2 under numerator
    Dirichlet - lambda L^2 (radial sector), at [hardy] sweep_points
    lambdas from 0 to the hardy_sharp_radial entry's V = (N-1)^2/4.

    Each h is the smallest eigenvalue of that entry's quotient with
    V = lambda, all on one geometric grid of the [hardy] sweep_r_min,
    sweep_r_max and sweep_M truncation; each warm-starts the next.  The
    pencil reaches the huge truncation radii the lambda -> (N-1)^2/4
    endpoint needs without ever forming sinh^(N-1).  Fewer than 2 points
    (no curve between the endpoints) raise ArgumentError.
    """
    q = QUOTIENTS["hardy_sharp_radial"]
    man = q.manifold(N)
    points = cfg.get_int("hardy", "sweep_points")
    if points < 2:
        raise ArgumentError(f"config [hardy] sweep_points = {points} must be >= 2")
    lambdas = np.linspace(0.0, q.V(N), points)
    grid = make_grid(cfg.get_float("hardy", "sweep_r_min"), cfg.get_float("hardy", "sweep_r_max"),
                     cfg.get_int("hardy", "sweep_M"), "geometric")
    h_values, value = [], None
    for lam in lambdas:
        value = smallest_eigenvalue(assemble_pencil(man, lam, q.W, grid, q.order), 1e-10,
                                    near=value)
        h_values.append(value)
    return LambdaCurve(N, lambdas, np.asarray(h_values))

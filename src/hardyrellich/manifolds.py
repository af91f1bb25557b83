"""Rotationally symmetric model manifolds defined by a warping function.

A manifold here is the data (N, psi) with metric dr^2 + psi(r)^2 dw^2 on
(0, infinity) x S^{N-1}.  It is carried as four overflow-safe ratios,
log psi, psi'/psi, psi''/psi and (psi'^2 - 1)/psi^2, which are all that
curvatures, weights, pencils and identity residuals read.  psi itself is
never formed, so every family (euclidean, hyperbolic, superexp) stays
finite at radii where psi overflows; another model is a ModelManifold
built from its own four ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError


def _require_positive(r) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise DomainError("radius must be positive")
    return r


@dataclass(frozen=True)
class ModelManifold:
    """Dimension N plus the closed-form ratios ``log_psi``,
    ``dpsi_over_psi``, ``ddpsi_over_psi`` and ``tan_ratio``
    (= (psi'^2 - 1)/psi^2), each finite wherever its value is."""

    N: int
    family: str
    log_psi: Callable
    dpsi_over_psi: Callable
    ddpsi_over_psi: Callable
    tan_ratio: Callable
    a: float | None = None

    def __post_init__(self):
        # the one dimension check of every model, however it was built
        object.__setattr__(self, "N", _check_dimension(self.N))

    def describe(self) -> str:
        if self.family == "superexp":
            return f"superexp(a={self.a:g}, N={self.N})"
        return f"{self.family}(N={self.N})"

    def measure_weight(self, r):
        """Radial volume density psi(r)^(N-1), computed in log domain."""
        r = _require_positive(r)
        return np.exp((self.N - 1) * self.log_psi(r))

    def inv_psi_sq(self, r):
        """1/psi(r)^2, computed in log domain."""
        return np.exp(-2.0 * self.log_psi(r))

    def substitution_potential(self, r):
        """q = a psi''/psi + a(a-1) (psi'/psi)^2, a = (N-1)/2: the potential
        of the ground-state substitution u = psi^(-a) d, which turns
        Delta u into psi^(-a) (d'' - q d)."""
        a = (self.N - 1) / 2.0
        return a * self.ddpsi_over_psi(r) + a * (a - 1.0) * self.dpsi_over_psi(r) ** 2


def _check_dimension(N: int, minimum: int = 3) -> int:
    if int(N) != N or N < minimum:
        raise DomainError(f"dimension must be an integer >= {minimum}, got {N!r}")
    return int(N)


def euclidean(N: int) -> ModelManifold:
    """Flat model, psi(r) = r."""
    return ModelManifold(
        N=N,
        family="euclidean",
        log_psi=lambda r: np.log(_require_positive(r)),
        dpsi_over_psi=lambda r: 1.0 / _require_positive(r),
        ddpsi_over_psi=lambda r: np.zeros_like(_require_positive(r)),
        tan_ratio=lambda r: np.zeros_like(_require_positive(r)),
    )


def _log_sinh(r):
    # log(sinh r) = r + log(-expm1(-2r)) - log 2, stable for every r > 0
    r = _require_positive(r)
    return r + np.log(-np.expm1(-2.0 * r)) - math.log(2.0)


def hyperbolic(N: int) -> ModelManifold:
    """Constant curvature -1 model, psi(r) = sinh r."""
    return ModelManifold(
        N=N,
        family="hyperbolic",
        log_psi=_log_sinh,
        dpsi_over_psi=lambda r: 1.0 / np.tanh(_require_positive(r)),
        ddpsi_over_psi=lambda r: np.ones_like(_require_positive(r)),
        # coth^2 - 1/sinh^2 == 1 identically
        tan_ratio=lambda r: np.ones_like(_require_positive(r)),
    )


def superexp(N: int, a: float) -> ModelManifold:
    """Super-exponential model, psi(r) = r * exp(r^a) with a > 1.

    Curvatures are unbounded below; all ratios are formed with exp(r^a)
    cancelled symbolically so no evaluator overflows before r^a itself does.
    """
    if not a > 1.0:
        raise DomainError(f"superexp exponent must satisfy a > 1, got {a!r}")

    def g1(r):  # (r^a)'
        return a * r ** (a - 1.0)

    def log_psi(r):
        r = _require_positive(r)
        return np.log(r) + r**a

    def dpsi_over_psi(r):
        r = _require_positive(r)
        return 1.0 / r + g1(r)

    def ddpsi_over_psi(r):
        r = _require_positive(r)
        return a * r ** (a - 2.0) * (1.0 + a + a * r**a)

    def tan_ratio(r):
        r = _require_positive(r)
        return dpsi_over_psi(r) ** 2 - np.exp(-2.0 * log_psi(r))

    return ModelManifold(
        N=N,
        family="superexp",
        log_psi=log_psi,
        dpsi_over_psi=dpsi_over_psi,
        ddpsi_over_psi=ddpsi_over_psi,
        tan_ratio=tan_ratio,
        a=float(a),
    )


# ---------------------------------------------------------------------------
# curvature and weights


def curvature_rad(manifold: ModelManifold, r):
    """Sectional curvature of planes containing the radial direction."""
    return -manifold.ddpsi_over_psi(_require_positive(r))


def curvature_tan(manifold: ModelManifold, r):
    """Sectional curvature of planes orthogonal to the radial direction."""
    return -manifold.tan_ratio(_require_positive(r))


def hardy_weight_general(manifold: ModelManifold, r):
    """Curvature-dependent Hardy weight of the improved inequality.

    w(r) = (N-1)/4 * [2 psi''/psi + (N-3) (psi'^2 - 1)/psi^2].
    Identically 0 for the euclidean family and (N-1)^2/4 for hyperbolic.
    """
    r = _require_positive(r)
    N = manifold.N
    return (
        (N - 1)
        / 4.0
        * (2.0 * manifold.ddpsi_over_psi(r) + (N - 3) * manifold.tan_ratio(r))
    )


def check_monotonicity_condition(manifold: ModelManifold, grid):
    """Check (N-2) psi' + (N-1) r psi'' >= 0 at every node of the RadialGrid.

    Tested divided by psi > 0, as (N-2) psi'/psi + (N-1) r psi''/psi, which
    has the same sign and stays finite at every radius.  Returns
    (True, None) if the condition holds, else (False, i) with i the first
    violating node index.  This is the hypothesis under which the
    comparison profile used by the supersolution argument is nonincreasing.
    """
    nodes = grid.nodes
    N = manifold.N
    values = ((N - 2) * manifold.dpsi_over_psi(nodes)
              + (N - 1) * nodes * manifold.ddpsi_over_psi(nodes))
    bad = np.nonzero(values < 0.0)[0]
    if bad.size:
        return False, int(bad[0])
    return True, None


"""Exact supersolution identities, the ground state, and criticality scans.

Every identity here is checked with the profile factored out: both sides of
each equation are divided by the common profile Phi, leaving only ratios
(psi'/psi, psi''/psi, 1/psi^2, powers of 1/r) that stay bounded where the
raw factors would overflow.  Residuals are reported relative to the largest
contributing term, since near the pole individual terms grow like r^-2
while the identity still balances.
"""

from __future__ import annotations

import numpy as np

from . import claims
from .errors import ArgumentError
from .manifolds import (
    ModelManifold,
    _check_dimension,
    _require_positive,
    check_monotonicity_condition,
    curvature_rad,
    curvature_tan,
    hardy_weight_general,
    hyperbolic,
)
from .radial import RadialFunction, RadialGrid, _integrate, log_jet, make_grid

# fixed sample set for identity suites: 64 log-spaced radii
IDENTITY_SAMPLE = np.geomspace(1e-3, 30.0, 64)


def _rel_residual(lhs_terms, rhs_terms, magnitudes=()):
    """|sum lhs - sum rhs| relative to the largest contributing magnitude.

    The scale is taken pointwise over the grouped terms plus any extra
    constituent magnitudes (pieces that nearly cancel inside a term), so a
    residual made of pure rounding noise stays at rounding-noise level.
    """
    lhs = [np.asarray(t, dtype=float) for t in lhs_terms]
    rhs = [np.asarray(t, dtype=float) for t in rhs_terms]
    total = sum(lhs) - sum(rhs)
    mags = [np.abs(t) for t in (*lhs, *rhs)]
    mags += [np.abs(np.asarray(m, dtype=float)) for m in magnitudes]
    scale = np.maximum.reduce(np.broadcast_arrays(*mags)[0:len(mags)])
    safe = np.where(scale > 0.0, scale, 1.0)
    out = np.where(scale > 0.0, np.abs(total) / safe, 0.0)
    return float(out) if np.isscalar(total) or out.ndim == 0 else out


def _warp_power_logd(alpha: float, r, s, dds):
    """(log Phi)' and (log Phi)'' of Phi = (psi/r)^alpha, from s = psi'/psi
    and dds = psi''/psi at r."""
    return alpha * (s - 1.0 / r), alpha * (dds - s**2 + 1.0 / r**2)


def _comparison_logd(N: int, r, s, dds):
    """(log Phi)' and (log Phi)'' of the comparison profile
    Phi = (r/psi)^((N-1)/2) r^((2-N)/2), from s = psi'/psi and
    dds = psi''/psi at r: the warp power -(N-1)/2 and the r^((2-N)/2)
    term."""
    m, mp = _warp_power_logd(-0.5 * (N - 1), r, s, dds)
    return m + 0.5 * (2 - N) / r, mp - 0.5 * (2 - N) / r**2


def _comparison_log(N: int, r, log_psi):
    """log of the comparison profile (r/psi)^((N-1)/2) r^((2-N)/2), from
    log psi(r)."""
    log_r = np.log(r)
    return 0.5 * (N - 1) * (log_r - log_psi) + 0.5 * (2 - N) * log_r


# ---------------------------------------------------------------------------
# profiles


def comparison_profile(manifold: ModelManifold) -> RadialFunction:
    """The supersolution profile (r/psi)^((N-1)/2) * r^((2-N)/2)."""
    N = manifold.N

    def jet(r, order):
        r = _require_positive(r)
        value = np.exp(_comparison_log(N, r, manifold.log_psi(r)))
        return log_jet(value, lambda: _comparison_logd(
            N, r, manifold.dpsi_over_psi(r), manifold.ddpsi_over_psi(r)), order)

    return RadialFunction(jet, support=(0.0, np.inf),
                          label=f"comparison_profile(N={N})")


def power_profile(p: float) -> RadialFunction:
    """f(r) = r^p."""

    def jet(r, order):
        r = _require_positive(r)
        return (r**p, p * r ** (p - 1.0), p * (p - 1.0) * r ** (p - 2.0))[:order + 1]

    return RadialFunction(jet, support=(0.0, np.inf), label=f"r^{p:g}")


def power_log_profile(N: int) -> RadialFunction:
    """Second Euler solution f(r) = r^((2-N)/2) * log(r^(2-N))."""
    p = (2.0 - N) / 2.0
    c = 2.0 - N

    def jet(r, order):
        r = _require_positive(r)
        log_r = np.log(r)
        return (r**p * c * log_r,
                c * r ** (p - 1.0) * (p * log_r + 1.0),
                c * r ** (p - 2.0) * (p * (p - 1.0) * log_r + 2.0 * p - 1.0))[:order + 1]

    return RadialFunction(jet, support=(0.0, np.inf), label=f"r^{p:g}*log(r^{c:g})")


# ---------------------------------------------------------------------------
# identity residuals


def warp_power_identity_residual(manifold: ModelManifold, alpha, r):
    """Relative residual of the radial-Laplacian identity for (psi/r)^alpha.

    The profile satisfies, for every alpha and r > 0,
      -Lap Phi - alpha[K_rad + (alpha - 2 + N) K_tan] Phi
        = -alpha(alpha-2+N) Phi/psi^2 - alpha(alpha+1) Phi/r^2
          + (2 alpha^2 + alpha(N-1)) (psi'/psi) Phi / r,
    an exact identity; the return value is |LHS - RHS| / max |term| with
    Phi divided out.  A (k, 1) array of alphas gives k rows of residuals,
    each bit for bit the residual of its alpha alone.
    """
    r = _require_positive(r)
    N = manifold.N
    s, dds = manifold.dpsi_over_psi(r), manifold.ddpsi_over_psi(r)
    m, mp = _warp_power_logd(alpha, r, s, dds)
    k_rad, k_tan = curvature_rad(manifold, r), curvature_tan(manifold, r)

    lhs_terms = [
        -(mp + m * m),
        -(N - 1) * s * m,
        -alpha * (k_rad + (alpha - 2.0 + N) * k_tan),
    ]
    rhs_terms = [
        -alpha * (alpha - 2.0 + N) * manifold.inv_psi_sq(r),
        -alpha * (alpha + 1.0) / r**2,
        (2.0 * alpha**2 + alpha * (N - 1)) * s / r,
    ]
    mp_mag = abs(alpha) * (np.abs(dds) + s * s + 1.0 / r**2)
    return _rel_residual(lhs_terms, rhs_terms, magnitudes=[mp_mag])


def product_profile_identity_residual(manifold: ModelManifold, f: RadialFunction, r):
    """Relative residual of the multiplied-profile identity.

    With Phi = (r/psi)^((N-1)/2) and any smooth radial multiplier f,
      -Lap(Phi f) + (N-1)/4 [2 K_rad + (N-3) K_tan] Phi f
        = (N-1)(N-3)/4 (1/psi^2 - 1/r^2) Phi f - (f'' + (N-1) f'/r) Phi.
    """
    r = _require_positive(r)
    N = manifold.N
    s, dds = manifold.dpsi_over_psi(r), manifold.ddpsi_over_psi(r)
    m, mp = _warp_power_logd(-0.5 * (N - 1), r, s, dds)
    k_rad, k_tan = curvature_rad(manifold, r), curvature_tan(manifold, r)
    inv_psi2 = manifold.inv_psi_sq(r)
    fv, f1, f2 = f.jet(r, 2)

    lhs_terms = [
        -((mp + m * m) * fv + 2.0 * m * f1 + f2),
        -(N - 1) * s * (m * fv + f1),
        0.25 * (N - 1) * (2.0 * k_rad + (N - 3) * k_tan) * fv,
    ]
    rhs_terms = [
        0.25 * (N - 1) * (N - 3) * (inv_psi2 - 1.0 / r**2) * fv,
        -(f2 + (N - 1) * f1 / r),
    ]
    mp_mag = 0.5 * (N - 1) * (np.abs(dds) + s * s + 1.0 / r**2)
    mags = [
        mp_mag * np.abs(fv),
        np.abs(f2) + (N - 1) * np.abs(f1) / r,
        0.25 * (N - 1) * abs(N - 3) * (inv_psi2 + 1.0 / r**2) * np.abs(fv),
    ]
    return _rel_residual(lhs_terms, rhs_terms, magnitudes=mags)


def _equality_residual(manifold: ModelManifold, r, w):
    """Relative residual of -Lap(profile) = [w + (N-1)(N-3)/(4 psi^2)
    + 1/(4 r^2)] profile for the comparison profile of the manifold, with
    w the weight term: an array on r, or a constant."""
    r = _require_positive(r)
    N = manifold.N
    s, dds = manifold.dpsi_over_psi(r), manifold.ddpsi_over_psi(r)
    m, mp = _comparison_logd(N, r, s, dds)
    lhs_terms = [-(mp + m * m), -(N - 1) * s * m]
    rhs_terms = [
        w,
        float(claims.sinh_hardy(N)) * manifold.inv_psi_sq(r),
        float(claims.HARDY_R2) / r**2,
    ]
    mp_mag = 0.5 * (N - 1) * (np.abs(dds) + s * s + 1.0 / r**2)
    return _rel_residual(lhs_terms, rhs_terms, magnitudes=[mp_mag])


def supersolution_equality_residual(manifold: ModelManifold, r):
    """Residual of the model-manifold equality for the comparison profile.

    On a model, -Lap(profile) equals w(r) + (N-1)(N-3)/(4 psi^2) + 1/(4 r^2)
    times the profile, w being the curvature Hardy weight; relative residual.
    """
    return _equality_residual(manifold, r, hardy_weight_general(manifold, r))


# ---------------------------------------------------------------------------
# ground state and criticality diagnostics


def ground_state(N: int, r):
    """Positive solution of minimal growth: (r/sinh r)^((N-1)/2) r^((2-N)/2),
    the comparison profile of hyperbolic(N) (DomainError for N < 3)."""
    return comparison_profile(hyperbolic(N))(r)


def ground_state_residual(N: int, r):
    """Relative residual of H v_+ = 0 for the shifted critical operator
    H = -Lap - (N-1)^2/4 - 1/(4 r^2) - (N-1)(N-3)/(4 sinh^2 r): the
    equality above on hyperbolic(N), with the claimed spectral gap as w."""
    return _equality_residual(hyperbolic(N), r, float(claims.spectral_gap(N)))


def minimal_growth_ratios(N: int, r_small: float, r_large: float):
    """(v_+/|v_-|)(r_small) and (v_+/|v_-|)(r_large).

    The profile factor cancels exactly, leaving 1/((N-2)|log r|); both ratios
    shrink as the sample radii move toward 0 and infinity, which is the
    minimal-growth hypothesis checked numerically.
    """
    _check_dimension(N)
    if not 0.0 < r_small < 1.0 < r_large:
        raise ArgumentError("need 0 < r_small < 1 < r_large")
    ratio0 = 1.0 / ((N - 2) * abs(np.log(r_small)))
    ratio_inf = 1.0 / ((N - 2) * abs(np.log(r_large)))
    return ratio0, ratio_inf


def null_criticality_scan(N: int, k_list, M: int = 4096) -> list[tuple[float, float]]:
    """Truncated weighted-L2 mass of the ground state near the pole.

    For each k, integrates v_+^2 * (4 r^2)^-1 * sinh^(N-1) r over [e^-k, 1],
    with v_+ from ground_state and the product formed in the log domain.
    Since v_+^2 sinh^(N-1) r = r the integrand is 1/(4r), so the value is
    k/4: the mass diverges logarithmically, which is the
    square-nonintegrability of the ground state against the Hardy weight.
    """
    man = hyperbolic(N)
    out = []
    for k in k_list:
        grid = make_grid(float(np.exp(-k)), 1.0, M, "geometric")
        r = grid.nodes
        log_mass = 2.0 * np.log(ground_state(N, r)) + (N - 1) * man.log_psi(r) - 2.0 * np.log(r)
        vals = float(claims.HARDY_R2) * np.exp(log_mass)
        out.append((float(k), float(_integrate(vals, grid, "mass integrand", subgrid=False))))
    return out


def null_criticality_slope(N: int, k_list=(2.0, 4.0, 8.0, 16.0)) -> float:
    """Slope of the truncated mass against k; 1/4 certifies the log divergence."""
    pairs = null_criticality_scan(N, k_list)
    ks = np.array([p[0] for p in pairs])
    vs = np.array([p[1] for p in pairs])
    return float(np.polyfit(ks, vs, 1)[0])


def check_profile_nonincreasing(manifold: ModelManifold, grid: RadialGrid):
    """True iff the comparison profile is nonincreasing across the grid.

    Returns None (inapplicable) when the curvature-growth condition fails,
    since monotonicity is only asserted under that hypothesis.
    """
    ok, _ = check_monotonicity_condition(manifold, grid)
    if not ok:
        return None
    r = grid.nodes
    diffs = np.diff(_comparison_log(manifold.N, r, manifold.log_psi(r)))
    return bool(np.all(diffs <= 1e-12))

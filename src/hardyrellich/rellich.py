"""Second-order (bilaplacian) inequalities: spherical-mode reduction,
one-dimensional anchors, sharp-constant pencils, and the density change of
variables with its asymptotics.

Closed-form coefficient identities are evaluated in exact rational
arithmetic; floating point only enters through quadrature and eigensolves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import (
    ArgumentError,
    DomainError,
    RangeError,
    SupportError,
    TruncationError,
)
from .hardy import MarginReport
from .manifolds import _inv_sinh_sq, _log_sinh, euclidean, flat_line, hyperbolic
from .pencils import (
    ConstantEstimate,
    ORDER_BILAPLACIAN,
    assemble_custom_pencil,
    assemble_pencil,
    min_generalized_eigenvalue,
)
from .radial import (
    RadialFunction,
    RadialGrid,
    bilaplacian_form,
    grid_covering,
    make_grid,
    weighted_l2,
)


def _require_dim(N: int, minimum: int = 5) -> int:
    if int(N) != N or N < minimum:
        raise DomainError(f"needs integer dimension N >= {minimum}, got {N!r}")
    return int(N)


# ---------------------------------------------------------------------------
# spherical modes and exact coefficients


def mode_eigenvalue(n: int, N: int) -> int:
    """Sphere-Laplacian eigenvalue of the order-n harmonics: n^2 + (N-2)n."""
    if n < 0 or N < 3:
        raise DomainError("mode needs n >= 0 and N >= 3")
    return n * n + (N - 2) * n


def mode_multiplicity(n: int, N: int) -> int:
    """Dimension of the order-n eigenspace."""
    if n < 0:
        raise DomainError("mode order must be n >= 0")
    if n == 0:
        return 1
    if n == 1:
        return N
    return math.comb(N + n - 1, n) - math.comb(N + n - 3, n - 2)


def sinh4_coefficient(n: int, N: int) -> Fraction:
    """Exact per-mode coefficient of the 1/sinh^4 term in the reduced bound."""
    _require_dim(N)
    lam = mode_eigenvalue(n, N)
    return (
        Fraction(lam) ** 2
        + Fraction(N * (N - 4), 2) * lam
        + Fraction(((N - 1) * (N - 3)) ** 2, 16)
        - Fraction(3 * (N - 1) * (N - 3), 8)
    )


def sinh2_coefficient(n: int, N: int) -> Fraction:
    """Exact per-mode coefficient of the 1/sinh^2 term in the reduced bound."""
    _require_dim(N)
    lam = mode_eigenvalue(n, N)
    return (
        Fraction((N + 1) * (N - 3), 2) * lam
        + Fraction((N - 1) ** 2 * (N - 3), 4)
        + Fraction(((N - 1) * (N - 3)) ** 2, 8)
        - Fraction((N - 1) * (N - 3), 2)
    )


def min_sinh4_closed_form(N: int) -> Fraction:
    return Fraction((N - 1) * (N - 3) * (N * N - 4 * N - 3), 16)


def min_sinh2_closed_form(N: int) -> Fraction:
    return Fraction((N * N - 1) * (N - 3) ** 2, 8)


@dataclass(frozen=True)
class ModeCoefficients:
    n: int
    eigenvalue: int
    multiplicity: int
    sinh4_coeff: Fraction
    sinh2_coeff: Fraction

    def csv_row(self) -> str:
        # wire format: n,lambda_n,d_n,A_n,B_n
        return (
            f"{self.n},{self.eigenvalue},{self.multiplicity},"
            f"{float(self.sinh4_coeff):.17g},{float(self.sinh2_coeff):.17g}"
        )


def mode_table(N: int, n_max: int = 50) -> list[ModeCoefficients]:
    _require_dim(N)
    return [
        ModeCoefficients(
            n,
            mode_eigenvalue(n, N),
            mode_multiplicity(n, N),
            sinh4_coefficient(n, N),
            sinh2_coefficient(n, N),
        )
        for n in range(n_max + 1)
    ]


def verify_euclidean_rellich_split(N: int) -> tuple[bool, bool]:
    """Exact integer check that the two singular coefficients add up to the
    euclidean Rellich constant:

      9 + (N-1)(N-3)(N^2-4N-3) == N^2 (N-4)^2   (both sides 16x scaled)

    Returns (identity holds, N is within the N >= 5 hypothesis); the
    identity itself is polynomial and holds for every integer N.
    """
    lhs = 9 + (N - 1) * (N - 3) * (N * N - 4 * N - 3)
    rhs = N * N * (N - 4) ** 2
    return lhs == rhs, N >= 5


# ---------------------------------------------------------------------------
# one-dimensional inequalities and reduced forms


def check_sinh_hardy_1d(u: RadialFunction, nodes: int = 4096) -> MarginReport:
    """Margin of the 1-D weighted inequality
    int u'^2/sinh^2 >= 9/4 int u^2/sinh^4 + int u^2/sinh^2 (flat measure)."""
    line = flat_line(1)

    def one(nn):
        grid = grid_covering(u.support, nn)
        du = u.d1(grid.nodes)
        s2 = _inv_sinh_sq(grid.nodes)
        lhs = float(np.dot(grid.quad_weights, du * du * s2))
        uu = u(grid.nodes)
        rhs = float(np.dot(grid.quad_weights, uu * uu * (2.25 * s2 * s2 + s2)))
        return lhs, rhs

    return MarginReport.from_sides(one, (nodes,), "sinh_hardy_1d", 1, "line", u.label)


def _reduced_operator_values(d: RadialFunction, N: int, n: int, r: np.ndarray):
    lam = mode_eigenvalue(n, N)
    coth2 = 1.0 / np.tanh(r) ** 2
    q = (N - 1) * (N - 3) / 4.0 * coth2 + (N - 1) / 2.0 + lam * _inv_sinh_sq(r)
    return d.d2(r) - q * d(r)


def radial_reduced_form(d: RadialFunction, N: int, n: int,
                        grid: RadialGrid) -> float:
    """Per-mode reduced quadratic form (flat measure):

      int ( d'' - [(N-1)(N-3)/4 coth^2 r + (N-1)/2 + lambda_n/sinh^2 r] d )^2 dr.

    For n = 0 and d = sinh^((N-1)/2) u this equals the bilaplacian form of
    the radial function u (the substitution is an isometry of the forms).
    """
    _require_dim(N, 5)
    if d.d2 is None:
        raise ArgumentError("reduced form needs second-derivative data")
    a, b = d.support
    if not (a > grid.r_min and b < grid.r_max):
        raise SupportError("profile support must lie strictly inside the grid")
    vals = _reduced_operator_values(d, N, n, grid.nodes) ** 2
    return float(np.dot(grid.quad_weights, vals))


def reduced_from_radial(u: RadialFunction, N: int) -> RadialFunction:
    """d(r) = sinh(r)^((N-1)/2) * u(r) with closed-form derivatives."""
    half = 0.5 * (N - 1)

    def w(r):
        return np.exp(half * _log_sinh(r))

    def kappa(r):
        return half / np.tanh(r)

    def value(r):
        return w(r) * u(r)

    def d1(r):
        return w(r) * (kappa(r) * u(r) + u.d1(r))

    def d2(r):
        k = kappa(r)
        kp = -half * _inv_sinh_sq(r)
        return w(r) * ((k * k + kp) * u(r) + 2.0 * k * u.d1(r) + u.d2(r))

    return RadialFunction(value, d1, d2, support=u.support,
                          label=f"reduced({u.label})")


def mode_chain_margin(d: RadialFunction, N: int, n: int,
                      nodes: int = 4096) -> MarginReport:
    """Margin of the per-mode chain: reduced form >= 9/16 int d^2/r^4
    + (N-1)^2/8 int d^2/r^2 + (N-1)^4/16 int d^2 + A_n int d^2/sinh^4
    + B_n int d^2/sinh^2 (flat measure)."""
    _require_dim(N, 5)
    a4 = float(sinh4_coefficient(n, N))
    b2 = float(sinh2_coefficient(n, N))

    def one(nn):
        grid = grid_covering(d.support, nn)
        r = grid.nodes
        dd = d(r)
        s2 = _inv_sinh_sq(r)
        lhs = radial_reduced_form(d, N, n, grid)
        rhs = float(
            np.dot(
                grid.quad_weights,
                dd
                * dd
                * (
                    9.0 / 16.0 / r**4
                    + (N - 1) ** 2 / 8.0 / r**2
                    + (N - 1) ** 4 / 16.0
                    + a4 * s2 * s2
                    + b2 * s2
                ),
            )
        )
        return lhs, rhs

    return MarginReport.from_sides(one, (nodes,), f"mode_chain(n={n})",
                                   N, "hyperbolic", d.label)


def check_poincare_rellich(u: RadialFunction, N: int,
                           nodes: int = 4096) -> MarginReport:
    """Margin of the sharp Poincare-Rellich inequality (radial sector):

      int (Lap u)^2 - (N-1)^4/16 int u^2
        >= (N-1)^2/8 int u^2/r^2 + 9/16 int u^2/r^4
           + (N^2-1)(N-3)^2/8 int u^2/sinh^2
           + (N-1)(N-3)(N^2-4N-3)/16 int u^2/sinh^4.
    """
    _require_dim(N, 5)
    man = hyperbolic(N)

    def one(nn):
        grid = grid_covering(u.support, nn)
        r = grid.nodes
        lhs = (
            bilaplacian_form(u, man, grid)
            - (N - 1) ** 4 / 16.0 * weighted_l2(u, 1.0, man, grid)
        )
        inv_psi2 = np.exp(-2.0 * man.log_psi(r))
        rhs = (
            (N - 1) ** 2 / 8.0 * weighted_l2(u, lambda rr: 1.0 / rr**2, man, grid)
            + 9.0 / 16.0 * weighted_l2(u, lambda rr: 1.0 / rr**4, man, grid)
            + float(min_sinh2_closed_form(N)) * weighted_l2(u, inv_psi2, man, grid)
            + float(min_sinh4_closed_form(N)) * weighted_l2(u, inv_psi2**2, man, grid)
        )
        return lhs, rhs

    return MarginReport.from_sides(one, (nodes,), "poincare_rellich",
                                   N, "hyperbolic", u.label)


def principal_rellich_margin(u: RadialFunction, N: int, nodes: int = 4096) -> float:
    """Margin keeping only the two r-power terms on the right-hand side.

    This is the exact radial counterpart of the flattened-variable margin
    (the change of variables maps the three principal integrals termwise),
    used for the cross-model consistency check.
    """
    _require_dim(N, 5)
    man = hyperbolic(N)
    grid = grid_covering(u.support, nodes)
    lhs = (
        bilaplacian_form(u, man, grid)
        - (N - 1) ** 4 / 16.0 * weighted_l2(u, 1.0, man, grid)
    )
    rhs = (
        (N - 1) ** 2 / 8.0 * weighted_l2(u, lambda rr: 1.0 / rr**2, man, grid)
        + 9.0 / 16.0 * weighted_l2(u, lambda rr: 1.0 / rr**4, man, grid)
    )
    return lhs - rhs


# ---------------------------------------------------------------------------
# sharp-constant pencils


def estimate_sharp_rellich_r2(N: int, r_min: float = 1e-3, r_max: float = 1e6,
                              M: int = 8192, tol: float = 1e-8) -> ConstantEstimate:
    """Radial-sector estimate of the best 1/r^2 constant in the
    Poincare-Rellich inequality; tends to (N-1)^2/8 from above.

    The bilaplacian quotient is assembled after the exact substitution
    d = sinh^((N-1)/2) u (the mode-0 reduced form): direct sinh^(N-1)
    assembly both overflows at the truncation radii the constant needs and
    loses accuracy to exponential cancellation in the discrete operator.
    """
    _require_dim(N, 5)
    c4 = (N - 1) * (N - 3) / 4.0
    c2 = (N - 1) / 2.0
    lam2 = (N - 1) ** 4 / 16.0

    def build(m: int):
        grid = make_grid(r_min, r_max, m, "geometric")
        return assemble_custom_pencil(
            grid,
            log_weight=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
            drift=None,
            zeroth=lambda r: c4 / np.tanh(r) ** 2 + c2,
            V=lam2,
            W=lambda r: 1.0 / r**2,
            order=ORDER_BILAPLACIAN,
            rebuild=build,
        )

    est = min_generalized_eigenvalue(build(M), tol,
                                     label=f"rellich_sharp_r2_radial(N={N})")
    if est.value < 0.0:
        raise TruncationError(
            f"numerator form is indefinite on [{r_min:g}, {r_max:g}]; widen it"
        )
    return est


def euclidean_rellich_constant(N: int = 5, r_min: float = 1e-9,
                               r_max: float = 1e9, M: int = 8192,
                               tol: float = 1e-8) -> ConstantEstimate:
    """Radial euclidean Rellich pencil: int (Lap u)^2 r^(N-1) over
    int u^2/r^4 r^(N-1); tends to N^2(N-4)^2/16."""
    _require_dim(N, 5)
    grid = make_grid(r_min, r_max, M, "geometric")
    pencil = assemble_pencil(
        euclidean(N), None, lambda r: 1.0 / r**4, grid, ORDER_BILAPLACIAN
    )
    return min_generalized_eigenvalue(pencil, tol,
                                      label=f"euclid_rellich_radial(N={N})")


def one_d_rellich_constant(r_min: float = 1e-12, r_max: float = 1e12,
                           M: int = 8192, tol: float = 1e-8) -> ConstantEstimate:
    """1-D anchor: int u''^2 over int u^2/x^4 tends to 9/16, the constant
    the fourth-power weight inherits in the mode reduction."""

    def build(m: int):
        grid = make_grid(r_min, r_max, m, "geometric")
        return assemble_custom_pencil(
            grid,
            log_weight=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
            drift=None,
            zeroth=None,
            V=None,
            W=lambda r: 1.0 / r**4,
            order=ORDER_BILAPLACIAN,
            rebuild=build,
        )

    return min_generalized_eigenvalue(build(M), tol, label="one_d_rellich")


def one_d_hardy_constant(r_min: float = 1e-10, r_max: float = 1e10,
                         M: int = 8192, tol: float = 1e-8) -> ConstantEstimate:
    """1-D anchor: int z'^2 over int z^2/x^2 tends to 1/4.

    This is the limiting quotient behind the sharpness of the (N-1)^2/8
    constant: the dimension enters only through the final (N-1)^2/2
    rescaling, so the pencil itself is N-free.
    """
    grid = make_grid(r_min, r_max, M, "geometric")
    pencil = assemble_pencil(flat_line(1), None, lambda r: 1.0 / r**2, grid)
    return min_generalized_eigenvalue(pencil, tol, label="one_d_hardy")


# ---------------------------------------------------------------------------
# change of variables s(r) and its asymptotics


@dataclass(frozen=True)
class AsymptoticConstants:
    """Growth constants of the flattening change of variables.

    c1, c2 are the two leading coefficients of s(r); k1 the first correction
    of the density rho(s).  The ratios c2/c1 and k1 are exact rationals;
    their combination k1 - 2 c2/c1 = -4(N-1)/(N+1) is the consistency
    relation used by the limiting sharpness argument.
    """

    N: int
    c1: float
    c2: float
    k1: float
    c2_over_c1: Fraction
    k1_exact: Fraction

    def as_tuple(self) -> tuple[float, float, float]:
        return self.c1, self.c2, self.k1

    @property
    def consistency_exact(self) -> bool:
        return self.k1_exact - 2 * self.c2_over_c1 == Fraction(-4 * (self.N - 1), self.N + 1)


def asymptotic_constants(N: int) -> AsymptoticConstants:
    _require_dim(N, 5)
    c1 = ((N - 1) / (2 ** (N - 1) * (N - 2))) ** (1.0 / (N - 2))
    ratio = Fraction((N - 1) ** 2, (N + 1) * (N - 2))
    k1_exact = 2 * (N - 1) * (ratio - 1)
    return AsymptoticConstants(
        N=N,
        c1=c1,
        c2=c1 * float(ratio),
        k1=float(k1_exact),
        c2_over_c1=ratio,
        k1_exact=k1_exact,
    )


_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(12)


def _panel_integral(f, a, b):
    """Fixed 12-point Gauss panels, vectorized over array endpoints."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    acc = np.zeros_like(mid)
    for x, wt in zip(_GAUSS_X, _GAUSS_W):
        acc += wt * f(mid + half * x)
    return half * acc


class ChangeOfVariable:
    """Tabulated monotone map s(r) with ds/s^(N-1) = dr/sinh^(N-1) r.

    The tail integral behind s(r) is accumulated over Gauss panels on a
    log-spaced table covering r in [1e-4, 40], with the analytic series
    tail beyond 40 where the integrand is e^(-(N-1)sigma) times a
    geometric-series correction.  Inversion is bisection on the table
    plus Newton polishing with the exact derivative ds/dr = (s/sinh r)^(N-1).
    """

    TABLE_RANGE = (1e-4, 40.0)

    def __init__(self, N: int, table_size: int = 4096):
        self.N = _require_dim(N, 3)
        lo, hi = self.TABLE_RANGE
        self.r_tab = np.geomspace(lo, hi, table_size)
        tail = self._series_tail(hi)
        panels = _panel_integral(self._integrand, self.r_tab[:-1], self.r_tab[1:])
        self.i_tab = np.concatenate(
            (tail + np.cumsum(panels[::-1])[::-1], [tail])
        )
        self.prefactor = (N - 2) ** (-1.0 / (N - 2)) / 2 ** ((N - 1) / (N - 2))
        self.s_tab = self._s_from_integral(self.i_tab)

    def _integrand(self, sigma):
        sigma = np.asarray(sigma, dtype=float)
        return np.exp(-(self.N - 1) * (math.log(2.0) + _log_sinh(sigma)))

    def _series_tail(self, r):
        """Integral of (e^s - e^-s)^(1-N) from r to infinity, by series."""
        N = self.N
        total = 0.0
        for k in range(0, 60):
            coeff = math.comb(N - 2 + k, k)
            expo = N - 1 + 2 * k
            term = coeff * math.exp(-expo * r) / expo
            total += term
            if term < 1e-18 * total:
                break
        return total

    def _s_from_integral(self, i_vals):
        return self.prefactor * np.asarray(i_vals) ** (-1.0 / (self.N - 2))

    def s_of_r(self, r):
        """Forward map, vectorized; exact series tail for r >= 40."""
        r = np.asarray(r, dtype=float)
        if np.any(r <= 0.0):
            raise DomainError("s(r) needs r > 0")
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        out = np.empty_like(r)
        big = r >= self.TABLE_RANGE[1]
        if np.any(big):
            out[big] = self._s_from_integral(
                [self._series_tail(float(x)) for x in r[big]]
            )
        small = ~big
        if np.any(small):
            rs = r[small]
            if np.any(rs < self.TABLE_RANGE[0]):
                raise RangeError(
                    f"r below tabulated range {self.TABLE_RANGE[0]:g}"
                )
            j = np.searchsorted(self.r_tab, rs, side="left")
            j = np.minimum(j, self.r_tab.size - 1)
            local = _panel_integral(self._integrand, rs, self.r_tab[j])
            out[small] = self._s_from_integral(self.i_tab[j] + local)
        return float(out[0]) if scalar else out

    def ds_dr(self, r, s):
        return np.exp((self.N - 1) * (np.log(s) - _log_sinh(r)))

    def r_of_s(self, s):
        """Inverse map on the tabulated range."""
        s = np.asarray(s, dtype=float)
        scalar = s.ndim == 0
        s = np.atleast_1d(s)
        if np.any(s < self.s_tab[0]) or np.any(s > self.s_tab[-1]):
            raise RangeError(
                f"s outside tabulated range [{self.s_tab[0]:.3g}, "
                f"{self.s_tab[-1]:.3g}]"
            )
        r = np.exp(np.interp(np.log(s), np.log(self.s_tab), np.log(self.r_tab)))
        for _ in range(4):
            f = self.s_of_r(r) - s
            r = np.clip(
                r - f / self.ds_dr(r, s),
                self.TABLE_RANGE[0],
                self.TABLE_RANGE[1],
            )
        return float(r[0]) if scalar else r

    def rho_of_r(self, r):
        """Density rho = (sinh r / s)^(2(N-1)) along the map."""
        s = self.s_of_r(r)
        return np.exp(2.0 * (self.N - 1) * (_log_sinh(r) - np.log(s)))


@lru_cache(maxsize=8)
def change_of_variable(N: int) -> ChangeOfVariable:
    return ChangeOfVariable(N)


def s_of_r(N: int, r):
    return change_of_variable(N).s_of_r(r)


def two_term_expansion_error(N: int, r) -> np.ndarray:
    """|s(r) - c1 e^(mu r) + c2 e^(-nu r)| / e^(-nu r) with
    mu = (N-1)/(N-2), nu = (N-3)/(N-2); tends to 0 at large r.

    In double precision the true remainder (~ e^(-2r)) drops below the
    rounding floor of s (~ eps * e^(2r) after weighting) beyond r ~ 8;
    use two_term_expansion_error_precise for larger radii.
    """
    consts = asymptotic_constants(N)
    mu = (N - 1) / (N - 2)
    nu = (N - 3) / (N - 2)
    r = np.asarray(r, dtype=float)
    s = change_of_variable(N).s_of_r(r)
    pred = consts.c1 * np.exp(mu * r) - consts.c2 * np.exp(-nu * r)
    return np.abs(s - pred) / np.exp(-nu * r)


def two_term_expansion_error_precise(N: int, r_values, dps: int = 50) -> list[float]:
    """Expansion error from the exact series for the tail integral,
    evaluated in high-precision arithmetic (needed for r > ~8, where the
    remainder is smaller than double-precision rounding in s)."""
    _require_dim(N, 5)
    import mpmath

    # a private context: mpmath's global precision is shared by every thread
    mp = mpmath.MPContext()
    mp.dps = dps
    pref = mp.mpf(N - 2) ** (mp.mpf(-1) / (N - 2)) / mp.mpf(2) ** (
        mp.mpf(N - 1) / (N - 2)
    )
    c1 = (mp.mpf(N - 1) / (2 ** (N - 1) * (N - 2))) ** (mp.mpf(1) / (N - 2))
    c2 = c1 * (N - 1) ** 2 / ((N + 1) * (N - 2))
    mu = mp.mpf(N - 1) / (N - 2)
    nu = mp.mpf(N - 3) / (N - 2)
    out = []
    for r in np.atleast_1d(np.asarray(r_values, dtype=float)):
        rr = mp.mpf(r)
        tail = mp.mpf(0)
        for k in range(200):
            expo = N - 1 + 2 * k
            term = mp.binomial(N - 2 + k, k) * mp.e ** (-expo * rr) / expo
            tail += term
            if term < mp.mpf(10) ** (-dps - 5) * tail:
                break
        s = pref * tail ** (mp.mpf(-1) / (N - 2))
        pred = c1 * mp.e ** (mu * rr) - c2 * mp.e ** (-nu * rr)
        out.append(float(abs(s - pred) / mp.e ** (-nu * rr)))
    return out


def density_correction_fit(N: int, r_values) -> np.ndarray:
    """Pointwise fits of [rho e^(2 mu r) (2 c1)^(2N-2) - 1] / e^(-2r);
    these approach the exact first correction coefficient k1."""
    consts = asymptotic_constants(N)
    mu = (N - 1) / (N - 2)
    cov = change_of_variable(N)
    r = np.asarray(r_values, dtype=float)
    g = cov.rho_of_r(r) * np.exp(2.0 * mu * r) * (2.0 * consts.c1) ** (2 * N - 2) - 1.0
    return g / np.exp(-2.0 * r)


def mapped_from_radial(u: RadialFunction, N: int) -> RadialFunction:
    """Transport a radial profile to the flattened variable: v(s) = u(r(s)).

    Derivatives use dr/ds = (sinh r/s)^(N-1) = sqrt(rho) and
    d2r/ds2 = (N-1) r'(s) [coth(r) r'(s) - 1/s].
    """
    cov = change_of_variable(N)

    def _r_and_derivs(s):
        s = np.asarray(s, dtype=float)
        r = cov.r_of_s(s)
        rp = np.exp((N - 1) * (_log_sinh(r) - np.log(s)))
        rpp = (N - 1) * rp * (rp / np.tanh(r) - 1.0 / s)
        return r, rp, rpp

    a, b = u.support
    s_a = cov.s_of_r(max(a, cov.TABLE_RANGE[0]))
    s_b = cov.s_of_r(min(b, cov.TABLE_RANGE[1]))

    def value(s):
        r, _, _ = _r_and_derivs(s)
        return u(r)

    def d1(s):
        r, rp, _ = _r_and_derivs(s)
        return u.d1(r) * rp

    def d2(s):
        r, rp, rpp = _r_and_derivs(s)
        return u.d2(r) * rp * rp + u.d1(r) * rpp

    return RadialFunction(value, d1, d2, support=(s_a, s_b),
                          label=f"mapped({u.label})")


def check_mapped_rellich(v: RadialFunction, N: int,
                         nodes: int = 4096) -> MarginReport:
    """Margin of the flattened-variable Rellich inequality:

      int rho^-1 (Lap v)^2 s^(N-1) ds
        >= (N-1)^4/16 int rho v^2 s^(N-1) ds
           + 9/16 int rho/r^4 v^2 s^(N-1) ds
           + (N-1)^2/8 int rho/r^2 v^2 s^(N-1) ds

    with Lap the euclidean radial Laplacian in s and rho the transported
    volume density.
    """
    _require_dim(N, 5)
    cov = change_of_variable(N)

    def one(nn):
        grid = grid_covering(v.support, nn)
        s = grid.nodes
        r = cov.r_of_s(s)
        log_rho = 2.0 * (N - 1) * (_log_sinh(r) - np.log(s))
        rho = np.exp(log_rho)
        sw = s ** (N - 1)
        lap = v.d2(s) + (N - 1) / s * v.d1(s)
        vv = v(s)
        lhs = float(np.dot(grid.quad_weights, lap * lap / rho * sw))
        rhs = float(
            np.dot(
                grid.quad_weights,
                vv * vv * rho * sw * (
                    (N - 1) ** 4 / 16.0
                    + 9.0 / 16.0 / r**4
                    + (N - 1) ** 2 / 8.0 / r**2
                ),
            )
        )
        return lhs, rhs

    return MarginReport.from_sides(one, (nodes,), "mapped_rellich",
                                   N, "hyperbolic", v.label)

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

from . import claims
from .errors import (
    DomainError,
    NumericError,
    RangeError,
    TruncationError,
)
from .hardy import MarginReport
from .manifolds import _check_dimension, euclidean, hyperbolic
from .pencils import (
    ConstantEstimate,
    ORDER_BILAPLACIAN,
    assemble_pencil,
    min_generalized_eigenvalue,
)
from .radial import (
    RadialFunction,
    RadialGrid,
    grid_covering,
    make_grid,
    radial_sums,
)


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
    """Exact per-mode coefficient of the 1/sinh^4 term in the reduced bound,

      A_n = lam^2 + N(N-4)/2 lam + ((N-1)(N-3))^2/16 - 3(N-1)(N-3)/8,

    built from the integer 16 A_n."""
    _check_dimension(N, 5)
    lam = mode_eigenvalue(n, N)
    c = (N - 1) * (N - 3)
    return Fraction(16 * lam * lam + 8 * N * (N - 4) * lam + c * c - 6 * c, 16)


def sinh2_coefficient(n: int, N: int) -> Fraction:
    """Exact per-mode coefficient of the 1/sinh^2 term in the reduced bound,

      B_n = (N+1)(N-3)/2 lam + (N-1)^2(N-3)/4 + ((N-1)(N-3))^2/8 - (N-1)(N-3)/2,

    built from the integer 8 B_n."""
    _check_dimension(N, 5)
    lam = mode_eigenvalue(n, N)
    c = (N - 1) * (N - 3)
    return Fraction(4 * (N + 1) * (N - 3) * lam + 2 * (N - 1) * c + c * c - 4 * c, 8)


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
    _check_dimension(N, 5)
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
    """Exact check that the two singular coefficients add up to the
    euclidean Rellich constant:

      9/16 + (N-1)(N-3)(N^2-4N-3)/16 == N^2 (N-4)^2/16

    Returns (identity holds, N is within the N >= 5 hypothesis); the
    identity itself is polynomial and holds for every integer N.
    """
    return claims.RELLICH_R4 + min_sinh4_closed_form(N) == claims.euclid_rellich(N), N >= 5


# ---------------------------------------------------------------------------
# one-dimensional inequalities and reduced forms


def check_sinh_hardy_1d(u: RadialFunction, nodes: int = 1024) -> MarginReport:
    """Margin of the 1-D weighted inequality
    int u'^2/sinh^2 >= 9/4 int u^2/sinh^4 + int u^2/sinh^2 (flat measure)."""

    grid = grid_covering(u.support, nodes)
    s2 = hyperbolic(3).inv_psi_sq(grid.nodes)  # psi = sinh r in every dimension
    weight = float(claims.SINH_1D_S4) * s2 * s2 + float(claims.SINH_1D_S2) * s2
    lhs, rhs = radial_sums(u, grid, [("grad2", s2), ("v2", weight)], 1.0)
    return MarginReport.from_sides(lhs, rhs, "sinh_hardy_1d", 1, "line", u.labels)


def _reduced_sums(d: RadialFunction, N: int, n: int, grid: RadialGrid,
                  *weights, subgrid: bool = True) -> np.ndarray:
    """The mode-n reduced form, then int d^2 w for each weight w (flat
    measure), as radial_sums returns them.  Its potential is hyperbolic(N)'s
    substitution potential plus lambda_n/sinh^2."""
    man, r = hyperbolic(N), grid.nodes
    q = man.substitution_potential(r) + mode_eigenvalue(n, N) * man.inv_psi_sq(r)
    terms = [("lap2", 1.0), *(("v2", w) for w in weights)]
    return radial_sums(d, grid, terms, 1.0, zeroth=q, subgrid=subgrid)


def radial_reduced_form(d: RadialFunction, N: int, n: int,
                        grid: RadialGrid) -> float:
    """Per-mode reduced quadratic form (flat measure):

      int ( d'' - [(N-1)(N-3)/4 coth^2 r + (N-1)/2 + lambda_n/sinh^2 r] d )^2 dr.

    For n = 0 and d = sinh^((N-1)/2) u this equals the bilaplacian form of
    the radial function u (the substitution is an isometry of the forms).
    """
    _check_dimension(N, 5)
    return _reduced_sums(d, N, n, grid, subgrid=False)[0]


def reduced_from_radial(u: RadialFunction, N: int) -> RadialFunction:
    """d(r) = sinh(r)^((N-1)/2) * u(r) with closed-form derivatives, read
    from hyperbolic(N): (log d/u)' = a psi'/psi and, since
    (log sinh)'' = -1/sinh^2, (log d/u)'' = -a/psi^2, a = (N-1)/2."""
    man = hyperbolic(N)
    half = 0.5 * (N - 1)

    def jet(r, order):
        wr = np.exp(half * man.log_psi(r))
        ur = u.jet(r, order)
        out = (wr * ur[0],)
        if not order:
            return out
        k = half * man.dpsi_over_psi(r)
        out += (wr * (k * ur[0] + ur[1]),)
        if order == 1:
            return out
        kp = -half * man.inv_psi_sq(r)
        return out + (wr * ((k * k + kp) * ur[0] + 2.0 * k * ur[1] + ur[2]),)

    return RadialFunction(jet, support=u.support, label=f"reduced({u.label})",
                          members=tuple(reduced_from_radial(m, N) for m in u.members))


def mode_chain_margin(d: RadialFunction, N: int, n: int,
                      nodes: int = 1024) -> MarginReport:
    """Margin of the per-mode chain: reduced form >= 9/16 int d^2/r^4
    + (N-1)^2/8 int d^2/r^2 + (N-1)^4/16 int d^2 + A_n int d^2/sinh^4
    + B_n int d^2/sinh^2 (flat measure)."""
    _check_dimension(N, 5)
    a4 = float(sinh4_coefficient(n, N))
    b2 = float(sinh2_coefficient(n, N))

    grid = grid_covering(d.support, nodes)
    r = grid.nodes
    s2 = hyperbolic(N).inv_psi_sq(r)
    weight = (float(claims.RELLICH_R4) / r**4 + float(claims.rellich_r2(N)) / r**2
              + float(claims.rellich_l2(N)) + a4 * s2 * s2 + b2 * s2)
    lhs, rhs = _reduced_sums(d, N, n, grid, weight)
    return MarginReport.from_sides(lhs, rhs, f"mode_chain(n={n})", N, "hyperbolic", d.labels)


def _poincare_rellich_sums(u: RadialFunction, N: int, grid: RadialGrid) -> np.ndarray:
    """int (Lap u)^2, int u^2, int u^2/r^2, int u^2/r^4, int u^2/sinh^2 and
    int u^2/sinh^4 (hyperbolic volume weight), as radial_sums returns them."""
    man = hyperbolic(N)
    r = grid.nodes
    inv_psi2 = man.inv_psi_sq(r)
    terms = [("lap2", 1.0), ("v2", 1.0), ("v2", 1.0 / r**2), ("v2", 1.0 / r**4),
             ("v2", inv_psi2), ("v2", inv_psi2**2)]
    return radial_sums(u, grid, terms, man.measure_weight(r),
                       drift=(N - 1) * man.dpsi_over_psi(r))


def check_poincare_rellich(u: RadialFunction, N: int,
                           nodes: int = 1024) -> MarginReport:
    """Margin of the sharp Poincare-Rellich inequality (radial sector):

      int (Lap u)^2 - (N-1)^4/16 int u^2
        >= (N-1)^2/8 int u^2/r^2 + 9/16 int u^2/r^4
           + (N^2-1)(N-3)^2/8 int u^2/sinh^2
           + (N-1)(N-3)(N^2-4N-3)/16 int u^2/sinh^4.
    """
    _check_dimension(N, 5)

    lap2, l2, by_r2, by_r4, by_psi2, by_psi4 = _poincare_rellich_sums(
        u, N, grid_covering(u.support, nodes))
    lhs = lap2 - float(claims.rellich_l2(N)) * l2
    rhs = (
        float(claims.rellich_r2(N)) * by_r2
        + float(claims.RELLICH_R4) * by_r4
        + float(min_sinh2_closed_form(N)) * by_psi2
        + float(min_sinh4_closed_form(N)) * by_psi4
    )
    return MarginReport.from_sides(lhs, rhs, "poincare_rellich", N, "hyperbolic", u.labels)


def principal_rellich_margin(u: RadialFunction, N: int, nodes: int = 1024) -> float:
    """Margin keeping only the two r-power terms on the right-hand side.

    This is the exact radial counterpart of the flattened-variable margin
    (the change of variables maps the three principal integrals termwise),
    used for the cross-model consistency check.
    """
    _check_dimension(N, 5)
    lap2, l2, by_r2, by_r4, _, _ = _poincare_rellich_sums(
        u, N, grid_covering(u.support, nodes))
    lhs = lap2 - float(claims.rellich_l2(N)) * l2
    return float((lhs - (float(claims.rellich_r2(N)) * by_r2
                         + float(claims.RELLICH_R4) * by_r4))[0])


# ---------------------------------------------------------------------------
# sharp-constant pencils


def estimate_sharp_rellich_r2(N: int, r_min: float = 1e-3, r_max: float = 1e6,
                              M: int = 8192, tol: float = 1e-8,
                              near: float | None = None) -> ConstantEstimate:
    """Radial-sector estimate of the best 1/r^2 constant in the
    Poincare-Rellich inequality; tends to (N-1)^2/8 from above.

    assemble_pencil forms the bilaplacian quotient after the exact
    substitution d = sinh^((N-1)/2) u (the mode-0 reduced form): direct
    sinh^(N-1) assembly both overflows at the truncation radii the
    constant needs and loses accuracy to exponential cancellation in the
    discrete operator.
    ``near`` warm-starts the eigensolve (see min_generalized_eigenvalue).
    """
    _check_dimension(N, 5)
    pencil = assemble_pencil(hyperbolic(N), float(claims.rellich_l2(N)), lambda r: 1.0 / r**2,
                             make_grid(r_min, r_max, M, "geometric"), ORDER_BILAPLACIAN)
    est = min_generalized_eigenvalue(pencil, tol, near=near)
    if est.value < 0.0:
        raise TruncationError(
            f"numerator form is indefinite on [{r_min:g}, {r_max:g}]; widen it"
        )
    return est


def sharp_r2_next_truncation(N: int, value: float, r_max: float, r_next: float) -> float:
    """The radial Rellich 1/r^2 estimate at r_max = r_next predicted from
    its value at r_max by the truncation law

      v = c + 4 pi^2 c / L^2,  c = (N-1)^2/8,  L = log(r_max / r0),

    the truncated 1-D Hardy quotient 1/4 + pi^2/L^2 times (N-1)^2/2: L is
    solved from value, then moved on by log(r_next / r_max).  A value at
    or below the limit, or a truncation r_next below r0, predicts value
    itself.  A warm start for estimate_sharp_rellich_r2, not an estimate."""
    limit = float(claims.rellich_r2(N))
    rate = 4.0 * math.pi**2 * limit
    if value <= limit:
        return value
    L = math.sqrt(rate / (value - limit)) + math.log(r_next / r_max)
    return limit + rate / L**2 if L > 0.0 else value


def euclidean_rellich_constant(N: int = 5, M: int = 8192) -> ConstantEstimate:
    """Radial euclidean Rellich pencil: int (Lap u)^2 r^(N-1) over
    int u^2/r^4 r^(N-1); tends to N^2(N-4)^2/16.  After d = r^((N-1)/2) u
    it is int (d'' - (N-1)(N-3)/(4 r^2) d)^2 over int d^2/r^4."""
    _check_dimension(N, 5)
    grid = make_grid(1e-9, 1e9, M, "geometric")
    pencil = assemble_pencil(
        euclidean(N), None, lambda r: 1.0 / r**4, grid, ORDER_BILAPLACIAN
    )
    return min_generalized_eigenvalue(pencil, 1e-8)


def one_d_rellich_constant(M: int = 8192) -> ConstantEstimate:
    """1-D anchor: int u''^2 over int u^2/x^4 tends to 9/16, the constant
    the fourth-power weight inherits in the mode reduction.  It is the
    euclidean(3) Rellich pencil, whose substitution d = r u leaves d''."""
    grid = make_grid(1e-12, 1e12, M, "geometric")
    return min_generalized_eigenvalue(
        assemble_pencil(euclidean(3), None, lambda r: 1.0 / r**4, grid, ORDER_BILAPLACIAN), 1e-8)


def one_d_hardy_constant(r_min: float = 1e-10, M: int = 8192) -> ConstantEstimate:
    """1-D anchor: int z'^2 over int z^2/x^2 tends to 1/4.

    This is the limiting quotient behind the sharpness of the (N-1)^2/8
    constant: the dimension enters only through the final (N-1)^2/2
    rescaling, so the pencil itself is N-free.  It is the euclidean(3)
    Hardy pencil: z = r u, then z = r^(1/2) phi, weight r.
    """
    grid = make_grid(r_min, 1e10, M, "geometric")
    return min_generalized_eigenvalue(
        assemble_pencil(euclidean(3), None, lambda r: 1.0 / r**2, grid), 1e-8)


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

    @property
    def consistency_exact(self) -> bool:
        return self.k1_exact - 2 * self.c2_over_c1 == Fraction(-4 * (self.N - 1), self.N + 1)


def asymptotic_constants(N: int) -> AsymptoticConstants:
    _check_dimension(N, 5)
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
    geometric-series correction.  Inversion starts from a cubic Hermite
    interpolant of log r against log s on the table, with the exact slopes
    from ds/dr = (s/sinh r)^(N-1), and polishes it by Newton steps.
    """

    TABLE_RANGE = (1e-4, 40.0)
    TABLE_SIZE = 4096
    # Newton polishing of r(s) stops once every relative residual
    # |s(r) - s| / s is at most NEWTON_RTOL before a step, which then
    # leaves an error of order its square; it gives up after NEWTON_STEPS.
    NEWTON_RTOL = 1e-9
    NEWTON_STEPS = 8

    def __init__(self, N: int):
        man = hyperbolic(N)
        self.N = man.N
        self._log_psi = man.log_psi
        lo, hi = self.TABLE_RANGE
        self.r_tab = np.geomspace(lo, hi, self.TABLE_SIZE)
        tail = self._series_tail(hi)
        panels = _panel_integral(self._integrand, self.r_tab[:-1], self.r_tab[1:])
        self.i_tab = np.concatenate(
            (tail + np.cumsum(panels[::-1])[::-1], [tail])
        )
        self.prefactor = (N - 2) ** (-1.0 / (N - 2)) / 2 ** ((N - 1) / (N - 2))
        self.s_tab = self._s_from_integral(self.i_tab)
        # the inverse interpolant's table: log s, log r and d log r / d log s
        self._log_s = np.log(self.s_tab)
        self._log_r = np.log(self.r_tab)
        self._slope = self.s_tab / (self.r_tab * self.ds_dr(self.r_tab, self.s_tab))

    def _integrand(self, sigma):
        sigma = np.asarray(sigma, dtype=float)
        return np.exp(-(self.N - 1) * (math.log(2.0) + self._log_psi(sigma)))

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

    def log_ds_dr(self, r, s):
        """log ds/dr = (N-1)(log s - log sinh r): the one copy of the
        density, which ds_dr, rho_of_r and the mapped profiles exponentiate."""
        return (self.N - 1) * (np.log(s) - self._log_psi(r))

    def ds_dr(self, r, s):
        return np.exp(self.log_ds_dr(r, s))

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
        r = self._invert(s)
        return float(r[0]) if scalar else r

    def _invert(self, s: np.ndarray) -> np.ndarray:
        """r(s) on the tabulated range: the Hermite start, then Newton steps
        until the relative residual meets NEWTON_RTOL (NumericError naming
        s when NEWTON_STEPS do not)."""
        x = np.log(s)
        j = np.clip(np.searchsorted(self._log_s, x, side="right") - 1,
                    0, self._log_s.size - 2)
        h = self._log_s[j + 1] - self._log_s[j]
        t = (x - self._log_s[j]) / h
        t1 = 1.0 - t
        r = np.exp(t1 * t1 * ((1.0 + 2.0 * t) * self._log_r[j] + t * h * self._slope[j])
                   + t * t * ((3.0 - 2.0 * t) * self._log_r[j + 1]
                              - t1 * h * self._slope[j + 1]))
        for _ in range(self.NEWTON_STEPS):
            f = self.s_of_r(r) - s
            converged = np.abs(f) <= self.NEWTON_RTOL * s
            r = np.clip(r - f / self.ds_dr(r, s), *self.TABLE_RANGE)
            if np.all(converged):
                return r
        bad = np.flatnonzero(~converged)
        raise NumericError(
            f"r(s) did not converge in {self.NEWTON_STEPS} Newton steps at "
            f"s = {s.flat[bad[0]]:.17g} ({bad.size} nodes)"
        )

    def rho_of_r(self, r):
        """Density rho = (sinh r / s)^(2(N-1)) along the map."""
        return np.exp(-2.0 * self.log_ds_dr(r, self.s_of_r(r)))


@lru_cache(maxsize=8)
def change_of_variable(N: int) -> ChangeOfVariable:
    return ChangeOfVariable(N)


def two_term_prediction(N: int, r) -> np.ndarray:
    """The two-term expansion c1 e^(mu r) - c2 e^(-nu r) of s(r), with
    mu = (N-1)/(N-2) and nu = (N-3)/(N-2)."""
    consts = asymptotic_constants(N)
    mu = (N - 1) / (N - 2)
    nu = (N - 3) / (N - 2)
    return consts.c1 * np.exp(mu * r) - consts.c2 * np.exp(-nu * r)


def two_term_expansion_error(N: int, r) -> np.ndarray:
    """|s(r) - two_term_prediction(N, r)| / e^(-nu r), nu = (N-3)/(N-2);
    tends to 0 at large r.

    In double precision the true remainder (~ e^(-2r)) drops below the
    rounding floor of s (~ eps * e^(2r) after weighting) beyond r ~ 8;
    use two_term_expansion_error_precise for larger radii.
    """
    r = np.asarray(r, dtype=float)
    s = change_of_variable(N).s_of_r(r)
    return np.abs(s - two_term_prediction(N, r)) / np.exp(-(N - 3) / (N - 2) * r)


# two_term_expansion_error_precise sums its series to at most this many
# terms; r = 1e-3 (N = 5) needs about 57,000
PRECISE_SERIES_CAP = 100_000


def two_term_expansion_error_precise(N: int, r_values, dps: int = 50) -> list[float]:
    """Expansion error from the exact series for the tail integral,
    evaluated in high-precision arithmetic (needed for r > ~8, where the
    remainder is smaller than double-precision rounding in s).

    The tail is sum_k C(N-2+k, k) e^(-(N-1+2k) r)/(N-1+2k), summed until a
    term drops below 10^(-dps-5) of the sum; its ratio tends to e^(-2r), so
    small radii need about dps log(10)/(2r) terms.  A series that has not
    converged within PRECISE_SERIES_CAP terms raises NumericError naming
    its radius.  One mpmath context serves every radius."""
    _check_dimension(N, 5)
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
    small = mp.mpf(10) ** (-dps - 5)
    out = []
    for r in np.atleast_1d(np.asarray(r_values, dtype=float)):
        if not r > 0.0:
            raise DomainError(f"the tail series diverges at r = {r:g}; it needs r > 0")
        rr = mp.mpf(r)
        step = mp.exp(-2 * rr)
        power = mp.exp(-(N - 1) * rr)  # e^(-(N-1+2k) r), stepped by e^(-2r)
        tail = mp.mpf(0)
        for k in range(PRECISE_SERIES_CAP):
            term = math.comb(N - 2 + k, k) * power / (N - 1 + 2 * k)
            tail += term
            if term < small * tail:
                break
            power *= step
        else:
            raise NumericError(
                f"tail series at r = {r:g} has not converged in "
                f"{PRECISE_SERIES_CAP} terms"
            )
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

    def jet(s, order):
        # one inversion r(s) for the whole jet
        s = np.asarray(s, dtype=float)
        r = cov.r_of_s(s)
        ur = u.jet(r, order)
        if not order:
            return ur
        rp = np.exp(-cov.log_ds_dr(r, s))
        out = (ur[0], ur[1] * rp)
        if order == 1:
            return out
        rpp = (N - 1) * rp * (rp / np.tanh(r) - 1.0 / s)
        return out + (ur[2] * rp * rp + ur[1] * rpp,)

    a, b = u.support
    s_a = cov.s_of_r(np.maximum(a, cov.TABLE_RANGE[0]))
    s_b = cov.s_of_r(np.minimum(b, cov.TABLE_RANGE[1]))
    return RadialFunction(jet, support=(s_a, s_b), label=f"mapped({u.label})",
                          members=tuple(mapped_from_radial(m, N) for m in u.members))


def check_mapped_rellich(v: RadialFunction, N: int,
                         nodes: int = 1024) -> MarginReport:
    """Margin of the flattened-variable Rellich inequality:

      int rho^-1 (Lap v)^2 s^(N-1) ds
        >= (N-1)^4/16 int rho v^2 s^(N-1) ds
           + 9/16 int rho/r^4 v^2 s^(N-1) ds
           + (N-1)^2/8 int rho/r^2 v^2 s^(N-1) ds

    with Lap the euclidean radial Laplacian in s and rho the transported
    volume density.
    """
    _check_dimension(N, 5)
    cov = change_of_variable(N)
    grid = grid_covering(v.support, nodes)
    s = grid.nodes
    r = cov.r_of_s(s)
    rho = np.exp(-2.0 * cov.log_ds_dr(r, s))
    principal = (float(claims.rellich_l2(N)) + float(claims.RELLICH_R4) / r**4
                 + float(claims.rellich_r2(N)) / r**2)
    lhs, rhs = radial_sums(v, grid, [("lap2", 1.0 / rho), ("v2", rho * principal)],
                           s ** (N - 1), drift=(N - 1) / s)
    return MarginReport.from_sides(lhs, rhs, "mapped_rellich", N, "hyperbolic", v.labels)

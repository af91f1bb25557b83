"""Second-order (bilaplacian) inequalities: spherical-mode reduction, the
one-dimensional weighted inequality, and the density change of variables
with its asymptotics; the sharp Rellich estimate and the anchors are
entries of quotients.QUOTIENTS.

Closed-form coefficient identities are evaluated in exact rational
arithmetic; floating point only enters through quadrature and eigensolves.
The change of variables s(r) is a closed form too: one function,
_log_tail, evaluates its tail integral in numpy or in an mpmath context,
and r(s) inverts it by Newton steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import claims, quotients
from .config import default_config
from .errors import DomainError, NumericError
from .hardy import MarginReport, _sides
from .manifolds import _check_dimension, hyperbolic
from .pencils import ConstantEstimate
from .radial import RadialFunction, RadialGrid, grid_covering, radial_sums


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
    sides = ([(1.0, "grad2", s2)],
             [(float(claims.SINH_1D_S4), "v2", s2 * s2), (float(claims.SINH_1D_S2), "v2", s2)])
    return MarginReport.from_sides(*_sides(u, grid, 1.0, *sides),
                                   "sinh_hardy_1d", 1, "line", u.labels)


def _reduced_potential(N: int, n: int, r) -> np.ndarray:
    """The zeroth-order term of the mode-n reduced form: hyperbolic(N)'s
    substitution potential plus lambda_n/sinh^2."""
    man = hyperbolic(N)
    return man.substitution_potential(r) + mode_eigenvalue(n, N) * man.inv_psi_sq(r)


def radial_reduced_form(d: RadialFunction, N: int, n: int,
                        grid: RadialGrid) -> float:
    """Per-mode reduced quadratic form (flat measure):

      int ( d'' - [(N-1)(N-3)/4 coth^2 r + (N-1)/2 + lambda_n/sinh^2 r] d )^2 dr.

    For n = 0 and d = sinh^((N-1)/2) u this equals the bilaplacian form of
    the radial function u (the substitution is an isometry of the forms).
    """
    _check_dimension(N, 5)
    return radial_sums(d, grid, [("lap2", 1.0)], 1.0, zeroth=_reduced_potential(N, n, grid.nodes),
                       subgrid=False)[0]


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


def _poincare_rellich(N: int, n: int, r, psi: bool = True) -> tuple[list, list]:
    """The sides of Poincare-Rellich with the mode-n coefficients, as
    signed terms at the nodes r:

      int (Lap u)^2 - (N-1)^4/16 int u^2
        >= (N-1)^2/8 int u^2/r^2 + 9/16 int u^2/r^4
           + B_n int u^2/sinh^2 + A_n int u^2/sinh^4,

    without the two sinh terms for psi False.  In the radial sector,
    n = 0, B_0 = (N^2-1)(N-3)^2/8 and A_0 = (N-1)(N-3)(N^2-4N-3)/16 are
    the sharp coefficients (min_sinh2_closed_form, min_sinh4_closed_form)."""
    rhs = [(float(claims.rellich_r2(N)), "v2", 1.0 / r**2),
           (float(claims.RELLICH_R4), "v2", 1.0 / r**4)]
    if psi:
        s2 = hyperbolic(N).inv_psi_sq(r)
        rhs += [(float(sinh2_coefficient(n, N)), "v2", s2),
                (float(sinh4_coefficient(n, N)), "v2", s2**2)]
    return [(1.0, "lap2", 1.0), (-float(claims.rellich_l2(N)), "v2", 1.0)], rhs


def mode_chain_margin(d: RadialFunction, N: int, n: int,
                      nodes: int = 1024) -> MarginReport:
    """Margin of the per-mode chain: _poincare_rellich for mode n with its
    int d^2 term moved to the right, so that the reduced form
    (radial_reduced_form) is the whole left side (flat measure)."""
    _check_dimension(N, 5)
    grid = grid_covering(d.support, nodes)
    r = grid.nodes
    (lap2, (c, q, w)), rhs = _poincare_rellich(N, n, r)
    return MarginReport.from_sides(
        *_sides(d, grid, 1.0, [lap2], [(-c, q, w), *rhs], zeroth=_reduced_potential(N, n, r)),
        f"mode_chain(n={n})", N, "hyperbolic", d.labels)


def check_poincare_rellich(u: RadialFunction, N: int,
                           nodes: int = 1024) -> MarginReport:
    """Margin of the sharp Poincare-Rellich inequality in the radial sector:
    _poincare_rellich for mode 0, against the volume weight sinh^(N-1) r."""
    _check_dimension(N, 5)
    man = hyperbolic(N)
    grid = grid_covering(u.support, nodes)
    r = grid.nodes
    return MarginReport.from_sides(
        *_sides(u, grid, man.measure_weight(r), *_poincare_rellich(N, 0, r),
                drift=(N - 1) * man.dpsi_over_psi(r)),
        "poincare_rellich", N, "hyperbolic", u.labels)


def principal_rellich_margin(u: RadialFunction, N: int, nodes: int = 1024) -> float:
    """Margin keeping only the two r-power terms on the right-hand side.

    This is the exact radial counterpart of the flattened-variable margin
    (the change of variables maps the three principal integrals termwise),
    used for the cross-model consistency check.
    """
    _check_dimension(N, 5)
    man = hyperbolic(N)
    grid = grid_covering(u.support, nodes)
    r = grid.nodes
    lhs, rhs = _sides(u, grid, man.measure_weight(r), *_poincare_rellich(N, 0, r, psi=False),
                      drift=(N - 1) * man.dpsi_over_psi(r), subgrid=False)
    return float(lhs - rhs)


# ---------------------------------------------------------------------------
# the sharp 1/r^2 estimate


def estimate_sharp_rellich_r2(N: int, M: int | None = None) -> ConstantEstimate:
    """The rellich_sharp_r2_radial estimate of quotients.QUOTIENTS on the
    default truncation, on M nodes where given."""
    return quotients.estimate("rellich_sharp_r2_radial", N, default_config(), M=M)


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


def _c1(N: int, num):
    """The leading coefficient c1 = ((N-1) / (2^(N-1) (N-2)))^(1/(N-2)) of
    s(r), in the number type num: float, or an mpmath context's mpf."""
    return (num(N - 1) / (2 ** (N - 1) * (N - 2))) ** (num(1) / (N - 2))


def asymptotic_constants(N: int) -> AsymptoticConstants:
    _check_dimension(N, 5)
    c1 = _c1(N, float)
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


# the tail series of _log_tail takes at most this many terms
TAIL_SERIES_CAP = 10_000
# the relative rounding error of a double: the float map's target accuracy
UNIT_ROUNDOFF = 2.0**-53


def _log_tail(N: int, r, m, eps):
    """log(e^((N-1) r) I(r)), I(r) = int_r^oo (2 sinh x)^(1-N) dx, to a
    relative error of about eps: in numpy (m = np, r a 1-D array) or in an
    mpmath context m (r one mpf).

    Where sinh r < 1 it climbs the reduction for the scaled tails
    K_n = sinh^(n-1) r int_r^oo sinh^-n x dx,

      K_n = (cosh r - (n-2) sinh^2 r K_(n-2)) / (n-1),

    from K_1 = -log tanh(r/2) or K_2 = e^-r up to n = N-1; each step
    multiplies an error by (n-2)/(n-1) sinh^2 r < 1, and
    I = 2^(1-N) K_(N-1) / sinh^(N-2) r.  Elsewhere q = e^(-2r) <= 3 - 2 sqrt 2
    and it sums

      I = e^(-(N-1) r) sum_k C(N-2+k, k) q^k / (N-1+2k)

    in Horner form, to the term count at which a bound on the remainder at
    the largest q is below eps of the sum (at smaller q its share is
    smaller still); more than TAIL_SERIES_CAP terms raise NumericError
    naming r."""
    num = getattr(m, "mpf", float)  # the context's number type

    def reduction(r):
        sh, ch = m.sinh(r), m.cosh(r)
        start = 1 + N % 2
        k = -m.log(m.tanh(r / 2)) if start == 1 else m.exp(-r)
        for n in range(start + 2, N, 2):
            k = (ch - (n - 2) * sh * sh * k) / (n - 1)
        return m.log(k) - (N - 2) * m.log(sh) + (N - 1) * (r - m.log(2))

    def series(r):
        q = m.exp(-2 * r)
        # the term count for an array's radii is the one for the branch's
        # largest q, 3 - 2 sqrt 2, so a radius gets the same sum in any
        # array; one mpf radius takes the count for its own q
        q_top = 3.0 - 2.0 * math.sqrt(2.0) if m is np else float(q)
        k = 0
        term = total = 1.0 / (N - 1)  # the k-th term at q_top, and the sum so far
        while True:
            ratio = q_top * (N - 1 + k) / (k + 1)  # bounds every later term ratio
            if ratio < 1.0 and term * ratio <= eps * total * (1.0 - ratio):
                break
            if k == TAIL_SERIES_CAP:
                raise NumericError(f"the tail series at r = {float(np.min(r)):g} needs "
                                   f"more than {TAIL_SERIES_CAP} terms")
            term *= ratio * (N - 1 + 2 * k) / (N + 1 + 2 * k)
            total += term
            k += 1
        acc = 0
        for j in range(k, -1, -1):
            acc = acc * q + num(math.comb(N - 2 + j, j)) / (N - 1 + 2 * j)
        return m.log(acc)

    near = r < m.asinh(1)  # sinh r < 1
    if m is not np:
        return reduction(r) if near else series(r)
    out = np.empty_like(r)
    if np.any(near):
        out[near] = reduction(r[near])
    if not np.all(near):
        out[~near] = series(r[~near])
    return out


def _log_s_minus_r(N: int, r, m, eps):
    """log s(r) - r, in numpy or an mpmath context m as _log_tail, from
    s = c1 ((N-1) I)^(-1/(N-2)) = (2^(N-1) (N-2) I)^(-1/(N-2)).  Where
    log s is large, s = e^r e^(log s - r) loses less to rounding than
    e^(log s)."""
    return (r - _log_tail(N, r, m, eps) - (N - 1) * m.log(2) - m.log(N - 2)) / (N - 2)


def s_of_r(N: int, r):
    """The flattening map s(r), ds/s^(N-1) = dr/sinh^(N-1) r with s ~ r at
    the pole, in closed form (_log_tail); vectorized over r > 0."""
    _check_dimension(N)
    r = np.asarray(r, dtype=float)
    if not np.all(r > 0.0):
        raise DomainError("s(r) needs r > 0")
    shape, r = r.shape, r.ravel()
    return (np.exp(r) * np.exp(_log_s_minus_r(N, r, np, UNIT_ROUNDOFF))).reshape(shape)[()]


def log_ds_dr(N: int, r, s):
    """log ds/dr = (N-1)(log s - log sinh r): the one copy of the density,
    which r_of_s and the mapped profiles exponentiate."""
    return (N - 1) * (np.log(s) - hyperbolic(N).log_psi(r))


# r(s) steps each node until its residual |log s(r) - log s| is at most
# NEWTON_RTOL, then once more, which leaves an error of order its square;
# it gives up after NEWTON_STEPS.
NEWTON_RTOL = 1e-9
NEWTON_STEPS = 8


def r_of_s(N: int, s):
    """The inverse map r(s), vectorized over finite s > 0: Newton steps in
    log r on log s(r), from r = s (the pole's s ~ r) below c1 and from
    min(s, log(s/c1)/mu), mu = (N-1)/(N-2) (the inverse of the leading term
    c1 e^(mu r)), above it; NumericError naming s when NEWTON_STEPS do not
    converge."""
    _check_dimension(N)
    s = np.asarray(s, dtype=float)
    if not np.all((s > 0.0) & np.isfinite(s)):
        raise DomainError("r(s) needs a finite s > 0")
    shape, s = s.shape, s.ravel()
    c1, log_s = _c1(N, float), np.log(s)
    r = s.copy()
    above = s > c1
    r[above] = np.minimum(s[above], np.log(s[above] / c1) * (N - 2) / (N - 1))
    x = np.log(r)
    todo = np.ones(s.shape, dtype=bool)  # the nodes still stepping
    for _ in range(NEWTON_STEPS):
        r = np.exp(x[todo])
        log_sr = r + _log_s_minus_r(N, r, np, UNIT_ROUNDOFF)
        f = log_sr - log_s[todo]
        # the slope d log s / d log r = r (ds/dr) / s
        x[todo] -= f * np.exp(log_sr - x[todo] - log_ds_dr(N, r, np.exp(log_sr)))
        todo[todo] = np.abs(f) > NEWTON_RTOL
        if not np.any(todo):
            return np.exp(x).reshape(shape)[()]
    raise NumericError(
        f"r(s) did not converge in {NEWTON_STEPS} Newton steps at "
        f"s = {s[todo][0]:.17g} ({np.count_nonzero(todo)} nodes)"
    )


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
    s = s_of_r(N, r)
    return np.abs(s - two_term_prediction(N, r)) / np.exp(-(N - 3) / (N - 2) * r)


def two_term_expansion_error_precise(N: int, r_values, dps: int = 50) -> list[float]:
    """two_term_expansion_error in dps-digit arithmetic (needed for r > ~8,
    where the remainder is smaller than double-precision rounding in s):
    s(r) from _log_tail and c1, c2 from their definitions, all in one
    private mpmath context, which serves every radius."""
    _check_dimension(N, 5)
    mp, points = _precise_log_s(N, r_values, dps)
    c1 = _c1(N, mp.mpf)
    c2 = c1 * asymptotic_constants(N).c2_over_c1
    mu = mp.mpf(N - 1) / (N - 2)
    nu = mp.mpf(N - 3) / (N - 2)
    return [float(abs(mp.exp(log_s) - c1 * mp.exp(mu * r) + c2 * mp.exp(-nu * r)) * mp.exp(nu * r))
            for r, log_s in points]


def _precise_log_s(N: int, r_values, dps: int):
    """A private dps-digit mpmath context (mpmath's global precision is
    shared by every thread), and (r, log s(r)) in it at each radius."""
    import mpmath

    mp = mpmath.MPContext()
    mp.dps = dps
    points = []
    for r in np.atleast_1d(np.asarray(r_values, dtype=float)):
        if not r > 0.0:
            raise DomainError(f"the tail integral diverges at r = {r:g}; it needs r > 0")
        r = mp.mpf(r)
        points.append((r, r + _log_s_minus_r(N, r, mp, float(mp.eps))))
    return mp, points


def density_correction_fit(N: int, r_values) -> np.ndarray:
    """Pointwise fits of [rho e^(2 mu r) (2 c1)^(2N-2) - 1] / e^(-2r);
    these approach the exact first correction coefficient k1.  The bracket
    cancels to about e^(-2r), so it is formed in 50 digits, with
    log rho = 2(N-1)(log sinh r - log s): in floats the fits at r = 8, 10
    and 12 read 1.8e-4 of rounding where they are within 3.1e-8 of k1."""
    _check_dimension(N, 5)
    mp, points = _precise_log_s(N, r_values, 50)
    log_2c1, mu = mp.log(2 * _c1(N, mp.mpf)), mp.mpf(N - 1) / (N - 2)
    return np.array([
        float(mp.expm1(2 * (N - 1) * (mp.log(mp.sinh(r)) - log_s + log_2c1) + 2 * mu * r)
              * mp.exp(2 * r)) for r, log_s in points])


def mapped_from_radial(u: RadialFunction, N: int) -> RadialFunction:
    """Transport a radial profile to the flattened variable: v(s) = u(r(s)),
    supported on s(support of u).

    Derivatives use dr/ds = (sinh r/s)^(N-1) = sqrt(rho) and
    d2r/ds2 = (N-1) r'(s) [coth(r) r'(s) - 1/s].
    """

    def jet(s, order):
        # one inversion r(s) for the whole jet
        s = np.asarray(s, dtype=float)
        r = r_of_s(N, s)
        ur = u.jet(r, order)
        if not order:
            return ur
        rp = np.exp(-log_ds_dr(N, r, s))
        out = (ur[0], ur[1] * rp)
        if order == 1:
            return out
        rpp = (N - 1) * rp * (rp / np.tanh(r) - 1.0 / s)
        return out + (ur[2] * rp * rp + ur[1] * rpp,)

    a, b = u.support
    return RadialFunction(jet, support=(s_of_r(N, a), s_of_r(N, b)), label=f"mapped({u.label})",
                          members=tuple(mapped_from_radial(m, N) for m in u.members))


def check_mapped_rellich(v: RadialFunction, N: int,
                         nodes: int = 1024) -> MarginReport:
    """Margin of the flattened-variable Rellich inequality: the principal
    terms of _poincare_rellich (psi False) at r = r(s), with the int v^2
    term moved to the right,

      int rho^-1 (Lap v)^2 s^(N-1) ds
        >= (N-1)^4/16 int rho v^2 s^(N-1) ds
           + (N-1)^2/8 int rho/r^2 v^2 s^(N-1) ds
           + 9/16 int rho/r^4 v^2 s^(N-1) ds

    with Lap the euclidean radial Laplacian in s and rho the transported
    volume density.
    """
    _check_dimension(N, 5)
    grid = grid_covering(v.support, nodes)
    s = grid.nodes
    r = r_of_s(N, s)
    rho = np.exp(-2.0 * log_ds_dr(N, r, s))
    ((c0, q0, w0), (c, q, w)), rhs = _poincare_rellich(N, 0, r, psi=False)
    # the change of variables divides (Lap v)^2 by rho and multiplies v^2 by it
    lhs = [(c0, q0, w0 / rho)]
    rhs = [(a, p, x * rho) for a, p, x in [(-c, q, w), *rhs]]
    return MarginReport.from_sides(*_sides(v, grid, s ** (N - 1), lhs, rhs, drift=(N - 1) / s),
                                   "mapped_rellich", N, "hyperbolic", v.labels)

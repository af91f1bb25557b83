"""Ball-model and half-space transforms of the hyperbolic inequalities.

Ball-side identities reduce to 1-D integrals in t = |x| (the sphere factor
cancels against the hyperbolic one).  Half-space checks use 2-D
quadrature on (|x|, y) with the (N-2)-sphere area folded into the |x|
weight; that constant is omitted from every margin (it multiplies both
sides) and restored through sphere_area() where hyperbolic radial values
are compared against half-space values.

Each half-space check lists its integrals as terms, sums of
xi^(N-2) y^(-p) Q d^(-2k) with Q one of v^2, |grad v|^2 and (Lap v)^2.
_halfspace_sums evaluates them on the rules the test function's type
names: the type forms the Q the terms name on a rule's mesh, and the rule
sums the terms from them.  A tensor product fx(|x|) fy(y) takes a
TensorGrid that keeps the xi = 0 row, with the Euler-Maclaurin end weight
for odd N, and forms Q from jets on the two axes; the far part of each
distance weight is summed on the grid and the near part on a polar patch
about (0, 1).  A transported radial profile y^(-alpha) U(d) takes a
geodesic polar rule about (0, 1) over its support annulus, where U lives
on the d axis alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
import numpy as np

from . import claims
from .errors import ArgumentError, DomainError, EvaluationError
from .manifolds import _check_dimension, hyperbolic
from .radial import (
    RadialFunction,
    _check_support_inside,
    _trapezoid_weights,
    bilaplacian_form,
    bump,
    grid_covering,
    make_grid,
    plateau_cutoff,
    radial_sums,
)
from .hardy import MarginReport


def sphere_area(dim: int) -> float:
    """Area of the unit sphere bounding the dim-dimensional unit ball."""
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


# ---------------------------------------------------------------------------
# ball model


def ball_radius_of_t(t):
    """Geodesic radius of the ball-model point at euclidean radius t."""
    return 2.0 * np.arctanh(np.asarray(t, dtype=float))


def conformal_factor(t):
    return 2.0 / (1.0 - np.asarray(t, dtype=float) ** 2)


def ball_from_radial(u: RadialFunction, N: int) -> RadialFunction:
    """Transplanted profile v(t) = (2/(1-t^2))^((N-2)/2) u(r(t)), with its
    first derivative only.  Its support is the image of u's under
    t = tanh(r/2), so v vanishes near |x| = 1 when u has compact support."""
    half = 0.5 * (N - 2)

    def jet(t, order):
        t = np.asarray(t, dtype=float)
        c = conformal_factor(t)
        ur = u.jet(ball_radius_of_t(t), order)
        out = (c ** half * ur[0],)
        # c' = c^2 t and r'(t) = c
        return out + (c ** (half + 1.0) * (half * t * ur[0] + ur[1]),) if order else out

    a, b = u.support
    return RadialFunction(
        jet, max_order=1,
        support=(np.tanh(a / 2.0), np.tanh(np.minimum(b, 700.0) / 2.0)),
        label=f"ball({u.label})",
        members=tuple(ball_from_radial(m, N) for m in u.members),
    )


def ball_identity_check(u: RadialFunction, N: int, nodes: int = 1024) -> tuple:
    """Relative discrepancies of the three transplantation identities
    (one array of them per identity for a family, one per member):

      gradient:  hyperbolic Dirichlet energy against
                 int |grad v|^2 + N(N-2)/4 int c(t)^2 v^2
      l2:        int u^2 dv against int c^2 v^2
      hardy:     int u^2/r^2 dv against int c^2 v^2 / r(t)^2

    Both sides are reduced to 1-D radial integrals, one radial_sums call
    per side; the sphere factor is identical on the two sides and dropped.
    """
    man = hyperbolic(N)
    grid_h = grid_covering(u.support, nodes)
    v = ball_from_radial(u, N)
    ta, tb = v.support
    grid_t = make_grid(np.maximum(ta * 0.9, 1e-12), np.minimum(tb * 1.05, 1.0 - 1e-12),
                       nodes, "uniform")
    r, t = grid_h.nodes, grid_t.nodes
    c2 = conformal_factor(t) ** 2

    grad_h, l2_h, hardy_h = radial_sums(
        u, grid_h, [("grad2", 1.0), ("v2", 1.0), ("v2", 1.0 / r**2)],
        man.measure_weight(r), subgrid=False)
    grad_b, conf_b, l2_b, hardy_b = radial_sums(
        v, grid_t, [("grad2", 1.0), ("v2", N * (N - 2) / 4.0 * c2), ("v2", c2),
                    ("v2", c2 / ball_radius_of_t(t) ** 2)], t ** (N - 1), subgrid=False)

    def gap(lhs, rhs):
        scale = np.maximum(abs(lhs), abs(rhs))
        return np.divide(abs(lhs - rhs), scale, out=np.zeros_like(scale), where=scale != 0.0)

    return gap(grad_h, grad_b + conf_b), gap(l2_h, l2_b), gap(hardy_h, hardy_b)


def check_ball_hardy(v: RadialFunction, N: int, nodes: int = 1024) -> MarginReport:
    """Margin of the boundary-improved Hardy inequality on the unit ball:

      int |grad v|^2 >= 1/4 int c^2 v^2 + 1/4 int c^2 v^2 / log^2((1+t)/(1-t))

    with c = 2/(1-t^2); radial reduction in t = |x|.
    """
    _check_dimension(N)
    _check_support_inside(v, 0.0, 1.0)
    a, b = v.support
    grid = make_grid(a * 0.9, (b + 1.0) / 2.0, nodes, "uniform")
    t = grid.nodes
    c2 = conformal_factor(t) ** 2
    grad2, v2, v2_log = radial_sums(
        v, grid, [("grad2", 1.0), ("v2", c2), ("v2", c2 / ball_radius_of_t(t) ** 2)],
        t ** (N - 1))
    return MarginReport.from_sides(
        grad2, float(claims.BALL_HARDY) * v2 + float(claims.HARDY_R2) * v2_log,
        "ball_hardy", N, "ball", v.labels)


def boundary_weight_comparison(samples: int = 1000) -> tuple[bool, float]:
    """Pointwise comparison log^2((1+t)/(1-t)) <= (1 - log((1-t)/2))^2 on
    (0,1); returns (holds everywhere, max signed excess)."""
    t = np.linspace(1e-6, 1.0 - 1e-6, samples)
    lhs = np.log((1.0 + t) / (1.0 - t)) ** 2
    rhs = (1.0 - np.log((1.0 - t) / 2.0)) ** 2
    excess = float(np.max(lhs - rhs))
    return excess <= 0.0, excess


# ---------------------------------------------------------------------------
# tensor functions on the half-space
#
# A half-space term (q, p, k) is the quadrature sum of
#   xi^(N-2) y^(-p) Q d^(-2k)
# (sphere factor omitted), where Q is v^2 for q = "v2", |grad v|^2 for
# "grad2" and (Lap v)^2 for "lap2", with Lap the R^N Laplacian of
# v(|x|, y), and d is the distance to (0, 1); only v2 terms carry a
# distance power.  Each test function type names the rules that sum a
# list of terms with rules(nx, ny, terms) and gives the Q they name on a
# rule's mesh with quantities(rule, N, qs); each rule sums terms from
# those with sums(N, terms, quantity).


class TensorProductFunction:
    """v(|x|, y) = fx(|x|) * fy(y) with C^inf factors, fx with a smooth
    even extension (fx'(0) = 0).

    Its rules (see rules) are the over_box grid, which keeps every node,
    the xi = 0 row with the end weight of xi_weights, and the polar patch
    about (0, 1) (_polar_patch).  Each distance weight d^(-2k) is split as
    chi d^(-2k) + (1 - chi) d^(-2k), chi the cutoff _PATCH_CUTOFF in d: the
    far part is summed on the grid, where it is smooth, and the near part
    on the patch, where d^(-2k) cancels against the polar measure.  On
    both the integrand is smooth, so every term converges at order >= 4.
    A margin's quad_error, its change against the every-other-node subgrid
    plus the half patch, overstates its error: on the 128^2 y2 margin of
    tensor_bump(1.0, 0.5, 2.0), N = 5, it reads 8.4e-5 of |lhs| against
    6.8e-8 from a grid and patch 4x finer."""

    def __init__(self, fx: RadialFunction, fy: RadialFunction, label: str = ""):
        self.fx = fx
        self.fy = fy
        self.label = label or f"tensor({fx.label},{fy.label})"

    def rules(self, nx: int, ny: int, terms) -> list:
        """(rule, indices of the terms it sums) pairs: the uniform nx x ny
        grid, xi = 0 row included, over the box [0, xb] x [ya, yb] of the
        supports padded by 2%, for every term, and the polar patch for the
        near part of the distance-weighted ones, which must be v2 terms."""
        ya, yb = self.fy.support
        grid = TensorGrid.over_box(self.fx.support[1] * 1.02, ya * 0.98, yb * 1.02, nx, ny)
        near = [t for t, (_, _, k) in enumerate(terms) if k]
        for term in (terms[t] for t in near):
            if term[0] != "v2":
                raise ArgumentError(f"term {term}: the polar patch sums distance-weighted v2 terms only")
        rules = [(grid, range(len(terms)))]
        if near:
            rules.append((_polar_patch(*PATCH_NODES), near))
        return rules

    def x_jet(self, xi, N: int):
        """(fx, fx', Lx), where Lx = fx'' + (N-2) fx'/xi, so that the R^N
        Laplacian of v(|x|, y) is Lx fy + fx fy''.  On the axis fx'/xi
        takes its limit fx''(0), as fx'(0) = 0."""
        f, f1, f2 = self.fx.jet(xi, 2)
        ratio = np.divide(f1, xi, out=f2.copy(), where=xi != 0.0)
        return f, f1, f2 + (N - 2) * ratio

    def quantities(self, rule, N: int, qs) -> dict:
        """Each Q in qs on the mesh of the rule.  On the grid the jets stay
        on the axes, fx's on xi as a column and fy's on y, and their
        products broadcast to the mesh: |grad v|^2 = fx'^2 fy^2 + fx^2 fy'^2
        and Lap v = Lx fy + fx fy''.  On the patch, which sums v^2 alone,
        fx and fy are evaluated at order 0 at every node."""
        if isinstance(rule, _PolarRule):
            v = self.fx(rule.xi) * self.fy(rule.y)
            return {"v2": v * v}
        fx, fx1, lx = (a[:, None] for a in self.x_jet(rule.xi, N))
        fy, fy1, fy2 = self.fy.jet(rule.y, 2)
        fx_sq, fy_sq = fx * fx, fy * fy
        quantity = {}
        if "v2" in qs:
            quantity["v2"] = fx_sq * fy_sq
        if "grad2" in qs:
            grad2 = fx1 * fx1 * fy_sq
            grad2 += fx_sq * (fy1 * fy1)
            quantity["grad2"] = grad2
        if "lap2" in qs:
            lap = lx * fy
            lap += fx * fy2
            lap *= lap
            quantity["lap2"] = lap
        return quantity


def tensor_bump(xi_extent: float, y_lo: float, y_hi: float) -> TensorProductFunction:
    """Cylindrical bump: plateau cutoff in |x| times a C^inf bump in y."""
    fx = plateau_cutoff(xi_extent / 2.0)
    fy = bump(y_lo, y_hi)
    return TensorProductFunction(
        fx, fy, label=f"tensor_bump(xi<{xi_extent:g},y[{y_lo:g},{y_hi:g}])")


class TransportedRadial:
    """Half-space function v = y^(-alpha) U(d), d the distance to (0, 1),
    built from a radial profile.

    U must vanish near d = 0 (support [a, b] with a > 0), which keeps every
    chain-rule factor finite.  Its rule (see rules) is the geodesic polar
    rule about (0, 1) over the support annulus a <= d <= b, on which U
    lives on the d axis alone.  A margin's quad_error, its change against
    the every-other-d-node subgrid and the half theta rule, overstates its
    error: on the N = 3 margin of the suites (TRANSPORTED_RULE) it reads
    4.8e-9 of |lhs|, set by the half theta rule, against 1.8e-14 from the
    fine radial value.
    """

    def __init__(self, U: RadialFunction, N: int, alpha: float):
        if U.support[0] <= 0.0:
            raise ArgumentError("transported profile needs support away from d = 0")
        self.U = U
        self.N = N
        self.alpha = alpha
        self.label = f"transported({U.label},alpha={alpha:g})"

    def rules(self, nx: int, ny: int, terms) -> list:
        """One rule for every term: the polar rule of nx nodes in d on
        [a, b], trapezoid weights with those of the every-other-node
        subgrid, times the Clenshaw-Curtis rule of order ny in theta on
        [0, pi] with its half rule.  U and all its derivatives vanish at a
        and b, and the theta integrand is analytic, so both rules converge
        faster than any power."""
        d = np.linspace(*self.U.support, nx)
        return [(_polar_rule(d, _trapezoid_pair(d), ny), range(len(terms)))]

    def jet(self, d, xi, y, N: int, laplacian: bool = True):
        """(v, dv/dxi, dv/dy, Lap v) at the points (xi, y) at distance d > 0
        from (0, 1), from one chain-rule pass through w = cosh d, whose
        partials are xi/y and 1/2 - (1 + xi^2)/(2 y^2): Lap is the R^N
        Laplacian of v(|x|, y), left off (with U'' and the second
        derivatives of d) unless ``laplacian``.  d broadcasts against xi
        and y, so on a d axis U, its derivatives and the factors of d alone
        are formed once.  N must be the dimension the function was built
        for.
        """
        if N != self.N:
            raise ArgumentError(f"transported function built for N = {self.N} "
                                f"cannot be evaluated in dimension N = {N}")
        U, U1, *U2 = self.U.jet(d, 2 if laplacian else 1)
        g = 1.0 / np.sinh(d)  # dd/dw
        al = self.alpha
        iy = 1.0 / y
        ya = y ** -al
        ya1 = al * ya * iy  # -(y^-alpha)' = alpha y^(-alpha-1)
        xi2p1 = 1.0 + xi * xi
        w_xi = xi * iy
        w_y = 0.5 - 0.5 * xi2p1 * iy * iy
        d_xi = w_xi * g
        d_y = w_y * g
        first = (ya * U, ya * U1 * d_xi, ya * U1 * d_y - ya1 * U)
        if not laplacian:
            return first
        g3w = np.cosh(d) * g**3
        d_xixi = iy * g - w_xi**2 * g3w
        d_yy = xi2p1 * iy**3 * g - w_y**2 * g3w
        # v_xixi + v_yy + (N-2) v_xi/xi, where d_xi/xi = g/y stays finite
        # on the axis
        return (
            *first,
            ya * (U2[0] * (d_xi * d_xi + d_y * d_y)
                  + U1 * (d_xixi + d_yy + (N - 2) * g * iy))
            + ya1 * ((al + 1.0) * U * iy - 2.0 * U1 * d_y),
        )

    def quantities(self, rule: "_PolarRule", N: int, qs) -> dict:
        """Each Q in qs on the mesh of the polar rule, from one jet with U
        on the d axis."""
        v, v_xi, v_y, *lap = self.jet(rule.d[:, None], rule.xi, rule.y, N,
                                      laplacian="lap2" in qs)
        quantity = {}
        if "v2" in qs:
            quantity["v2"] = v * v
        if "grad2" in qs:
            quantity["grad2"] = v_xi * v_xi + v_y * v_y
        if lap:
            quantity["lap2"] = lap[0] * lap[0]
        return quantity


def _trapezoid_pair(nodes: np.ndarray) -> np.ndarray:
    """Trapezoid weights of the nodes over those of the every-other-node
    subgrid nodes[::2], zero on the nodes it skips: shape (2, n)."""
    w = np.zeros((2, nodes.size))
    w[0] = _trapezoid_weights(nodes)
    w[1, ::2] = _trapezoid_weights(nodes[::2])
    return w


@cache
def _axis_end_weight(N: int) -> float:
    """B_(N-1)/(N-1), exactly, for odd N >= 3 (1/12 for N = 3, -1/120 for
    N = 5): the Euler-Maclaurin end term of the trapezoid rule for
    xi^(N-2) F on [0, a] is -B_(N-1)/(N-1) h^(N-1) F(0) when F is smooth
    and even in xi and vanishes near a."""
    bernoulli = [Fraction(1)]  # B_0, B_1, ... by the binomial recurrence
    for m in range(1, N):
        bernoulli.append(-sum(math.comb(m + 1, k) * b for k, b in enumerate(bernoulli))
                         / (m + 1))
    return float(bernoulli[N - 1] / (N - 1))


@dataclass(frozen=True)
class TensorGrid:
    """Tensor trapezoid grid on (|x|, y) = (xi, y): the rule of a tensor
    product.  w_xi and w_y are the weights on each axis over those of the
    every-other-node subgrid, every other row and column of the grid,
    shape (2, n): the sums of one set of node values on the grid and on
    the subgrid differ by about the subgrid's quadrature error."""

    xi: np.ndarray
    y: np.ndarray
    w_xi: np.ndarray
    w_y: np.ndarray

    @staticmethod
    def over_box(xi_max: float, y_lo: float, y_hi: float,
                 nx: int, ny: int) -> "TensorGrid":
        """The uniform nx x ny grid on [0, xi_max] x [y_lo, y_hi]."""
        if y_lo <= 0.0:
            raise ArgumentError("tensor grid needs y > 0")
        xi = np.linspace(0.0, xi_max, nx)
        y = np.linspace(y_lo, y_hi, ny)
        return TensorGrid(xi, y, _trapezoid_pair(xi), _trapezoid_pair(y))

    def xi_weights(self, N: int) -> np.ndarray:
        """The xi weights of the grid and of its subgrid, shape (2, nx):
        the trapezoid weights times xi^(N-2) (sphere factor omitted).

        For odd N a xi = 0 row gets the weights B_(N-1)/(N-1) h^(N-1) and
        B_(N-1)/(N-1) (2h)^(N-1), h the xi spacing: applied to the
        integrand without its xi^(N-2) factor, they cancel the leading
        Euler-Maclaurin end term, so for an integrand smooth and even in
        xi the error falls from O(h^(N-1)) to O(h^(N+1)).  For even N >= 4
        that row keeps its trapezoid weight times 0^(N-2) = 0: the
        integrand is then even in xi and has no such end term."""
        w = self.w_xi * self.xi ** (N - 2)
        if N % 2 and self.xi[0] == 0.0:
            h = self.xi[1]
            w[:, 0] = _axis_end_weight(N) * np.array([h, 2.0 * h]) ** (N - 1)
        return w

    def sums(self, N: int, terms, quantity: dict) -> np.ndarray:
        """The sums of the terms (q, p, k) with Q = quantity[q] on the mesh,
        on the grid and on its subgrid, shape (len(terms), 2): the xi
        weights of xi_weights, the y weights divided by y^p, and for k > 0
        the far part (1 - chi) d^(-2k) of the distance weight at every
        node."""
        w_xi = self.xi_weights(N)
        ks = {k for _, _, k in terms if k}
        far = _far_distance_weights(self, ks) if ks else {}
        out = []
        for q, p, k in terms:
            values = quantity[q] * far[k] if k else quantity[q]
            out.append(np.vecdot(w_xi @ values, self.w_y * self.y ** -p))
        return np.array(out)

    def node(self, i: int) -> tuple:
        """(xi, y) of the i-th node of the mesh, in row order."""
        row, col = divmod(i, self.y.size)
        return self.xi[row], self.y[col]

    @property
    def cosh_dist(self) -> np.ndarray:
        """cosh of the distance to (0, 1) on the mesh, A(y) + xi^2 B(y)
        with A = 1 + (y-1)^2/(2y) and B = 1/(2y)."""
        b = 0.5 / self.y
        return (1.0 + (self.y - 1.0) ** 2 * b) + (self.xi * self.xi)[:, None] * b


# The near part chi(d) d^(-2k) of a tensor product's distance weight:
# chi is 1 for d <= PATCH_RADIUS / 2 and 0 for d >= PATCH_RADIUS.
PATCH_RADIUS = 0.3
_PATCH_CUTOFF = plateau_cutoff(PATCH_RADIUS / 2.0)
# Clenshaw-Curtis orders of the polar patch in d and in theta (multiples
# of 4, so that the half rule has an even order too)
PATCH_NODES = (64, 32)
# Nodes per axis of the tensor-bump grid of the margin checks: the
# smallest multiple of 16 that keeps every term of the suites' tensor
# bumps within 1e-7, relative, of a grid and a patch 4x finer (7.2e-8;
# 112 reads 2.2e-7).  Below 128 the error is not monotone in the size:
# 126 reads 1.6e-7 and 127 3.1e-8.
TENSOR_GRID = 128
# Nodes in d and Clenshaw-Curtis order in theta of a transported
# profile's polar rule in the suites: the smallest d count in steps of 32,
# and theta order in steps of 4, that keep every transported term of the
# two rows within 1e-12, relative, of a rule with twice the nodes on each
# axis, at that count and at every count within 16 of it (at most 1.6e-13
# over 304..336; order 28 reads 9.7e-13).  The error swings by two orders
# with the count below 300: 256 reads 3.5e-14 and 257 3.6e-12.
TRANSPORTED_RULE = (320, 32)


def _clenshaw_curtis(a: float, b: float, n: int):
    """Nodes of the (n + 1)-point Clenshaw-Curtis rule on [a, b], n a
    multiple of 4, ascending, and its weights stacked over those of the
    (n/2 + 1)-point rule on every other node (zero on the nodes it skips):
    shape (2, n+1).  The weights are the closed-form cosine sums for even
    orders (Trefethen, Spectral Methods in MATLAB, 2000, clencurt), a few
    array operations."""
    if n % 4:
        raise ArgumentError(f"Clenshaw-Curtis order {n} is not a multiple of 4")
    rows = []
    for m in (n, n // 2):
        theta = np.pi * np.arange(m + 1) / m
        j = np.arange(1, m // 2)
        v = (1.0 - 2.0 * (np.cos(np.outer(theta, 2.0 * j)) / (4.0 * j * j - 1.0)).sum(axis=1)
             - np.cos(m * theta) / (m * m - 1.0))
        w = v * (2.0 / m)
        w[[0, -1]] = 1.0 / (m * m - 1.0)
        rows.append(w * (0.5 * (b - a)))
    weights = np.zeros((2, n + 1))
    weights[0], weights[1, ::2] = rows
    nodes = a + (0.5 * (b - a)) * (1.0 - np.cos(np.pi * np.arange(n + 1) / n))
    return nodes, weights


@dataclass(frozen=True)
class _PolarRule:
    """Geodesic polar rule about (0, 1): the point at distance d in
    direction theta in [0, pi] is y = 1/(cosh d - sinh d cos theta),
    xi = y sinh d sin theta, and dxi dy = y^2 sinh d dd dtheta.  d is the d
    axis, sinh and sinhc = sinh(d)/d (1 at d = 0) factors on it, sin the
    sines on the theta axis, and xi and y the mesh d x theta; w_d and
    w_theta are the weights on each axis over those of the coarser rule
    whose change gives quad_error, shape (2, n)."""

    d: np.ndarray
    w_d: np.ndarray
    sinh: np.ndarray
    sinhc: np.ndarray
    w_theta: np.ndarray
    sin: np.ndarray
    xi: np.ndarray
    y: np.ndarray

    def sums(self, N: int, terms, quantity: dict) -> np.ndarray:
        """The sums of the terms (q, p, k) with Q = quantity[q] on the mesh,
        on the rule and on the coarser one, shape (len(terms), 2): in these
        coordinates xi^(N-2) y^(-p) d^(-2k) dxi dy is y^(N-p) times
        sinhc^(2k) sinh^(N-1-2k) dd, a factor of d alone, times
        sin^(N-2) dtheta, one of theta alone."""
        w_theta = self.w_theta * self.sin ** (N - 2)
        out = []
        for q, p, k in terms:
            w_d = self.w_d * (self.sinhc ** (2 * k) * self.sinh ** (N - 1 - 2 * k))
            out.append(np.vecdot(w_d @ (quantity[q] * self.y ** (N - p)), w_theta))
        return np.array(out)

    def node(self, i: int) -> tuple:
        """(xi, y) of the i-th node of the mesh, in row order."""
        return self.xi.flat[i], self.y.flat[i]


def _polar_rule(d: np.ndarray, w_d: np.ndarray, n_theta: int) -> _PolarRule:
    """The polar rule of the nodes d with weights w_d (shape (2, d.size))
    and the Clenshaw-Curtis rule of order n_theta on [0, pi]."""
    theta, w_theta = _clenshaw_curtis(0.0, math.pi, n_theta)
    sinh = np.sinh(d)
    sinhc = np.divide(sinh, d, out=np.ones_like(d), where=d > 0.0)
    sin = np.sin(theta)
    y = 1.0 / (np.cosh(d)[:, None] - np.outer(sinh, np.cos(theta)))
    return _PolarRule(d, w_d, sinh, sinhc, w_theta, sin, y * np.outer(sinh, sin), y)


@cache
def _polar_patch(n_d: int, n_theta: int) -> _PolarRule:
    """The polar patch of a tensor product's distance weights: the
    Clenshaw-Curtis rules of orders n_d in d on [0, PATCH_RADIUS], its
    weights times chi(d), and n_theta in theta, built on first use."""
    d, w_d = _clenshaw_curtis(0.0, PATCH_RADIUS, n_d)
    patch = _polar_rule(d, w_d * _PATCH_CUTOFF(d), n_theta)
    for a in vars(patch).values():
        a.flags.writeable = False
    return patch


def _far_distance_weights(grid: TensorGrid, ks) -> dict:
    """(1 - chi(d)) d^(-2k) at the grid's nodes for each k in ks.  d^-2
    is formed in place on the whole mesh and its powers once; 1 - chi is
    applied only at the nodes with d < PATCH_RADIUS, where it is 0 at
    d <= PATCH_RADIUS / 2, so the reference point (0, 1) gets 0, not
    0/0."""
    w = grid.cosh_dist
    inv_d2 = np.arccosh(w)
    inv_d2 *= inv_d2
    np.divide(1.0, inv_d2, out=inv_d2)
    dist = {k: inv_d2 if k == 1 else inv_d2 ** k for k in ks}
    near = w < math.cosh(PATCH_RADIUS)
    if near.any():
        d = np.arccosh(w[near])
        keep = 1.0 - _PATCH_CUTOFF(d)
        inv = np.divide(1.0, d * d, out=np.zeros_like(d), where=keep > 0.0)
        for k, values in dist.items():
            values[near] = keep * inv ** k
    return dist


def _halfspace_sums(v, N: int, nx: int, ny: int, terms) -> np.ndarray:
    """The sums of the half-space terms (q, p, k) of v on the rules
    v.rules(nx, ny, terms) of its type, and on each rule's coarser one,
    whose change gives quad_error: shape (len(terms), 2).  For a
    TensorProductFunction that is the nx x ny grid over its box, with
    the polar patch for the near parts, against the every-other-node
    subgrid and the half patch; for a TransportedRadial the polar rule of
    nx nodes in d and order ny in theta against the every-other-d-node
    subgrid and the half theta rule.

    A non-finite sum raises EvaluationError naming the first node, in row
    order, of the rule where that term's Q is non-finite, or the overflow
    when Q is finite everywhere.
    """
    sums = np.zeros((len(terms), 2))
    with np.errstate(all="ignore"):  # non-finite sums are traced below
        for rule, rows in v.rules(nx, ny, terms):
            summed = [terms[t] for t in rows]
            quantity = v.quantities(rule, N, {q for q, _, _ in summed})
            sums[rows] += rule.sums(N, summed, quantity)
            for t in rows:
                if np.all(np.isfinite(sums[t])):
                    continue
                bad = np.flatnonzero(~np.isfinite(quantity[terms[t][0]]))
                if bad.size:
                    raise EvaluationError(
                        "half-space integrand is non-finite at (xi, y) = "
                        "({:.6g}, {:.6g})".format(*rule.node(bad[0])))
                raise EvaluationError(f"half-space integral of the term {terms[t]} overflows")
    return sums


def _tensor_margin(name: str, v, N: int, nx: int, ny: int, terms,
                   sides) -> MarginReport:
    """Half-space margin report from sides(*sums) -> (lhs, rhs), with sums
    the sums of the terms on v.rules(nx, ny, terms) and on their coarser
    rules; the margin change between the two is the quadrature error."""
    lhs, rhs = sides(*_halfspace_sums(v, N, nx, ny, terms))
    return MarginReport.from_sides(lhs, rhs, name, N, "halfspace", [v.label])


def check_halfspace_hardy(v, N: int, nx: int = TENSOR_GRID,
                          ny: int = TENSOR_GRID) -> MarginReport:
    """Margin of the distance-improved Hardy inequality on the half-space:

      int int |grad v|^2 >= 1/4 int int v^2/y^2 + 1/4 int int v^2/(y^2 d^2)

    with d the hyperbolic distance to (0, 1); cylindrical reduction with the
    (N-2)-sphere factor folded into the |x| weight.
    """
    _check_dimension(N)
    return _tensor_margin(
        "halfspace_hardy", v, N, nx, ny,
        [("grad2", 0, 0), ("v2", 2, 0), ("v2", 2, 1)],
        lambda grad2, v2, v2_d2: (grad2, float(claims.HALFSPACE_HARDY) * v2
                                  + float(claims.HARDY_R2) * v2_d2),
    )


def check_halfspace_rellich(v, N: int, which: str, nx: int = TENSOR_GRID,
                            ny: int = TENSOR_GRID) -> MarginReport:
    """Margin of a half-space second-order inequality.

    which = "y2":  int int (y^2 (Lap v)^2 + N(N-2)/2 |grad v|^2)
                     >= (2N^2-4N+1)/16 int int v^2/y^2
                        + (N-1)^2/8 int int v^2/(y^2 d^2)
                        + 9/16 int int v^2/(y^2 d^4)

    which = "y4":  int int ((Lap v)^2 + (N^2-2N-4)/2 |grad v|^2/y^2)
                     >= 9(2N^2-4N-7)/16 int int v^2/y^4
                        + (N-1)^2/8 int int v^2/(y^4 d^2)
                        + 9/16 int int v^2/(y^4 d^4)
    """
    _check_dimension(N, 5)
    if which not in ("y2", "y4"):
        raise ArgumentError("which must be 'y2' or 'y4'")
    if which == "y2":
        lhs_terms, p = [("lap2", -2, 0), ("grad2", 0, 0)], 2
        grad, l2 = claims.halfspace_y2_grad, claims.halfspace_y2_l2
    else:
        lhs_terms, p = [("lap2", 0, 0), ("grad2", 2, 0)], 4
        grad, l2 = claims.halfspace_y4_grad, claims.halfspace_y4_l2

    def sides(lap2, grad2, v2, v2_d2, v2_d4):
        return (lap2 + float(grad(N)) * grad2,
                float(l2(N)) * v2 + float(claims.rellich_r2(N)) * v2_d2
                + float(claims.RELLICH_R4) * v2_d4)

    return _tensor_margin(f"halfspace_rellich_{which}", v, N, nx, ny,
                          lhs_terms + [("v2", p, 0), ("v2", p, 1), ("v2", p, 2)],
                          sides)


def aux_gradient_inequality(v, N: int, nx: int = TENSOR_GRID,
                            ny: int = TENSOR_GRID) -> MarginReport:
    """Margin of the auxiliary weighted-gradient bound used by the y4
    optimality argument: int int |grad v|^2/y^2 >= 9/4 int int v^2/y^4."""
    return _tensor_margin("halfspace_aux_gradient", v, N, nx, ny,
                          [("grad2", 2, 0), ("v2", 4, 0)],
                          lambda grad2, v2: (grad2, float(claims.HALFSPACE_AUX) * v2))


# ---------------------------------------------------------------------------
# the conjugation identity behind the half-space transforms


class PolynomialTestFunction:
    """v = sum c_{ij} |x|^i y^j with even i: closed-form partials."""

    def __init__(self, coeffs: dict[tuple[int, int], float], label: str = "poly"):
        for (i, _j) in coeffs:
            if i % 2 or i < 0:
                raise ArgumentError("monomials need even nonnegative |x| powers")
        self.coeffs = coeffs
        self.label = label

    def value(self, xi, y):
        return sum(c * xi**i * y**j for (i, j), c in self.coeffs.items())

    def d_y(self, xi, y):
        return sum(
            c * j * xi**i * y ** (j - 1)
            for (i, j), c in self.coeffs.items() if j >= 1
        )

    def d_xixi(self, xi, y):
        return sum(
            c * i * (i - 1) * xi ** (i - 2) * y**j
            for (i, j), c in self.coeffs.items() if i >= 2
        )

    def d_yy(self, xi, y):
        return sum(
            c * j * (j - 1) * xi**i * y ** (j - 2)
            for (i, j), c in self.coeffs.items() if j >= 2
        )

    def d_xi_over_xi(self, xi, y):
        # i is even, so i-2 >= 0: the ratio is again a polynomial
        return sum(
            c * i * xi ** (i - 2) * y**j
            for (i, j), c in self.coeffs.items() if i >= 2
        )


POLYNOMIAL_SUITE = [
    PolynomialTestFunction({(0, 2): 1.0}, "y^2"),
    PolynomialTestFunction({(2, 1): 1.0}, "x^2 y"),
    PolynomialTestFunction({(2, 2): 1.0, (0, 3): -0.5}, "x^2 y^2 - y^3/2"),
    PolynomialTestFunction({(4, 0): 1.0, (0, 1): 2.0}, "x^4 + 2y"),
    PolynomialTestFunction({(2, 0): 1.0, (0, 0): 1.0, (0, 4): 0.25}, "x^2 + 1 + y^4/4"),
]


def _dist_args(point):
    """(|x|, y) of the point (x, y), where x is in R^(N-1) or is already
    the reduced |x|."""
    x, y = point
    return float(np.sqrt(np.sum(np.atleast_1d(np.asarray(x, float)) ** 2))), float(y)


def halfspace_laplacian_identity_residual(v, alpha: float, point, N: int,
                                          corrected: bool = True) -> float:
    """Residual of the conjugation identity for u = y^alpha v:

      Lap_hyp u = y^(alpha+2) Lap v + (2 alpha - (N-2)) y^(alpha+1) dv/dy
                  + alpha (alpha - (N-1)) y^alpha v

    with Lap_hyp = y^2 Lap - (N-2) y d/dy.  corrected=False swaps the middle
    term's power to y^alpha, the dimensionally inconsistent variant, whose
    failure on the polynomial suite is recorded as a typo witness.
    """
    xi, y = _dist_args(point)
    if y <= 0.0:
        raise DomainError("half-space height must satisfy y > 0")
    val = v.value(xi, y)
    vy = v.d_y(xi, y)
    lap_v = v.d_xixi(xi, y) + (N - 2) * v.d_xi_over_xi(xi, y) + v.d_yy(xi, y)

    u_y = alpha * y ** (alpha - 1.0) * val + y**alpha * vy
    lap_u = (
        y**alpha * (v.d_xixi(xi, y) + (N - 2) * v.d_xi_over_xi(xi, y))
        + alpha * (alpha - 1.0) * y ** (alpha - 2.0) * val
        + 2.0 * alpha * y ** (alpha - 1.0) * vy
        + y**alpha * v.d_yy(xi, y)
    )
    lhs = y * y * lap_u - (N - 2) * y * u_y

    mid_power = alpha + 1.0 if corrected else alpha
    terms = [
        y ** (alpha + 2.0) * lap_v,
        (2.0 * alpha - (N - 2)) * y**mid_power * vy,
        alpha * (alpha - (N - 1)) * y**alpha * val,
    ]
    rhs = sum(terms)
    scale = max(abs(lhs), *(abs(t) for t in terms))
    return 0.0 if scale == 0.0 else abs(lhs - rhs) / scale


def halfspace_bilaplacian_identity(U: RadialFunction, N: int,
                                   nodes: int = 2048) -> tuple[float, float, float]:
    """Cross-model identity for the bilaplacian energy:

      int (Lap_hyp u)^2 dv = int int y^2 (Lap v)^2 + N(N-2)/2 int int |grad v|^2
                             + N^2 (N-2)^2/16 int int v^2/y^2

    with v = y^(-(N-2)/2) u.  Left side is computed radially (weight
    sinh^(N-1)), right side on the polar rule of TRANSPORTED_RULE; the
    sphere areas of the two reductions are restored.  Returns (lhs, rhs,
    relative difference).
    """
    _check_dimension(N, 5)
    grid = grid_covering(U.support, nodes)
    lhs = sphere_area(N) * float(bilaplacian_form(U, hyperbolic(N), grid))

    v = TransportedRadial(U, N, alpha=(N - 2) / 2.0)
    lap2, grad2, v2 = _halfspace_sums(v, N, *TRANSPORTED_RULE,
                                      [("lap2", -2, 0), ("grad2", 0, 0), ("v2", 2, 0)])[:, 0]
    rhs_tensor = lap2 + N * (N - 2) / 2.0 * grad2 + N * N * (N - 2) ** 2 / 16.0 * v2
    rhs = sphere_area(N - 1) * rhs_tensor
    return lhs, rhs, abs(lhs - rhs) / max(abs(lhs), abs(rhs))


def hyperbolic_margin_without_sinh(U: RadialFunction, N: int,
                                   nodes: int = 1024) -> float:
    """Radial margin of the first-order inequality with the sinh term
    dropped: Dirichlet - (N-1)^2/4 L^2 - 1/4 int u^2/r^2.

    This is the exact hyperbolic counterpart of the half-space margin
    (the transform carries the sinh term into neither side).
    """
    man = hyperbolic(N)
    grid = grid_covering(U.support, nodes)
    r = grid.nodes
    terms = [("grad2", 1.0), ("v2", 1.0), ("v2", 1.0 / r**2)]
    dirichlet, l2, by_r2 = radial_sums(U, grid, terms, man.measure_weight(r), subgrid=False)
    return float(dirichlet - float(claims.spectral_gap(N)) * l2
                 - float(claims.HARDY_R2) * by_r2)

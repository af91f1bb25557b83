"""Ball-model and half-space transforms of the hyperbolic inequalities.

Ball-side identities reduce to 1-D integrals in t = |x| (the sphere factor
cancels against the hyperbolic one).  Half-space checks use tensor trapezoid
quadrature on (|x|, y) with the (N-2)-sphere area folded into the |x|
weight; that constant is omitted from every margin (it multiplies both
sides) and restored through sphere_area() where hyperbolic radial values
are compared against half-space tensor values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .errors import ArgumentError, DomainError, EvaluationError
from .manifolds import hyperbolic
from .radial import (
    RadialFunction,
    bump,
    dirichlet_form,
    grid_covering,
    make_grid,
    plateau_cutoff,
    weighted_l2,
)
from .hardy import MarginReport


def sphere_area(dim: int) -> float:
    """Area of the unit sphere bounding the dim-dimensional unit ball."""
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


# ---------------------------------------------------------------------------
# half-space geometry


@dataclass(frozen=True)
class HalfSpacePoint:
    """Point (x, y) with x in R^(N-1) (or already-reduced |x|) and y > 0."""

    x: object
    y: float

    @property
    def xi(self) -> float:
        arr = np.atleast_1d(np.asarray(self.x, dtype=float))
        return float(np.sqrt(np.sum(arr * arr)))


def _dist_args(p, y=None):
    if y is not None:
        return float(np.sqrt(np.sum(np.atleast_1d(np.asarray(p, float)) ** 2))), float(y)
    if isinstance(p, HalfSpacePoint):
        return p.xi, float(p.y)
    xi, yy = p
    return float(np.sqrt(np.sum(np.atleast_1d(np.asarray(xi, float)) ** 2))), float(yy)


def geodesic_distance_halfspace(p, y=None) -> float:
    """Hyperbolic distance from (x, y) to the reference point (0, 1):

      d = arccosh(1 + ((y-1)^2 + |x|^2) / (2y)).
    """
    xi, yy = _dist_args(p, y)
    if yy <= 0.0:
        raise DomainError("half-space height must satisfy y > 0")
    return float(np.arccosh(1.0 + ((yy - 1.0) ** 2 + xi * xi) / (2.0 * yy)))


def _dist_grid(xi, y):
    """Distance to (0,1) on arrays; safe for the xi = 0, y = 1 corner."""
    w = 1.0 + ((y - 1.0) ** 2 + xi * xi) / (2.0 * y)
    return np.arccosh(np.maximum(w, 1.0))


# ---------------------------------------------------------------------------
# ball model


def ball_radius_of_t(t):
    """Geodesic radius of the ball-model point at euclidean radius t."""
    return 2.0 * np.arctanh(np.asarray(t, dtype=float))


def conformal_factor(t):
    return 2.0 / (1.0 - np.asarray(t, dtype=float) ** 2)


@dataclass(frozen=True)
class BallMappedPair:
    """A hyperbolic radial profile with its unit-ball transplant.

    The supports correspond under t = tanh(r/2); v vanishes near |x| = 1
    whenever u has compact support.
    """

    u: RadialFunction
    v: RadialFunction
    N: int

    @staticmethod
    def from_radial(u: RadialFunction, N: int) -> "BallMappedPair":
        return BallMappedPair(u, ball_from_radial(u, N), N)


def ball_from_radial(u: RadialFunction, N: int) -> RadialFunction:
    """Transplanted profile v(t) = (2/(1-t^2))^((N-2)/2) u(r(t))."""
    half = 0.5 * (N - 2)

    def value(t):
        t = np.asarray(t, dtype=float)
        return conformal_factor(t) ** half * u(ball_radius_of_t(t))

    def d1(t):
        t = np.asarray(t, dtype=float)
        c = conformal_factor(t)
        r = ball_radius_of_t(t)
        # c' = c^2 t and r'(t) = c
        return c ** (half + 1.0) * (half * t * u(r) + u.d1(r))

    a, b = u.support
    return RadialFunction(
        value, d1, None,
        support=(float(np.tanh(a / 2.0)), float(np.tanh(min(b, 700.0) / 2.0))),
        label=f"ball({u.label})",
    )


def ball_identity_check(u: RadialFunction, N: int, which: str,
                        nodes: int = 4096) -> float:
    """Relative discrepancy of one transplantation identity.

    which = "gradient":  hyperbolic Dirichlet energy against
                         int |grad v|^2 + N(N-2)/4 int c(t)^2 v^2
    which = "l2":        int u^2 dv against int c^2 v^2
    which = "hardy":     int u^2/r^2 dv against int c^2 v^2 / r(t)^2

    Both sides are reduced to 1-D radial integrals; the sphere factor is
    identical on the two sides and dropped.
    """
    if N < 3:
        raise DomainError("ball identities need N >= 3")
    man = hyperbolic(N)
    grid_h = grid_covering(u.support, nodes)
    v = ball_from_radial(u, N)
    ta, tb = v.support
    grid_t = make_grid(max(ta * 0.9, 1e-12), min(tb * 1.05, 1.0 - 1e-12),
                       nodes, "uniform")
    t = grid_t.nodes
    c2 = conformal_factor(t) ** 2
    tw = t ** (N - 1) * grid_t.quad_weights

    if which == "gradient":
        lhs = dirichlet_form(u, man, grid_h)
        dv = v.d1(t)
        rhs = float(np.dot(tw, dv * dv)) + N * (N - 2) / 4.0 * float(
            np.dot(tw, c2 * v(t) ** 2)
        )
    elif which == "l2":
        lhs = weighted_l2(u, 1.0, man, grid_h)
        rhs = float(np.dot(tw, c2 * v(t) ** 2))
    elif which == "hardy":
        lhs = weighted_l2(u, lambda r: 1.0 / r**2, man, grid_h)
        rhs = float(np.dot(tw, c2 * v(t) ** 2 / ball_radius_of_t(t) ** 2))
    else:
        raise ArgumentError("which must be 'gradient', 'l2' or 'hardy'")

    scale = max(abs(lhs), abs(rhs))
    return 0.0 if scale == 0.0 else abs(lhs - rhs) / scale


def check_ball_hardy(v: RadialFunction, N: int, nodes: int = 4096) -> MarginReport:
    """Margin of the boundary-improved Hardy inequality on the unit ball:

      int |grad v|^2 >= 1/4 int c^2 v^2 + 1/4 int c^2 v^2 / log^2((1+t)/(1-t))

    with c = 2/(1-t^2); radial reduction in t = |x|.
    """
    if N < 3:
        raise DomainError("ball inequality needs N >= 3")
    a, b = v.support
    if not (0.0 <= a < b < 1.0):
        raise ArgumentError("support must stay strictly inside the unit ball")

    def one(nn):
        grid = make_grid(max(a * 0.9, 1e-12), (b + 1.0) / 2.0, nn, "uniform")
        t = grid.nodes
        tw = t ** (N - 1) * grid.quad_weights
        c2 = conformal_factor(t) ** 2
        dv = v.d1(t)
        vals = v(t) ** 2
        lhs = float(np.dot(tw, dv * dv))
        rhs = 0.25 * float(np.dot(tw, c2 * vals)) + 0.25 * float(
            np.dot(tw, c2 * vals / ball_radius_of_t(t) ** 2)
        )
        return lhs, rhs

    return MarginReport.from_sides(one, (nodes,), "ball_hardy", N, "ball", v.label)


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


class TensorProductFunction:
    """v(|x|, y) = fx(|x|) * fy(y) with C^2 factors."""

    def __init__(self, fx: RadialFunction, fy: RadialFunction, label: str = ""):
        self.fx = fx
        self.fy = fy
        self.xi_support = fx.support
        self.y_support = fy.support
        self.label = label or f"tensor({fx.label},{fy.label})"

    def box(self, pad: float = 0.02):
        xb = self.xi_support[1]
        ya, yb = self.y_support
        return (xb * (1 + pad), ya * (1 - pad), yb * (1 + pad))

    def jet(self, grid: "TensorGrid", N: int):
        """(v, dv/dxi, dv/dy, Lap v) on the grid's mesh, from the factors
        evaluated once on each axis; Lap is the R^N Laplacian of v(|x|, y)."""
        xi, y = grid.xi, grid.y
        fx, fx1, fx2 = self.fx(xi), self.fx.d1(xi), self.fx.d2(xi)
        fy, fy1, fy2 = self.fy(y), self.fy.d1(y), self.fy.d2(y)
        radial = np.zeros_like(xi)
        off_axis = xi > 0.0
        radial[off_axis] = fx1[off_axis] / xi[off_axis]
        return (
            np.outer(fx, fy),
            np.outer(fx1, fy),
            np.outer(fx, fy1),
            np.outer(fx2 + (N - 2) * radial, fy) + np.outer(fx, fy2),
        )


def tensor_bump(xi_extent: float, y_lo: float, y_hi: float,
                label: str = "") -> TensorProductFunction:
    """Cylindrical bump: plateau cutoff in |x| times a quintic bump in y."""
    fx = plateau_cutoff(xi_extent / 2.0, xi_extent / 2.0)
    fy = bump(y_lo, y_hi)
    return TensorProductFunction(fx, fy, label=label or
                                 f"tensor_bump(xi<{xi_extent:g},y[{y_lo:g},{y_hi:g}])")


class TransportedRadial:
    """Half-space function y^(-alpha) U(d(x, y)) built from a radial profile.

    U must vanish near d = 0 (support bounded away from the reference
    point), which keeps every chain-rule factor finite.
    """

    def __init__(self, U: RadialFunction, N: int, alpha: float):
        if U.support[0] <= 0.0:
            raise ArgumentError("transported profile needs support away from d = 0")
        self.U = U
        self.N = N
        self.alpha = alpha
        b = U.support[1]
        self.d_support = U.support
        self.y_support = (math.exp(-b), math.exp(b))
        self.xi_support = (0.0, math.sqrt(2.0 * math.exp(b) * (math.cosh(b) - 1.0)))
        self.label = f"transported({U.label},alpha={alpha:g})"

    def box(self, pad: float = 0.02):
        return (
            self.xi_support[1] * (1 + pad),
            self.y_support[0] * (1 - pad),
            self.y_support[1] * (1 + pad),
        )

    def jet(self, grid: "TensorGrid", N: int):
        """(v, dv/dxi, dv/dy, Lap v) on the grid's mesh in one chain-rule
        pass; Lap is the R^N Laplacian of v(|x|, y).

        U, U' and U'' are evaluated only on the nodes where d lies inside
        the support of U; all four arrays are exactly zero elsewhere.
        """
        shape = (grid.xi.size, grid.y.size)
        xi, y = grid.xi[:, None], grid.y[None, :]
        w = 1.0 + ((y - 1.0) ** 2 + xi * xi) / (2.0 * y)
        d = np.arccosh(np.maximum(w, 1.0))
        a, b = self.d_support
        inside = (d > a) & (d < b)
        xi = np.broadcast_to(xi, shape)[inside]
        y = np.broadcast_to(y, shape)[inside]
        w, d = w[inside], d[inside]

        g = 1.0 / np.sqrt(w**2 - 1.0)
        w_xi = xi / y
        w_y = (y * y - 1.0 - xi * xi) / (2.0 * y * y)
        d_xi = w_xi * g
        d_y = w_y * g
        d_xixi = 1.0 / y * g - w * w_xi**2 * g**3
        d_yy = (1.0 + xi * xi) / y**3 * g - w * w_y**2 * g**3
        U, U1, U2 = self.U(d), self.U.d1(d), self.U.d2(d)

        al = self.alpha
        v_xixi = y ** (-al) * (U2 * d_xi**2 + U1 * d_xixi)
        v_yy = (
            al * (al + 1.0) * y ** (-al - 2.0) * U
            - 2.0 * al * y ** (-al - 1.0) * U1 * d_y
            + y ** (-al) * (U2 * d_y**2 + U1 * d_yy)
        )
        # d_xi / xi = g / y stays finite on the axis
        radial = y ** (-al) * U1 * (g / y)
        out = np.zeros((4, *shape))
        out[0][inside] = y ** (-al) * U
        out[1][inside] = y ** (-al) * U1 * d_xi
        out[2][inside] = -al * y ** (-al - 1.0) * U + y ** (-al) * U1 * d_y
        out[3][inside] = v_xixi + (N - 2) * radial + v_yy
        return tuple(out)


@dataclass(frozen=True)
class TensorGrid:
    xi: np.ndarray
    y: np.ndarray
    w_xi: np.ndarray
    w_y: np.ndarray

    @staticmethod
    def over_box(xi_max: float, y_lo: float, y_hi: float,
                 nx: int, ny: int) -> "TensorGrid":
        if y_lo <= 0.0:
            raise ArgumentError("tensor grid needs y > 0")
        xi = np.linspace(0.0, xi_max, nx)
        y = np.linspace(y_lo, y_hi, ny)

        def trap(nodes):
            w = np.zeros_like(nodes)
            gaps = np.diff(nodes)
            w[:-1] += gaps / 2.0
            w[1:] += gaps / 2.0
            return w

        return TensorGrid(xi, y, trap(xi), trap(y))

    def integrate(self, values: np.ndarray, N: int) -> float:
        """Tensor trapezoid of values * xi^(N-2) (sphere factor omitted).

        The xi = 0 column carries zero measure, so singular integrands on
        the axis are masked there rather than propagated; a non-finite
        value anywhere else raises EvaluationError.
        """
        axis = (self.xi == 0.0)[:, None]
        bad = ~np.isfinite(values) & ~axis
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise EvaluationError(
                f"half-space integrand is non-finite at "
                f"(xi, y) = ({self.xi[i]:.6g}, {self.y[j]:.6g})"
            )
        col = np.where(axis, 0.0, values) * self.xi[:, None] ** (N - 2)
        return float(self.w_xi @ col @ self.w_y)


def _tensor_margin(name: str, v, N: int, nx: int, ny: int, sides) -> MarginReport:
    """Half-space margin report from sides(grid, v, v_xi, v_y, lap) ->
    (lhs, rhs), judged on an nx x ny grid over v's box; the margin change
    against the half-resolution grid is the quadrature error."""
    if v.y_support[0] <= 0.0:
        raise ArgumentError("support must stay away from the boundary y = 0")

    def one(mx, my):
        grid = TensorGrid.over_box(*v.box(), mx, my)
        # 0/0 on the xi = 0 axis at (0, 1) is masked by integrate
        with np.errstate(divide="ignore", invalid="ignore"):
            return sides(grid, *v.jet(grid, N))

    return MarginReport.from_sides(one, (nx, ny), name, N, "halfspace", v.label)


def check_halfspace_hardy(v, N: int, nx: int = 512, ny: int = 512) -> MarginReport:
    """Margin of the distance-improved Hardy inequality on the half-space:

      int int |grad v|^2 >= 1/4 int int v^2/y^2 + 1/4 int int v^2/(y^2 d^2)

    with d the hyperbolic distance to (0, 1); cylindrical reduction with the
    (N-2)-sphere factor folded into the |x| weight.
    """
    if N < 3:
        raise DomainError("half-space inequality needs N >= 3")

    def sides(grid, vv, vx, vy, _lap):
        Y = grid.y[None, :]
        d = _dist_grid(grid.xi[:, None], Y)
        lhs = grid.integrate(vx * vx + vy * vy, N)
        rhs = 0.25 * grid.integrate(vv * vv / Y**2, N) + 0.25 * grid.integrate(
            vv * vv / (Y**2 * d**2), N
        )
        return lhs, rhs

    return _tensor_margin("halfspace_hardy", v, N, nx, ny, sides)


def check_halfspace_rellich(v, N: int, which: str, nx: int = 512,
                            ny: int = 512) -> MarginReport:
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
    if N < 5:
        raise DomainError("half-space second-order inequalities need N >= 5")
    if which not in ("y2", "y4"):
        raise ArgumentError("which must be 'y2' or 'y4'")

    def sides(grid, vv, vx, vy, lap):
        Y = grid.y[None, :]
        d = _dist_grid(grid.xi[:, None], Y)
        grad2 = vx * vx + vy * vy
        if which == "y2":
            lhs = grid.integrate(Y**2 * lap**2, N) + N * (N - 2) / 2.0 * (
                grid.integrate(grad2, N)
            )
            base = vv * vv / Y**2
            c0 = (2.0 * N * N - 4.0 * N + 1.0) / 16.0
        else:
            lhs = grid.integrate(lap**2, N) + (N * N - 2.0 * N - 4.0) / 2.0 * (
                grid.integrate(grad2 / Y**2, N)
            )
            base = vv * vv / Y**4
            c0 = 9.0 * (2.0 * N * N - 4.0 * N - 7.0) / 16.0
        rhs = (
            c0 * grid.integrate(base, N)
            + (N - 1) ** 2 / 8.0 * grid.integrate(base / d**2, N)
            + 9.0 / 16.0 * grid.integrate(base / d**4, N)
        )
        return lhs, rhs

    return _tensor_margin(f"halfspace_rellich_{which}", v, N, nx, ny, sides)


def aux_gradient_inequality(v, N: int, nx: int = 512, ny: int = 512) -> MarginReport:
    """Margin of the auxiliary weighted-gradient bound used by the y4
    optimality argument: int int |grad v|^2/y^2 >= 9/4 int int v^2/y^4."""

    def sides(grid, vv, vx, vy, _lap):
        Y = grid.y[None, :]
        lhs = grid.integrate((vx * vx + vy * vy) / Y**2, N)
        rhs = 2.25 * grid.integrate(vv * vv / Y**4, N)
        return lhs, rhs

    return _tensor_margin("halfspace_aux_gradient", v, N, nx, ny, sides)


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

    def d_xi(self, xi, y):
        return sum(
            c * i * xi ** (i - 1) * y**j
            for (i, j), c in self.coeffs.items() if i >= 1
        )

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
                                   nodes: int = 8192, nx: int = 768,
                                   ny: int = 768) -> tuple[float, float, float]:
    """Cross-model identity for the bilaplacian energy:

      int (Lap_hyp u)^2 dv = int int y^2 (Lap v)^2 + N(N-2)/2 int int |grad v|^2
                             + N^2 (N-2)^2/16 int int v^2/y^2

    with v = y^(-(N-2)/2) u.  Left side is computed radially (weight
    sinh^(N-1)), right side by tensor quadrature; the sphere areas of the
    two reductions are restored.  Returns (lhs, rhs, relative difference).
    """
    if N < 5:
        raise DomainError("the bilaplacian identity check needs N >= 5")
    man = hyperbolic(N)
    grid = grid_covering(U.support, nodes)
    lap = U.d2(grid.nodes) + (N - 1) / np.tanh(grid.nodes) * U.d1(grid.nodes)
    lhs_rad = float(np.dot(grid.quad_weights,
                           lap * lap * man.measure_weight(grid.nodes)))
    lhs = sphere_area(N) * lhs_rad

    v = TransportedRadial(U, N, alpha=(N - 2) / 2.0)
    tgrid = TensorGrid.over_box(*v.box(), nx, ny)
    vv, vx, vy, lap_v = v.jet(tgrid, N)
    Y = tgrid.y[None, :]
    rhs_tensor = (
        tgrid.integrate(Y**2 * lap_v**2, N)
        + N * (N - 2) / 2.0 * tgrid.integrate(vx * vx + vy * vy, N)
        + N * N * (N - 2) ** 2 / 16.0 * tgrid.integrate(vv * vv / Y**2, N)
    )
    rhs = sphere_area(N - 1) * rhs_tensor
    return lhs, rhs, abs(lhs - rhs) / max(abs(lhs), abs(rhs))


def hyperbolic_margin_without_sinh(U: RadialFunction, N: int,
                                   nodes: int = 4096) -> float:
    """Radial margin of the first-order inequality with the sinh term
    dropped: Dirichlet - (N-1)^2/4 L^2 - 1/4 int u^2/r^2.

    This is the exact hyperbolic counterpart of the half-space margin
    (the transform carries the sinh term into neither side).
    """
    man = hyperbolic(N)
    grid = grid_covering(U.support, nodes)
    return (
        dirichlet_form(U, man, grid)
        - (N - 1) ** 2 / 4.0 * weighted_l2(U, 1.0, man, grid)
        - 0.25 * weighted_l2(U, lambda r: 1.0 / r**2, man, grid)
    )

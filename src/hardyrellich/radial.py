"""Radial grids, singular-weight quadrature, test functions and quadratic forms.

Grids hold interior nodes of a truncated interval (r_min, r_max); the
quadrature weights are trapezoid weights with a linear end-closure (virtual
endpoint values by two-point extrapolation, folded into the first and last
two weights), which is exact for linear integrands and keeps every weight
positive.  Test functions used in inequality checks must be compactly
supported strictly inside the truncation, mirroring the smooth compactly
supported test class of the continuous statements: bumps and cutoffs are
C^inf (their ramp is _ramp_jet), so on their integrands the trapezoid rule
converges faster than any power of the spacing.

Every 1-D margin and identity lists its integrals as terms (Q, weight)
with Q one of u^2, u'^2 and (u'' + p u' - q u)^2, and radial_sums forms
them from one evaluation of u per grid, on the grid and on its
every-other-node subgrid, whose margin change estimates the quadrature
error (under that fast convergence, it is about the subgrid's own error and
overstates the grid's by orders of magnitude; see hardy.MarginReport).
A family of test functions is evaluated at once, one row per member on a
stacked grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import (
    ArgumentError,
    CapabilityError,
    EvaluationError,
    SupportError,
)
from .manifolds import ModelManifold

GRADINGS = ("uniform", "geometric")


@dataclass(frozen=True)
class RadialGrid:
    """Interior nodes of (r_min, r_max) with their quadrature weights.

    r_min and r_max are floats for one grid, or (k, 1) arrays for k grids
    stacked row by row; nodes and weights are then (k, M) arrays.
    """

    nodes: np.ndarray
    quad_weights: np.ndarray
    r_min: float
    r_max: float
    grading: str

    @property
    def M(self) -> int:
        return self.nodes.shape[-1]

    def refined(self, M: int) -> "RadialGrid":
        return make_grid(self.r_min, self.r_max, M, self.grading)

    @cached_property
    def sub_weights(self) -> np.ndarray:
        """Weights of the every-other-node subgrid nodes[..., ::2]: the same
        end-closed trapezoid rule over (r_min, r_max) on the nodes of even
        index.  Sums of one set of node values on the grid and on its
        subgrid differ by about the quadrature error of the coarser one."""
        return _closure_weights(self.nodes[..., ::2], self.r_min, self.r_max)


def _trapezoid_weights(nodes: np.ndarray) -> np.ndarray:
    """Trapezoid weights over [nodes[0], nodes[-1]], row by row: half of
    each neighbouring gap."""
    if nodes.shape[-1] < 2:
        return np.zeros_like(nodes)
    half = np.diff(nodes, axis=-1)
    half /= 2.0
    w = np.empty_like(nodes)
    w[..., 0] = half[..., 0]
    w[..., -1] = half[..., -1]
    np.add(half[..., 1:], half[..., :-1], out=w[..., 1:-1])
    return w


def _closure_weights(nodes: np.ndarray, a, b) -> np.ndarray:
    """Trapezoid weights over [a, b] on interior nodes, linear end-closure,
    row by row (a and b are floats or (k, 1) arrays for (k, n) nodes).

    The boundary cells [a, nodes[0]] and [nodes[-1], b] are closed with
    endpoint values linearly extrapolated from the two nearest nodes
    (exact for linear integrands); tiny grids fall back to constant
    extrapolation to keep every weight positive.
    """
    w = _trapezoid_weights(nodes)
    d0 = nodes[..., :1] - a
    d1 = b - nodes[..., -1:]
    h0 = nodes[..., 1:2] - nodes[..., :1]
    h1 = nodes[..., -1:] - nodes[..., -2:-1]
    # linear extrapolation is used only when the boundary cell is no wider
    # than the sampling gap (always true on uniform grids); otherwise the
    # correction could turn the neighbour weight negative
    wide = nodes.shape[-1] >= 5
    lin0 = wide & (d0 <= h0 * (1.0 + 1e-12))
    lin1 = wide & (d1 <= h1 * (1.0 + 1e-12))
    # the correction d^2/(2h) is formed only where it is used: elsewhere
    # (the wide last cell of a geometric grid) d^2 may overflow
    c0 = np.where(lin0, d0, 0.0)
    c0 = c0 * c0 / (2.0 * h0)
    c1 = np.where(lin1, d1, 0.0)
    c1 = c1 * c1 / (2.0 * h1)
    w[..., :1] += d0 + c0
    w[..., 1:2] -= c0
    w[..., -1:] += d1 + c1
    w[..., -2:-1] -= c1
    if np.any(w <= 0.0):
        raise ArgumentError("grid produced nonpositive quadrature weights")
    return w


def make_grid(r_min, r_max, M: int, grading: str = "uniform") -> RadialGrid:
    """Interior grid of M nodes on (r_min, r_max); (k, 1) arrays r_min and
    r_max give k grids stacked row by row, each row the grid of its ends.

    uniform     equispaced
    geometric   constant ratio between consecutive nodes; on it the
                ground-state pencils (weight r) are second order in the
                log spacing
    """
    if not np.all((0.0 < r_min) & (r_min < r_max)):
        raise ArgumentError(f"need 0 < r_min < r_max, got ({r_min}, {r_max})")
    if M < 3:
        raise ArgumentError(f"grid needs at least 3 nodes, got {M}")
    if grading not in GRADINGS:
        raise ArgumentError(f"unknown grading {grading!r}")

    if grading == "uniform":
        # the interior of np.linspace(r_min, r_max, M + 2), row by row
        nodes = r_min + np.arange(1, M + 1) * ((r_max - r_min) / (M + 1))
    else:
        q = (r_max / r_min) ** (1.0 / (M + 1))
        nodes = np.power(q, np.arange(1.0, M + 1))
        nodes *= r_min

    weights = _closure_weights(nodes, r_min, r_max)
    if np.ndim(r_min) == 0:
        r_min, r_max = float(r_min), float(r_max)
    return RadialGrid(nodes, weights, r_min, r_max, grading)


# ---------------------------------------------------------------------------
# radial functions


@dataclass(frozen=True)
class RadialFunction:
    """Scalar function of r, evaluated through its jet.

    jet_fn(r, order) returns (u, u', u'') cut after the order-th
    derivative, for every order up to max_order, and each shorter jet is a
    bitwise prefix of a longer one.

    A family of k functions is one RadialFunction whose parameters and
    support ends are (k, 1) arrays: its jet takes (k, n) nodes, row j at
    member j's nodes, and members holds the k single functions, whose
    jets match the family's rows bit for bit.  Iterating a family yields
    its members; a single function is a family of one and yields itself.
    """

    jet_fn: Callable
    max_order: int = 2
    support: tuple = (0.0, np.inf)
    label: str = ""
    members: tuple = ()

    def __iter__(self):
        return iter(self.members or (self,))

    @property
    def labels(self) -> list[str]:
        """The label of each member, in row order."""
        return [m.label for m in self]

    def __call__(self, r):
        return self.jet(r, 0)[0]

    def jet(self, r, order: int = 2) -> tuple:
        """(u, u', u'') at r up to the order-th derivative; an order beyond
        max_order raises CapabilityError."""
        if order > self.max_order:
            raise CapabilityError(
                f"{self.label or 'radial function'} has derivatives up to order "
                f"{self.max_order}, not {order}"
            )
        return self.jet_fn(r, order)


def log_jet(value, log_derivatives, order: int) -> tuple:
    """Jet of a positive function f from its value and log-derivatives:
    f' = f l' and f'' = f (l'' + l'^2), where log_derivatives() returns
    (l', l'') and is called only when order > 0."""
    if not order:
        return (value,)
    l1, l2 = log_derivatives()
    out = (value, value * l1)
    return out + (value * (l2 + l1 * l1),) if order == 2 else out


def _ramp_jet(t, order: int) -> tuple:
    """The C^inf ramp s(t) = (1 + tanh(tan(pi (t - 1/2)))) / 2 on [0, 1] and
    its derivatives, up to the order-th (at most 2).  s(0) = 0, s(1) = 1,
    and every derivative vanishes at both ends, so the trapezoid rule on an
    integrand built from it converges faster than any power of the spacing.

    With z = tan(pi (t - 1/2)) and e = exp(-2|z|): s = e/(1+e) for z < 0
    and 1/(1+e) otherwise, tanh z = sign(z) (1-e)/(1+e),
    sech^2 z = 4e/(1+e)^2 and z' = pi (1 + z^2).  None of these overflow:
    at t = 0 and 1, tan(pi (t - 1/2)) is about -1.6e16 and 1.6e16, e = 0,
    so s is exactly 0 and 1 there, and s' and s'' exactly 0.

    e is computed only where |z| < 373 and set to 0 elsewhere: exp(-2|z|)
    is already exactly 0 beyond |z| = 372.57, and numpy's exp takes a slow
    path for every argument whose result underflows, about 25x the time
    of one in range, which a bump's pads and plateau (t clipped to 0 or 1)
    would all take.  A NaN z still gives a NaN e."""
    z = np.tan(np.pi * (t - 0.5))
    abs_z = np.abs(z)
    e = np.exp(-2.0 * abs_z, out=np.zeros_like(abs_z), where=~(abs_z >= 373.0))
    one_e = 1.0 + e
    out = (np.where(z < 0.0, e, 1.0) / one_e,)
    if not order:
        return out
    sech2 = 4.0 * e / (one_e * one_e)
    dz = np.pi * (1.0 + z * z)
    out += (0.5 * sech2 * dz,)
    if order == 2:
        tanh = np.copysign((1.0 - e) / one_e, z)
        out += (sech2 * dz * (np.pi * z - tanh * dz),)
    return out


def _bump_jet(a, b, rise, fall):
    """The jet of the bump(s) with these parameters (floats, or (k, 1)
    arrays for (k, n) nodes)."""
    m1, m2 = a + rise, b - fall

    def _ramp(r):
        # one ramp argument for the whole bump, in one pass: the
        # rise's (r - a) / rise up to the fall's knot and the fall's
        # (b - r) / fall after it, clipped to [0, 1], so exactly 0 outside
        # (a, b); set to exactly 1 on the plateau by comparing r with the
        # knots, because (r - a) / rise can round below 1 there.  As
        # s(1) = 1 and s'(1) = s''(1) = 0, s of it is the product of the
        # clipped rise and fall ramps.
        r = np.asarray(r, dtype=float)
        before_fall = r <= m2
        t = np.clip(np.where(before_fall, (r - a) / rise, (b - r) / fall), 0.0, 1.0)
        return before_fall, np.where((r >= m1) & before_fall, 1.0, t)

    def jet(r, order):
        before_fall, t = _ramp(r)
        s = _ramp_jet(t, order)
        out = s[:1]
        if order:
            out += (s[1] / np.where(before_fall, rise, -fall),)
        if order == 2:
            out += (s[2] / np.where(before_fall, rise**2, fall**2),)
        return out

    return jet


def bump(a, b, rise=None, fall=None, label="") -> RadialFunction:
    """C^inf bump: ramp rise on [a, a+rise], plateau 1, ramp fall on
    [b-fall, b] (see _ramp_jet).  (k, 1) arrays a, b, rise and fall give
    the family of the k bumps of their rows, with label a list of k
    labels."""
    rise = (b - a) / 2.0 if rise is None else rise
    fall = (b - a) / 2.0 if fall is None else fall
    if not np.all((0.0 <= a) & (a < b)):
        raise ArgumentError("bump needs 0 <= a < b")
    if np.any((rise <= 0) | (fall <= 0) | (rise + fall > (b - a) * (1 + 1e-12))):
        raise ArgumentError("bump widths must be positive and fit inside [a, b]")
    if np.ndim(a) == 0:
        return RadialFunction(_bump_jet(a, b, rise, fall), support=(a, b),
                              label=label or f"bump[{a:g},{b:g}]")
    rows = list(zip(*(np.ravel(x).tolist() for x in (a, b, rise, fall))))
    label = label or [f"bump[{row[0]:g},{row[1]:g}]" for row in rows]
    members = tuple(RadialFunction(_bump_jet(*row), support=row[:2], label=name)
                    for row, name in zip(rows, label))
    return RadialFunction(_bump_jet(a, b, rise, fall), support=(a, b),
                          label=f"bumps({len(members)})", members=members)


def plateau_cutoff(delta: float) -> RadialFunction:
    """C^inf cutoff equal to 1 on [0, delta], falling to 0 at 2 delta."""
    b = 2.0 * delta

    def jet(r, order):
        # each derivative is 0 outside (delta, b) but the value is 1 on
        # [0, delta]; inside, the ramp in (b - r) / delta
        r = np.asarray(r, dtype=float)
        sel = (r > delta) & (r < b)
        out = tuple(np.zeros_like(r) for _ in range(order + 1))
        out[0][r <= delta] = 1.0
        for k, ramp in enumerate(_ramp_jet((b - r[sel]) / delta, order)):
            out[k][sel] = ramp / (-delta) ** k
        return out

    return RadialFunction(jet, support=(0.0, b), label=f"cutoff[{delta:g}]")


def seeded_bumps(seed: int, count: int, lo: float, hi: float) -> RadialFunction:
    """Reproducible random bumps supported inside [lo, hi], as one family;
    each member's label records the seed so failures can be replayed.  A
    count below 1 (a margin row over no bumps) raises ArgumentError."""
    if count < 1:
        raise ArgumentError(f"a family of seeded bumps needs count >= 1, got {count}")
    # bump k takes the draws 4k..4k+3 of the stream as uniform(lo, hi -
    # 0.3), uniform(a + 0.3, hi) and two uniform(0.2, 0.5), each
    # low + (high - low) * random() as Generator.uniform forms it
    u = np.random.default_rng(seed).random((count, 4)).T[..., None]
    a = lo + ((hi - 0.3) - lo) * u[0]
    b = (a + 0.3) + (hi - (a + 0.3)) * u[1]
    frac_r, frac_f = 0.2 + (0.5 - 0.2) * u[2:]
    return bump(a, b, rise=frac_r * (b - a), fall=frac_f * (b - a),
                label=[f"bump(seed={seed},k={k})" for k in range(count)])


def grid_covering(support: tuple, M: int) -> RadialGrid:
    """Uniform grid 5% wider than a compact support at each end (for
    margin checks); a family's (k, 1) support ends give one grid per row."""
    a, b = support
    pad = 0.05 * (b - a)
    return make_grid(np.maximum(a - pad, a * 0.5), b + pad, M, "uniform")


# ---------------------------------------------------------------------------
# quadrature and quadratic forms


def _check_support_inside(u: RadialFunction, lo, hi) -> None:
    """SupportError naming the first member of u whose support does not lie
    strictly inside (lo, hi); lo and hi are floats or (k, 1) arrays, as a
    grid's ends are."""
    a, b = u.support
    bad = ~((a > lo) & (b < hi) & np.isfinite(b))
    if np.any(bad):
        j = int(np.argmax(bad))  # the first bad row
        a, b, lo, hi = (float(np.ravel(np.broadcast_to(x, bad.shape))[j])
                        for x in (a, b, lo, hi))
        raise SupportError(
            f"test function {u.labels[j]} support [{a:g}, {b:g}] must lie "
            f"strictly inside ({lo:g}, {hi:g})"
        )


def _integrate(vals: np.ndarray, grid: RadialGrid, what: str, labels=None,
               subgrid: bool = True) -> np.ndarray:
    """Quadrature of node values on the grid and on its every-other-node
    subgrid, row by row: shape (..., 2), see RadialGrid.sub_weights; with
    subgrid False, on the grid alone, shape (...), and the subgrid
    weights are not formed.

    Every grid weight is positive, so a non-finite value makes its row's
    sums non-finite; only then are the values searched, and the error
    names the first bad value's row label (from labels, one per row), node
    and r, or the overflow when every value is finite."""
    sums = np.vecdot(vals, grid.quad_weights)
    if subgrid:
        sums = np.stack([sums, np.vecdot(vals[..., ::2], grid.sub_weights)], axis=-1)
    if np.all(np.isfinite(sums)):
        return sums
    bad = ~np.isfinite(vals)
    if not np.any(bad):
        raise EvaluationError(f"{what} overflows although every node value is finite")
    *row, i = np.unravel_index(np.argmax(bad), bad.shape)
    label = labels[row[0] if row else 0] if labels else ""
    raise EvaluationError(
        f"{what}{f' of {label}' if label else ''} is non-finite at node {i} "
        f"(r = {grid.nodes[(*row, i)]:.6g})"
    )


def integrate_weighted(f, w, manifold: ModelManifold, grid: RadialGrid) -> float:
    """Quadrature of f(r) * w(r) * psi(r)^(N-1) dr over the grid.

    This is the radial reduction of the volume integral; the constant sphere
    area factor is omitted consistently from both sides of every inequality.
    """
    fv = f(grid.nodes) if callable(f) else np.asarray(f, dtype=float)
    wv = w(grid.nodes) if callable(w) else np.asarray(w, dtype=float)
    vals = fv * wv * manifold.measure_weight(grid.nodes)
    return float(_integrate(vals, grid, "integrand", subgrid=False))


# derivative order each integrand of radial_sums needs
_TERM_ORDER = {"v2": 0, "grad2": 1, "lap2": 2}


def radial_sums(u: RadialFunction, grid: RadialGrid, terms, measure,
                drift=None, zeroth=None, subgrid: bool = True) -> np.ndarray:
    """Quadrature of Q * weight * measure for each term (Q, weight), from one
    evaluation of u on the grid: Q is "v2" = u^2, "grad2" = u'^2 or
    "lap2" = (u'' + drift u' - zeroth u)^2, and u is evaluated with its
    jet only to the highest derivative a term needs.

    Returns shape (len(terms), ..., 2): each term's sums on the grid and on
    its every-other-node subgrid (RadialGrid.sub_weights), one row per
    member for a family on a stacked grid; with subgrid False, shape
    (len(terms), ...), the sums on the grid alone.  weight, measure, drift
    and zeroth are node arrays or scalars (drift and zeroth default to 0).
    u must be supported strictly inside the grid; a non-finite integrand
    raises EvaluationError naming the member, its node and r."""
    _check_support_inside(u, grid.r_min, grid.r_max)
    order = max(_TERM_ORDER[q] for q, _ in terms)
    jet = u.jet(grid.nodes, order)
    Q = {"v2": jet[0] * jet[0]}
    if order:
        Q["grad2"] = jet[1] * jet[1]
    if order == 2:
        lap = jet[2]
        if drift is not None:
            lap = lap + drift * jet[1]
        if zeroth is not None:
            lap = lap - zeroth * jet[0]
        Q["lap2"] = lap * lap
    labels = u.labels
    return np.stack([_integrate(Q[q] * weight * measure, grid, f"{q} integrand", labels,
                                subgrid=subgrid) for q, weight in terms])


def dirichlet_form(u: RadialFunction, manifold: ModelManifold, grid: RadialGrid):
    """Radial Dirichlet energy: integral of u'(r)^2 psi^(N-1) dr."""
    return radial_sums(u, grid, [("grad2", 1.0)], manifold.measure_weight(grid.nodes),
                       subgrid=False)[0]


def bilaplacian_form(u: RadialFunction, manifold: ModelManifold, grid: RadialGrid):
    """Integral of (Delta u)^2 psi^(N-1) dr with the radial Laplacian
    Delta u = u'' + (N-1)(psi'/psi) u'; one value per member for a family."""
    r = grid.nodes
    return radial_sums(u, grid, [("lap2", 1.0)], manifold.measure_weight(r),
                       drift=(manifold.N - 1) * manifold.dpsi_over_psi(r), subgrid=False)[0]


def weighted_l2(u: RadialFunction, weight, manifold: ModelManifold,
                grid: RadialGrid):
    """Integral of u^2 * weight(r) * psi^(N-1) dr (margin-check helper)."""
    r = grid.nodes
    wv = weight(r) if callable(weight) else weight
    return radial_sums(u, grid, [("v2", wv)], manifold.measure_weight(r), subgrid=False)[0]

"""Discretized Rayleigh-quotient pencils and a minimal-eigenvalue solver.

A pencil (A, B) encodes numerator and denominator quadratic forms of a
radial quotient on a grid with homogeneous Dirichlet conditions at both
truncation ends.  Second-order numerators are assembled variationally from
piecewise-linear cells (A symmetric tridiagonal); fourth-order numerators
square the discrete radial Laplacian through the quadrature weights
(A symmetric pentadiagonal) and clamp the two nodes adjacent to each end.
B is always diagonal and strictly positive.

The smallest generalized eigenvalue is found by one solver for every
bandwidth, certified by inertia: A - mu B factors as a positive definite
matrix (LAPACK dpttrf for tridiagonal pencils, dpbtrf for wider ones)
exactly when mu lies below the smallest eigenvalue (Sylvester's law of
inertia), so every factorization moves one end of a bracket.  The bracket
starts from Gershgorin and Rayleigh-quotient bounds, or is warm-started
around a known nearby value (the previous refinement level's, or the
previous parameter's in a sweep).  Each factorization below the eigenvalue
also drives inverse iteration, whose Rayleigh quotient caps the trial
points; once it has converged, two inertia tests a fraction of the
tolerance either side of it close the bracket, and plain bisection in
asinh(mu) takes over wherever the estimate misleads.  The returned
midpoint is always inside a certified bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ArgumentError, EvaluationError, NumericError
from .manifolds import ModelManifold
from .radial import RadialGrid

ORDER_LAPLACIAN = "2nd_order_laplacian"
ORDER_BILAPLACIAN = "4th_order_bilaplacian"


@dataclass
class ConstantEstimate:
    """A sharp-constant estimate with its truncation and refinement history.

    All pencil estimates are radial-sector values: the minimization runs over
    radial test functions only.
    """

    value: float
    r_min: float
    r_max: float
    M: int
    history: list[tuple[int, float]] = field(default_factory=list)

    def csv_row(self, name: str, N: int) -> str:
        return (
            f"{name},{N},{self.r_min:.17g},{self.r_max:.17g},{self.M},"
            f"{self.value:.17g}"
        )


@dataclass
class QuadraticPencil:
    """Banded symmetric numerator A and positive diagonal denominator B.

    ``a_bands`` is in lower banded storage: row k holds the k-th subdiagonal
    (row 0 = main diagonal).  ``rebuild`` re-assembles the same pencil on a
    grid with a different node count; it backs the refinement history of
    min_generalized_eigenvalue.
    """

    a_bands: np.ndarray
    b_diag: np.ndarray
    grid: RadialGrid
    order: str
    rebuild: Callable[[int], "QuadraticPencil"] | None = None

    @property
    def size(self) -> int:
        return self.b_diag.size

    @property
    def bandwidth(self) -> int:
        return self.a_bands.shape[0] - 1


def _as_values(fn, nodes: np.ndarray) -> np.ndarray:
    if fn is None:
        return np.zeros_like(nodes)
    if callable(fn):
        return np.broadcast_to(np.asarray(fn(nodes), dtype=float), nodes.shape).copy()
    return np.full_like(nodes, float(fn))


def _stiffness(nodes, a, b, g_of):
    """Tridiagonal of the form sum over cells of (Du)^2 * avg(g) / h."""
    ext = np.concatenate(([a], nodes, [b]))
    g_ext = g_of(ext)
    h = np.diff(ext)
    g_cell = 0.5 * (g_ext[:-1] + g_ext[1:])
    cond = g_cell / h  # one entry per cell
    diag = cond[:-1] + cond[1:]
    off = -cond[1:-1]
    return diag, off


def _laplacian_rows(nodes, a, b, p_vals, q_vals):
    """Nonuniform 3-point rows of L[u] = u'' + p u' - q u at each node."""
    left = np.concatenate(([a], nodes[:-1]))
    right = np.concatenate((nodes[1:], [b]))
    hm = nodes - left
    hp = right - nodes
    hs = hm + hp
    c_m = 2.0 / (hm * hs)
    c_c = -2.0 / (hm * hp)
    c_p = 2.0 / (hp * hs)
    d_m = -hp / (hm * hs)
    d_c = (hp - hm) / (hm * hp)
    d_p = hm / (hp * hs)
    alpha = c_m + p_vals * d_m
    beta = c_c + p_vals * d_c - q_vals
    gamma = c_p + p_vals * d_p
    alpha[0] = 0.0  # u vanishes at the left truncation end
    gamma[-1] = 0.0
    return alpha, beta, gamma


def _square_rows(alpha, beta, gamma, d):
    """Pentadiagonal bands of K^T diag(d) K for tridiagonal rows K."""
    n = beta.size
    a0 = np.zeros(n)
    a1 = np.zeros(n - 1)
    a2 = np.zeros(n - 2)
    a0 += d * beta * beta
    a0[:-1] += d[1:] * alpha[1:] ** 2
    a0[1:] += d[:-1] * gamma[:-1] ** 2
    a1 += d[:-1] * beta[:-1] * gamma[:-1]
    a1 += d[1:] * alpha[1:] * beta[1:]
    a2 += d[1:-1] * alpha[1:-1] * gamma[1:-1]
    return a0, a1, a2


def assemble_custom_pencil(
    grid: RadialGrid,
    log_weight: Callable,
    drift,
    zeroth,
    V,
    W,
    order: str,
    rebuild: Callable[[int], "QuadraticPencil"] | None = None,
) -> QuadraticPencil:
    """Shared assembly with measure exp(log_weight(r)) dr.

    order 2: numerator int u'^2 g - int V u^2 g, denominator int W u^2 g.
    order 4: numerator int (u'' + drift*u' - zeroth*u)^2 g - int V u^2 g.
    The measure is rescaled by a common constant (median log) so the widest
    truncations stay far from overflow; pencil eigenvalues are unchanged.
    """
    nodes = grid.nodes
    w = grid.quad_weights
    lg = np.asarray(log_weight(nodes), dtype=float)
    shift = float(np.median(lg))

    def g_of(r):
        return np.exp(np.asarray(log_weight(r), dtype=float) - shift)

    g = g_of(nodes)
    v_vals = _as_values(V, nodes)
    w_vals = _as_values(W, nodes)
    if np.any(w_vals <= 0.0):
        i = int(np.nonzero(w_vals <= 0.0)[0][0])
        raise ArgumentError(
            f"denominator weight must be positive; W <= 0 at node {i} "
            f"(r = {nodes[i]:.6g})"
        )

    b_diag = w * g * w_vals

    if order == ORDER_LAPLACIAN:
        diag, off = _stiffness(nodes, grid.r_min, grid.r_max, g_of)
        diag = diag - w * g * v_vals
        a_bands = np.zeros((2, nodes.size))
        a_bands[0] = diag
        a_bands[1, :-1] = off
        pencil = QuadraticPencil(a_bands, b_diag, grid, ORDER_LAPLACIAN, rebuild=rebuild)
    elif order == ORDER_BILAPLACIAN:
        p_vals = _as_values(drift, nodes)
        q_vals = _as_values(zeroth, nodes)
        alpha, beta, gamma = _laplacian_rows(nodes, grid.r_min, grid.r_max, p_vals, q_vals)
        a0, a1, a2 = _square_rows(alpha, beta, gamma, w * g)
        a0 = a0 - w * g * v_vals
        # clamp the two nodes adjacent to each end (compact support)
        sl = slice(2, nodes.size - 2)
        n_red = nodes.size - 4
        if n_red < 8:
            raise ArgumentError("bilaplacian pencil needs more interior nodes")
        a_bands = np.zeros((3, n_red))
        a_bands[0] = a0[sl]
        a_bands[1, : n_red - 1] = a1[2 : nodes.size - 3]
        a_bands[2, : n_red - 2] = a2[2 : nodes.size - 4]
        pencil = QuadraticPencil(a_bands, b_diag[sl], grid, ORDER_BILAPLACIAN, rebuild=rebuild)
    else:
        raise ArgumentError(f"unknown pencil order {order!r}")

    if not (np.all(np.isfinite(pencil.a_bands)) and np.all(np.isfinite(pencil.b_diag))):
        raise EvaluationError("pencil assembly produced non-finite entries")
    return pencil


def assemble_pencil(
    manifold: ModelManifold,
    V,
    W,
    grid: RadialGrid,
    order: str = ORDER_LAPLACIAN,
) -> QuadraticPencil:
    """Pencil of the quotient [int u'^2 psi^(N-1) - int V u^2 psi^(N-1)] /
    [int W u^2 psi^(N-1)] (order 2), or the bilaplacian analogue with
    Delta u = u'' + (N-1)(psi'/psi) u' (order 4)."""

    def rebuild(m: int) -> QuadraticPencil:
        return assemble_pencil(manifold, V, W, grid.refined(m), order)

    drift = None
    if order == ORDER_BILAPLACIAN:
        drift = lambda r: (manifold.N - 1) * manifold.dpsi_over_psi(r)
    return assemble_custom_pencil(
        grid,
        log_weight=lambda r: (manifold.N - 1) * manifold.log_psi(r),
        drift=drift,
        zeroth=None,
        V=V,
        W=W,
        order=order,
        rebuild=rebuild,
    )


# ---------------------------------------------------------------------------
# eigenvalue machinery


def _positive_definite(pencil: QuadraticPencil,
                       mu: float) -> Callable[[np.ndarray], np.ndarray] | None:
    """Factor A - mu B; return a solver of (A - mu B) y = r with that
    factor, or None when A - mu B is not positive definite, i.e.
    (Sylvester's law of inertia) when mu does not lie below the smallest
    eigenvalue.

    Tridiagonal pencils use LAPACK dpttrf/dpttrs (L D L^T, positive
    definite iff every pivot of D is positive), wider ones dpbtrf/dpbtrs
    (banded Cholesky); either factorization reports info > 0 at the first
    non-positive pivot.  scipy loads here, so that commands which solve no
    pencil never import it.
    """
    from scipy.linalg import lapack

    a = pencil.a_bands
    if pencil.bandwidth == 1:
        d, e, info = lapack.dpttrf(a[0] - mu * pencil.b_diag, a[1, :-1], overwrite_d=True)
        solver = lambda rhs: lapack.dpttrs(d, e, rhs)
    else:
        ab = np.array(a, order="F")
        ab[0] -= mu * pencil.b_diag
        ab, info = lapack.dpbtrf(ab, lower=True, overwrite_ab=True)
        solver = lambda rhs: lapack.dpbtrs(ab, rhs, lower=True)
    if info < 0:
        raise NumericError(f"LAPACK factorization rejected argument {-info} "
                           f"at mu = {mu:.12g}")
    if info > 0:
        return None

    def solve(rhs: np.ndarray) -> np.ndarray:
        y, info = solver(rhs)
        if info != 0:
            raise NumericError(f"LAPACK solve rejected argument {-info} at mu = {mu:.12g}")
        return y

    return solve


def smallest_eigenvalue(pencil: QuadraticPencil, tol: float = 1e-8,
                        budget: int = 200, near: float | None = None) -> float:
    """Smallest mu with A x = mu B x, for any bandwidth.

    The answer is certified by inertia tests: ``lo`` moves only when
    A - mu B factors and ``hi`` only when it does not.  The bracket starts
    from a Gershgorin lower bound of B^(-1/2) A B^(-1/2) and min(a0/b), the
    smallest Rayleigh quotient of a unit vector.

    ``near``, a value expected close to the answer (a coarser grid's, or a
    neighbouring parameter's), warm-starts the bracket: the solver probes
    near - step and near + step with step = 1e-4 max(1, |near|), growing
    eightfold, until one probe factors below and one fails above.  A
    ``near`` that is not finite or lies outside the Gershgorin bracket is
    ignored.

    Each factorization at ``lo`` also serves inverse iteration: the solver
    takes a step y = (A - lo B)^(-1) B x from the current vector x and
    forms the Rayleigh quotient rho = lo + y^T B x / y^T B y, which carries
    no cancellation.  rho bounds the smallest eigenvalue from above, so
    trial points lie in (lo, min(hi, rho)): the asinh midpoint (which halves
    the bracket geometrically while it spans orders of magnitude and
    arithmetically once it is O(1)), or a point just below rho when the
    steps converge.  More steps reuse the same factor while they shrink
    rho's change at least tenfold each.  Once rho's estimated error is well
    under ``tol``, the bracket is probed around rho as around ``near``,
    with a first step of 0.4 tol max(1, |rho|); from then on the solver only
    bisects.  A start vector orthogonal to the ground state, or two nearly
    equal lowest eigenvalues, can mislead rho; the probes then grow and
    bisection takes over, so the answer stays certified.

    Stops once the bracket is no wider than tol * max(1, |lo|, |hi|) and
    returns its midpoint.  Every factorization (dpttrf on tridiagonal
    pencils, dpbtrf on wider ones) and every solve with one counts against
    ``budget``.

    The certificate is only as good as the factorization's backward
    error: whether A - mu B factors is decided in floating point, so the
    bracket locates the smallest eigenvalue of a pencil within that
    backward error of the one assembled.  On the tridiagonal Hardy pencils
    the shift where the factorization starts failing and the converged
    Rayleigh quotient agree to about 5e-12 relative.  On the finest
    pentadiagonal Rellich r^-2 pencil of the sharp estimator at M = 32768
    (n = 32764) they differ by up to 6.4e-8 relative, above tol = 1e-8,
    so there the bracket holds to tol only for the perturbed pencil.
    """
    if tol <= 0:
        raise ArgumentError("tolerance must be positive")
    a, b = pencil.a_bands, pencil.b_diag
    n = pencil.size
    s = 1.0 / np.sqrt(b)
    radius = np.zeros(n)
    for k in range(1, a.shape[0]):
        off = np.abs(a[k, : n - k]) * s[k:] * s[: n - k]
        radius[k:] += off
        radius[: n - k] += off
    lo = float(np.min(a[0] * s * s - radius))
    hi = float(np.min(a[0] / b))

    used = 0
    solve = None  # solver with the factor of A - lo B, while it pays

    def charge() -> None:
        nonlocal used
        if used >= budget:
            raise NumericError(
                "eigenvalue solve exhausted its iteration budget: "
                f"bracket [{lo:.12g}, {hi:.12g}], width {hi - lo:.3g}, "
                f"iterations {used} (LAPACK calls), on a pencil of "
                f"size {n}, bandwidth {pencil.bandwidth}"
            )
        used += 1

    def factors(mu: float) -> bool:
        nonlocal lo, hi, solve
        charge()
        factor = _positive_definite(pencil, mu)
        if factor is None:
            hi = mu
            return False
        lo, solve = mu, factor
        return True

    def probe(center: float, first: float) -> None:
        if not lo < center < hi:  # NaN and +-inf fail this test
            return
        step = first
        while lo < center - step:
            if factors(center - step):
                break
            step *= 8.0
        step = first
        while center + step < hi:
            if not factors(center + step):
                break
            step *= 8.0

    if near is not None:
        probe(near, 1e-4 * max(1.0, abs(near)))

    x = s  # unit entries in the symmetric form B^(-1/2) A B^(-1/2)
    rho = change = None  # Rayleigh quotient, |change| at the last step
    err = math.inf  # estimated rho - (smallest eigenvalue)
    guided = True
    while (hi - lo) > tol * max(1.0, abs(lo), abs(hi)):
        if guided and solve is not None:
            charge()
            bx = b * x
            y = solve(bx)
            yby = float(y @ (b * y))
            step_rho = lo + float(y @ bx) / yby
            x = y / math.sqrt(yby)
            keep = True  # a second step measures the change
            if rho is not None:
                d = abs(rho - step_rho)
                ratio = d / change if change else 1.0
                err = d * ratio / (1.0 - ratio) if ratio < 0.5 else d
                change, keep = d, ratio <= 0.1
            rho = step_rho
            if err <= 0.05 * tol * max(1.0, abs(rho)):
                probe(rho, 0.4 * tol * max(1.0, abs(rho)))
                guided = False
            elif not keep:
                solve = None
            continue
        upper = min(hi, rho) if guided and rho is not None and lo < rho else hi
        mid = math.sinh(0.5 * (math.asinh(lo) + math.asinh(upper)))
        if not lo < mid < upper:
            mid = 0.5 * (lo + upper)
        if guided and mid < upper - 2.0 * err:
            mid = upper - 2.0 * err
        if not factors(mid):
            err = math.inf  # aim no more until the next step
    return 0.5 * (lo + hi)


def min_generalized_eigenvalue(pencil: QuadraticPencil, tol: float = 1e-8,
                               near: float | None = None) -> ConstantEstimate:
    """Minimal eigenvalue with a refinement history.

    When the pencil carries a rebuild closure the solve is repeated at
    M/4, M/2 and M nodes so the history records three grid refinements;
    hand-built pencils get a single-entry history.  ``near`` (a neighbouring
    truncation's value, say) warm-starts the first solve, and each level's
    value warm-starts the next.
    """
    grid = pencil.grid
    history: list[tuple[int, float]] = []
    if pencil.rebuild is not None:
        sizes = sorted({max(32, grid.M // 4), max(32, grid.M // 2), grid.M})
        value = near
        for m in sizes:
            p = pencil.rebuild(m) if m != grid.M else pencil
            value = smallest_eigenvalue(p, tol, near=value)
            history.append((m, value))
    else:
        value = smallest_eigenvalue(pencil, tol, near=near)
        history.append((grid.M, value))
    return ConstantEstimate(
        value=value,
        r_min=grid.r_min,
        r_max=grid.r_max,
        M=grid.M,
        history=history,
    )

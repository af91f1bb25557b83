"""The sharp constants the toolkit verifies, each defined once.

Each entry is an exact Fraction, or a function of the dimension N that
returns one.  Margins, estimators and check rows read it when they run
(``claims.<name>``, through float() where they compute in floating point),
so changing one entry moves every consumer.  Substitution and identity
coefficients are derived where they are used, and the mode coefficients
stay in rellich (sinh2_coefficient, sinh4_coefficient, whose minima at
n = 0 are min_sinh2_closed_form and min_sinh4_closed_form).
"""

from fractions import Fraction

# the constants that do not depend on N, each with its inequality
HARDY_R2 = Fraction(1, 4)  # 1/r^2 of Poincare-Hardy; the 1-D Hardy anchor
ITERATED_LOG = Fraction(1, 4)  # each term of the iterated-log series on the ball
BALL_HARDY = Fraction(1, 4)  # c^2 v^2 of the boundary-improved Hardy on the ball
HALFSPACE_HARDY = Fraction(1, 4)  # v^2/y^2 of the distance-improved half-space Hardy
RELLICH_R4 = Fraction(9, 16)  # 1/r^4 of Poincare-Rellich; the 1-D Rellich anchor
SINH_1D_S4 = Fraction(9, 4)  # u^2/sinh^4 of int u'^2/sinh^2 >= ... on the line
SINH_1D_S2 = Fraction(1)  # u^2/sinh^2 of the same 1-D inequality
HALFSPACE_AUX = Fraction(9, 4)  # int |grad v|^2/y^2 >= 9/4 int v^2/y^4 on the half-space


def spectral_gap(N: int) -> Fraction:
    """(N-1)^2/4: bottom of the spectrum of -Lap on H^N, in Poincare-Hardy."""
    return Fraction((N - 1) ** 2, 4)


def sinh_hardy(N: int) -> Fraction:
    """(N-1)(N-3)/4: the 1/psi^2 term of Poincare-Hardy and its model form."""
    return Fraction((N - 1) * (N - 3), 4)


def euclid_hardy(N: int) -> Fraction:
    """(N-2)^2/4: the euclidean Hardy constant, h(lambda) at lambda = 0."""
    return Fraction((N - 2) ** 2, 4)


def rellich_l2(N: int) -> Fraction:
    """(N-1)^4/16: the int u^2 term of Poincare-Rellich."""
    return Fraction((N - 1) ** 4, 16)


def rellich_r2(N: int) -> Fraction:
    """(N-1)^2/8: the 1/r^2 term of Poincare-Rellich and 1/d^2 of its transplants."""
    return Fraction((N - 1) ** 2, 8)


def euclid_rellich(N: int) -> Fraction:
    """N^2(N-4)^2/16: the euclidean Rellich constant."""
    return Fraction(N * N * (N - 4) ** 2, 16)


def halfspace_y2_grad(N: int) -> Fraction:
    """N(N-2)/2: |grad v|^2 on the left of the y2 half-space Rellich inequality."""
    return Fraction(N * (N - 2), 2)


def halfspace_y2_l2(N: int) -> Fraction:
    """(2N^2-4N+1)/16: v^2/y^2 of the y2 half-space Rellich inequality."""
    return Fraction(2 * N * N - 4 * N + 1, 16)


def halfspace_y4_grad(N: int) -> Fraction:
    """(N^2-2N-4)/2: |grad v|^2/y^2 on the left of the y4 half-space Rellich inequality."""
    return Fraction(N * N - 2 * N - 4, 2)


def halfspace_y4_l2(N: int) -> Fraction:
    """9(2N^2-4N-7)/16: v^2/y^4 of the y4 half-space Rellich inequality."""
    return Fraction(9 * (2 * N * N - 4 * N - 7), 16)

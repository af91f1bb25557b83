import numpy as np
import pytest

from hardyrellich import iterated_log as il
from hardyrellich.errors import DomainError


def test_endpoint_values():
    assert il.iterated_log_stack(1, 1.0)[-1] == 1.0
    assert il.iterated_log_stack(4, 1.0)[-1] == 1.0
    assert il.iterated_log_stack(1, np.exp(-1.0))[-1] == pytest.approx(0.5, rel=1e-14)
    assert il.iterated_log_stack(2, np.exp(-1.0))[-1] == pytest.approx(
        1.0 / (1.0 + np.log(2.0)), rel=1e-14
    )


def test_domain_errors():
    with pytest.raises(DomainError):
        il.iterated_log_stack(1, 0.0)
    with pytest.raises(DomainError):
        il.iterated_log_stack(1, 1.5)


def test_range_and_monotonicity():
    t = np.linspace(1e-6, 1.0 - 1e-9, 1000)
    for k in range(1, 7):
        x = il.iterated_log_stack(k, t)[-1]
        assert np.all(x > 0.0) and np.all(x < 1.0)
        assert np.all(np.diff(x) > 0.0)


def test_stack_and_products_consistent():
    t = np.array([0.3, 0.7])
    stack = il.iterated_log_stack(3, t)
    for k in (1, 2, 3):
        assert np.allclose(stack[k - 1], il.iterated_log_stack(k, t)[-1])


def test_derivative_identity_against_fd():
    t0 = 0.37
    h = 1e-7
    for k in (1, 2, 3, 4):
        fd = (il.iterated_log_stack(k, t0 + h)[-1]
              - il.iterated_log_stack(k, t0 - h)[-1]) / (2 * h)
        stack = il.iterated_log_stack(k, np.array(t0))
        prods = np.cumprod(stack)
        closed = (prods[k - 2] if k >= 2 else 1.0) * stack[k - 1] ** 2 / t0
        assert closed == pytest.approx(fd, rel=1e-6)


def test_log_derivatives_against_fd():
    exps = [-0.5, -0.5, 0.25]
    t0 = 0.41
    h = 1e-6

    def logf(t):
        stack = il.iterated_log_stack(3, np.array(t))
        return float(np.sum(np.asarray(exps) * np.log(stack.ravel())))

    l1, l2 = il.log_derivatives(exps, np.array(t0))
    fd1 = (logf(t0 + h) - logf(t0 - h)) / (2 * h)
    fd2 = (logf(t0 + h) - 2 * logf(t0) + logf(t0 - h)) / h**2
    assert float(l1) == pytest.approx(fd1, rel=1e-8)
    assert float(l2) == pytest.approx(fd2, rel=1e-3)


def test_profile_derivatives_against_fd():
    f = il.iterated_log_profile(5, 2)
    t0, h = 0.3, 1e-6
    fd1 = float((f(np.array(t0 + h)) - f(np.array(t0 - h))) / (2 * h))
    _, d1, d2 = f.jet(np.array(t0), 2)
    assert float(d1) == pytest.approx(fd1, rel=1e-8)
    fd2 = float((f(np.array(t0 + h)) - 2 * f(np.array(t0)) + f(np.array(t0 - h))) / h**2)
    assert float(d2) == pytest.approx(fd2, rel=1e-4)

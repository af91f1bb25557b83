"""Self-test of the benchmark's own instruments.

1. The eigenvalue reference matches dense ``scipy.linalg.eigvalsh`` on
   small random SPD pencils of bandwidth 1 and 2.
2. The tracer attributes self time exactly on a known nested call (driven
   by a fake clock) and traces a name another module imported with
   ``from ... import``, then restores the original bindings.

Run alone with ``python3 perfbench/selftest.py``; exit code 0 means every
case passed.  The harness runs it before each benchmark run.
"""

from __future__ import annotations

import sys
from types import ModuleType

import numpy as np
import scipy.linalg

from reference import reference
from tracer import Tracer

EIG_RTOL = 1e-10


def _random_pencil(rng, n: int, bw: int):
    a_bands = np.zeros((bw + 1, n))
    for k in range(1, bw + 1):
        a_bands[k, : n - k] = rng.uniform(-1.0, 1.0, n - k)
    # diagonal dominance keeps A SPD; the offset keeps eigenvalues away from 0
    a_bands[0] = 2.0 * bw + rng.uniform(0.5, 3.0, n)
    b_diag = rng.uniform(0.2, 5.0, n)
    dense = np.diag(a_bands[0])
    for k in range(1, bw + 1):
        dense += np.diag(a_bands[k, : n - k], -k) + np.diag(a_bands[k, : n - k], k)
    return a_bands, b_diag, dense


def check_reference(seed: int = 0) -> list[str]:
    rng = np.random.default_rng(seed)
    errors = []
    for bw in (1, 2):
        for n in (24, 57, 120):
            a_bands, b_diag, dense = _random_pencil(rng, n, bw)
            exact = float(scipy.linalg.eigvalsh(dense, np.diag(b_diag))[0])
            ref = reference(a_bands, b_diag)
            for label, got in (("bisection", ref.value), ("lanczos", ref.lanczos)):
                rel = abs(got - exact) / abs(exact)
                if rel > EIG_RTOL:
                    errors.append(f"reference {label} bw={bw} n={n}: rel err {rel:.2e}")
    return errors


def check_tracer() -> list[str]:
    now = [0.0]

    def tick(dt: float) -> None:
        now[0] += dt

    lib = ModuleType("fakepkg.lib")
    user = ModuleType("fakepkg.user")

    def inner():
        tick(3.0)

    def outer():
        tick(2.0)
        user.inner()  # goes through the from-import alias
        tick(1.0)

    inner.__module__ = outer.__module__ = lib.__name__
    lib.inner, lib.outer = inner, outer
    user.inner = inner  # as if ``from fakepkg.lib import inner``

    errors = []
    tracer = Tracer(clock=lambda: now[0])
    with tracer:
        tracer.instrument_modules([lib, user], prefix="fakepkg.")
        lib.outer()
        if user.inner is inner:
            errors.append("tracer did not rebind the from-import alias")
    if lib.outer is not outer or user.inner is not inner:
        errors.append("tracer did not restore the original bindings")

    by_name = {s.name: s for s in tracer.spans}
    selfs = tracer.self_times()
    expect = {"lib.outer": (6.0, 3.0), "lib.inner": (3.0, 3.0)}
    for name, (dur, self_s) in expect.items():
        span = by_name.get(name)
        if span is None:
            errors.append(f"tracer recorded no span {name}")
        elif (span.duration, selfs[span.id]) != (dur, self_s):
            errors.append(f"tracer {name}: duration {span.duration}, self "
                          f"{selfs[span.id]}; expected {dur}, {self_s}")
    if "lib.inner" in by_name and "lib.outer" in by_name:
        if by_name["lib.inner"].parent != by_name["lib.outer"].id:
            errors.append("tracer lost the parent of a nested span")
    return errors


def run() -> list[str]:
    return check_reference() + check_tracer()


if __name__ == "__main__":
    problems = run()
    for p in problems:
        print(f"FAIL {p}")
    print("self-test", "failed" if problems else "passed")
    sys.exit(1 if problems else 0)

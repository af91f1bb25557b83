"""The benchmark's tracer contract, read from perfbench/ without changing
it: every span name its layers fold into a per-layer metric must name a
function of the package (a renamed function would silently read 0), and
the benchmark's self-test must pass."""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
BENCH_MODULES = ("layers", "selftest", "tracer", "reference")


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
    try:
        yield importlib.import_module("layers"), importlib.import_module("selftest")
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.path.remove(str(BENCH))
        for name in BENCH_MODULES:
            sys.modules.pop(name, None)


def _resolve(span: str):
    module, *attrs = span.split(".")
    obj = importlib.import_module(f"hardyrellich.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def test_every_traced_span_names_a_package_function(bench):
    layers, _ = bench
    spans = set().union(*layers.GROUPS.values())
    spans |= {layers.OVER_BOX, layers.EIG_SPAN, layers.ESTIMATE_SPAN}
    missing = []
    for span in sorted(spans):
        try:
            target = _resolve(span)
        except (ImportError, AttributeError):
            missing.append(span)
            continue
        assert callable(target), span
    assert missing == []


def test_benchmark_selftest_passes(bench):
    _, selftest = bench
    assert selftest.run() == []

"""The benchmark's tracer contract, read from perfbench/ without changing
it: every span name its layers fold into a per-layer metric must name a
function of the package (a renamed function would silently read 0), and
the benchmark's self-test must pass, and every suite must build at least
the rows the benchmark counts."""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
BENCH_MODULES = ("layers", "selftest", "tracer", "reference", "run")


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


def test_halfspace_checks_build_one_grid_per_resolution(monkeypatch):
    # the traced euclid.tensor2d.points count adds up the nodes of every
    # TensorGrid.over_box call: a tensor-bump margin check builds one grid,
    # whose every-other-node subgrid gives its quadrature error; a
    # transported profile's checks and the bilaplacian identity build
    # none, as they integrate on a polar rule
    from hardyrellich import euclid
    from hardyrellich.radial import bump

    sizes = []
    over_box = euclid.TensorGrid.over_box

    def counted(*args):
        sizes.append(args[3:])
        return over_box(*args)

    monkeypatch.setattr(euclid.TensorGrid, "over_box", staticmethod(counted))
    checks = (
        lambda v: euclid.check_halfspace_hardy(v, 5, 40, 32),
        lambda v: euclid.check_halfspace_rellich(v, 5, "y2", 40, 32),
        lambda v: euclid.check_halfspace_rellich(v, 5, "y4", 40, 32),
        lambda v: euclid.aux_gradient_inequality(v, 5, 40, 32),
    )
    for v, grids in ((euclid.tensor_bump(1.0, 0.5, 2.0), [(40, 32)]),
                     (euclid.TransportedRadial(bump(0.5, 1.5), 5, alpha=1.5), [])):
        for check in checks:
            sizes.clear()
            check(v)
            assert sizes == grids
    sizes.clear()
    euclid.halfspace_bilaplacian_identity(bump(0.5, 1.5), 5, nodes=512)
    assert sizes == []


def test_each_suite_builds_the_rows_the_benchmark_counts(bench):
    # perfbench fails a run whose `verify --suite S` writes fewer rows than
    # its floor for S; the builders bind one check per row, so counting
    # the checks they build (without running them) finds a dropped row here
    from hardyrellich import suites
    from hardyrellich.config import default_config

    run = importlib.import_module("run")
    floors = {verb[2]: rows for verb, rows in run.VerifyAll.verbs + run.QuadratureChecks.verbs
              if verb[:2] == ("verify", "--suite")}
    assert {"all", "identities"} <= set(floors)
    cfg = default_config()
    built = {name: len(getattr(suites, f"_{'identity' if name == 'identities' else name}_checks")(
        cfg)) for name in suites.SUITES[:-1]}
    built["all"] = sum(built.values())
    short = {suite: (built[suite], floor) for suite, floor in floors.items()
             if built[suite] < floor}
    assert short == {}

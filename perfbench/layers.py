"""Layer instrumentation and the per-layer metrics built from its spans.

Spans are named ``<module>.<function>`` after ``src/hardyrellich``; the
groups below fold them into the layers the per-layer metrics report.
Every metric is per traced pass (sums divided by the number of passes).
"""

from __future__ import annotations

import sys
from pathlib import Path

from tracer import Tracer

PACKAGE = "hardyrellich"
SUITE_NAMES = ("identities", "hardy", "rellich", "euclid", "asymptotics")
EIG_SPAN = "pencils.smallest_eigenvalue"
ESTIMATE_SPAN = "pencils.min_generalized_eigenvalue"
OVER_BOX = "euclid.TensorGrid.over_box"

GROUPS = {
    "pencils.assemble": {"pencils.assemble_pencil", "pencils.assemble_custom_pencil"},
    "radial.make_grid": {"radial.make_grid", "radial.grid_covering"},
    "radial.forms": {"radial.dirichlet_form", "radial.bilaplacian_form",
                     "radial.weighted_l2", "radial.integrate_weighted"},
    "hardy.margin": {"hardy.check_poincare_hardy", "hardy.check_general_model",
                     "hardy.check_iterated_log_improvement"},
    "rellich.margin": {"rellich.check_poincare_rellich", "rellich.check_sinh_hardy_1d",
                       "rellich.mode_chain_margin", "rellich.check_mapped_rellich",
                       "rellich.principal_rellich_margin", "rellich.radial_reduced_form"},
    "euclid.tensor2d": {"euclid.check_halfspace_hardy", "euclid.check_halfspace_rellich",
                        "euclid.aux_gradient_inequality",
                        "euclid.halfspace_bilaplacian_identity",
                        OVER_BOX},
    "euclid.ball": {"euclid.ball_identity_check", "euclid.check_ball_hardy",
                    "euclid.hyperbolic_margin_without_sinh",
                    "euclid.boundary_weight_comparison", "euclid.ball_from_radial"},
    "rellich.exact": {"rellich.mode_eigenvalue", "rellich.mode_multiplicity",
                      "rellich.sinh4_coefficient", "rellich.sinh2_coefficient",
                      "rellich.min_sinh4_closed_form", "rellich.min_sinh2_closed_form",
                      "rellich.mode_table", "rellich.verify_euclidean_rellich_split",
                      "rellich.asymptotic_constants"},
    "rellich.mpmath": {"rellich.two_term_expansion_error_precise"},
    "supersolutions.identity": {"supersolutions.warp_power_identity_residual",
                                "supersolutions.product_profile_identity_residual",
                                "supersolutions.supersolution_equality_residual",
                                "supersolutions.ground_state_residual"},
    "reports.write": {"reports.ExperimentManifest.write", "reports.write_csv"},
    "cli": {"cli.main", "cli.build_parser"},
}

# (metric name, unit, better); the order is the order of BENCHMARK.json.
PER_LAYER = [
    *[(f"pencils.eig_bw{bw}.{m}", u, "lower") for bw in (1, 2) for m, u in (
        ("calls", "count"), ("unknowns", "count"), ("self_s", "s"),
        ("us_per_unknown", "us"), ("share", "ratio"), ("rel_err_max", "ratio"))],
    ("pencils.eig.failures", "count", "lower"),
    ("pencils.history_share", "ratio", "lower"),
    ("pencils.assemble.calls", "count", "lower"),
    ("pencils.assemble.self_s", "s", "lower"),
    ("radial.make_grid.calls", "count", "lower"),
    ("radial.make_grid.self_s", "s", "lower"),
    ("radial.forms.calls", "count", "lower"),
    ("radial.forms.self_s", "s", "lower"),
    ("hardy.margin.calls", "count", "lower"),
    ("hardy.margin.self_s", "s", "lower"),
    ("rellich.margin.calls", "count", "lower"),
    ("rellich.margin.self_s", "s", "lower"),
    ("euclid.tensor2d.calls", "count", "lower"),
    ("euclid.tensor2d.points", "count", "lower"),
    ("euclid.tensor2d.self_s", "s", "lower"),
    ("euclid.tensor2d.ns_per_point", "ns", "lower"),
    ("euclid.ball.calls", "count", "lower"),
    ("euclid.ball.self_s", "s", "lower"),
    ("rellich.exact.self_s", "s", "lower"),
    ("rellich.mpmath.self_s", "s", "lower"),
    ("supersolutions.identity.self_s", "s", "lower"),
    ("reports.write.calls", "count", "lower"),
    ("reports.write.self_s", "s", "lower"),
    ("reports.write.bytes", "bytes", "lower"),
    ("cli.overhead_s", "s", "lower"),
    *[(f"suites.{name}_s", "s", "lower") for name in SUITE_NAMES],
    ("suites.pool_speedup", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
]


def package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")]


def _file_bytes(paths) -> int:
    return sum(Path(p).stat().st_size for p in paths if Path(p).is_file())


def _manifest_bytes(args, kwargs, result) -> dict:
    manifest = args[0]
    paths = list(result)
    if manifest.constants:
        paths.append(Path(result[0]).parent / "constants.csv")
    return {"bytes": _file_bytes(paths)}


HOOKS = {
    EIG_SPAN: lambda a, kw, v: {"bw": a[0].bandwidth, "n": a[0].size, "M": a[0].grid.M},
    ESTIMATE_SPAN: lambda a, kw, est: {"M": a[0].grid.M},
    OVER_BOX: lambda a, kw, g: {"points": g.xi.size * g.y.size},
    "reports.write_csv": lambda a, kw, path: {"bytes": _file_bytes([path])},
}


def instrument(tracer: Tracer) -> None:
    """Wrap every public function of the package plus the methods and
    suite builders the per-layer metrics need."""
    from hardyrellich import euclid, reports, suites

    tracer.instrument_modules(package_modules(), prefix=PACKAGE + ".", hooks=HOOKS)
    tracer.instrument_method(euclid.TensorGrid, "over_box", OVER_BOX,
                             HOOKS[OVER_BOX])
    tracer.instrument_method(reports.ExperimentManifest, "write",
                             "reports.ExperimentManifest.write", _manifest_bytes)
    for name in SUITE_NAMES:
        builder_attr = f"_{'identity' if name == 'identities' else name}_checks"
        tracer.set(suites, builder_attr,
                   _traced_builder(tracer, getattr(suites, builder_attr), f"suites.{name}"))


def _traced_builder(tracer: Tracer, builder, span_name: str):
    def build(cfg):
        return [tracer.wrap(check, span_name) for check in builder(cfg)]

    return build


def per_layer(tracer: Tracer, passes: int, traced_wall: float,
              rel_err: dict[int, float], serial_wall: float, pooled_wall: float) -> dict:
    """Per-layer metric values for ``passes`` traced passes whose median
    wall time is ``traced_wall``; ``rel_err`` maps bandwidth to the
    worst reference gap."""
    spans = tracer.spans
    by_id = {s.id: s for s in spans}
    selfs = tracer.self_times()
    out: dict[str, float] = {}

    def group_stats(names: set[str]):
        """Spans in the group, outermost group calls, and self seconds."""
        inside = [s for s in spans if s.name in names]
        outer = [s for s in inside
                 if s.parent is None or by_id[s.parent].name not in names]
        return inside, outer, sum(selfs[s.id] for s in inside) / passes

    eigs = [s for s in spans if s.name == EIG_SPAN]
    eig_total = 0.0
    refine = 0.0
    for bw in (1, 2):
        mine = [s for s in eigs if s.attrs.get("bw") == bw]
        self_s = sum(selfs[s.id] for s in mine) / passes
        unknowns = sum(s.attrs["n"] for s in mine) / passes
        p = f"pencils.eig_bw{bw}"
        out[f"{p}.calls"] = len(mine) / passes
        out[f"{p}.unknowns"] = unknowns
        out[f"{p}.self_s"] = self_s
        out[f"{p}.us_per_unknown"] = 1e6 * self_s / unknowns if unknowns else 0.0
        out[f"{p}.share"] = self_s / traced_wall
        out[f"{p}.rel_err_max"] = rel_err.get(bw, 0.0)
    for s in eigs:
        eig_total += selfs[s.id]
        parent = by_id.get(s.parent)
        if (parent is not None and parent.name == ESTIMATE_SPAN
                and s.attrs.get("M", 0) < parent.attrs.get("M", 0)):
            refine += selfs[s.id]
    out["pencils.eig.failures"] = sum(1 for s in eigs if not s.ok) / passes
    out["pencils.history_share"] = refine / eig_total if eig_total else 0.0

    for group in ("pencils.assemble", "radial.make_grid", "radial.forms",
                  "hardy.margin", "rellich.margin", "euclid.ball", "reports.write"):
        _, outer, self_s = group_stats(GROUPS[group])
        out[f"{group}.calls"] = len(outer) / passes
        out[f"{group}.self_s"] = self_s
    inside, outer, self_s = group_stats(GROUPS["euclid.tensor2d"])
    points = sum(s.attrs.get("points", 0) for s in inside) / passes
    out["euclid.tensor2d.calls"] = sum(1 for s in outer if s.name != OVER_BOX) / passes
    out["euclid.tensor2d.points"] = points
    out["euclid.tensor2d.self_s"] = self_s
    out["euclid.tensor2d.ns_per_point"] = 1e9 * self_s / points if points else 0.0
    for group in ("rellich.exact", "rellich.mpmath", "supersolutions.identity"):
        out[f"{group}.self_s"] = group_stats(GROUPS[group])[2]
    writes = [s for s in spans if s.name in GROUPS["reports.write"]]
    out["reports.write.bytes"] = sum(s.attrs.get("bytes", 0) for s in writes) / passes
    out["cli.overhead_s"] = group_stats(GROUPS["cli"])[2]
    for name in SUITE_NAMES:
        out[f"suites.{name}_s"] = sum(
            s.duration for s in spans if s.name == f"suites.{name}") / passes
    out["suites.pool_speedup"] = serial_wall / pooled_wall
    out["trace.overhead_s"] = traced_wall - serial_wall
    return out

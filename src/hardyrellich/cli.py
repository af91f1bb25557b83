"""Command-line driver.

Verbs:
  verify          run a named check suite, write manifest + results CSV
  sharp           sharp-constant estimates (hardy | rellich-r2 | anchors)
  sweep-lambda    h(lambda) curve
  coeffs          per-mode coefficient table
  asymptotics     change-of-variable constants and expansion checks
  curve           emit plot data (h_lambda | s_of_r | convergence)

Module-style groups are also exposed (hardy / rellich / euclid subcommands)
for targeted runs; sharp, sweep-lambda, coeffs and asymptotics are the same
entries as hardy sharp / rellich sharp-r2, hardy sweep-lambda, rellich
coeffs and rellich asymptotics.  Every verb except verify and curve selects
checks from suites.py and binds them to its own arguments; verify runs whole
suites.  Exit code 0 means every executed check passed.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from pathlib import Path

from . import __version__, rellich, suites
from .config import ToolkitConfig, default_config, load_config
from .errors import ArgumentError, ToolkitError
from .radial import bump
from .reports import ExperimentManifest, emit_curve, format_value, write_csv
from .suites import SUITES, run_suite

USAGE_EXIT = 2

# entry -> the suite checks it runs, as (check, inputs...) built from the
# verb's arguments; each call is check(cfg, *inputs)
CHECKS = {
    "hardy check": lambda a, cfg: [
        (suites.poincare_hardy_margins, (a.N,), cfg.get_int("hardy", "bump_count"))],
    "hardy sharp": lambda a, cfg: [
        (suites.hardy_sharp_range_and_monotone, a.N,
         (a.rmax or cfg.get_float("grids", "r_max"),))],
    "hardy sweep-lambda": lambda a, cfg: [(suites.h_lambda_endpoints_and_shape, a.N)],
    "hardy iterlog": lambda a, cfg: [
        (suites.iterated_log_margins, a.N, [bump(0.2, 0.8)], a.k, 4096),
        (suites.iterated_log_optimality_scan, a.N, (max(a.k, 1),))],
    "rellich check": lambda a, cfg: [(suites.poincare_rellich_margins, (a.N,), 10)],
    "rellich sharp-r2": lambda a, cfg: [
        (suites.rellich_sharp_r2,
         {a.N: (getattr(a, "rmax", None) or cfg.get_float("rellich", "sharp_r_max"),)})],
    "rellich coeffs": lambda a, cfg: [
        (suites.mode_coefficient_minima_exact, (a.N,), a.nmax)],
    "rellich asymptotics": lambda a, cfg: [
        (suites.asymptotic_consistency_exact, (a.N,)),
        (suites.two_term_expansion_ratio, a.N),
        (suites.density_correction_within_5pct, a.N)],
    "sharp anchors": lambda a, cfg: [(suites.one_d_and_euclid_anchors,)],
    "euclid ball-identities": lambda a, cfg: [(suites.ball_identities, (a.N,))],
    "euclid halfspace-hardy": lambda a, cfg: [
        (suites.halfspace_hardy_margins, a.N, [suites.HALFSPACE_BUMP], 512, 512)],
    "euclid halfspace-rellich": lambda a, cfg: [
        (suites.halfspace_rellich_margins, a.N, [suites.HALFSPACE_BUMP], (a.which,),
         512, 512)],
    "euclid laplacian-identity": lambda a, cfg: [
        (check, a.N, (0.0, 0.8, (a.N - 2) / 2.0, 2.5))
        for check in (suites.halfspace_laplacian_identity_corrected,
                      suites.halfspace_laplacian_identity_literal_fails)],
}
SHARP = {"hardy": "hardy sharp", "rellich-r2": "rellich sharp-r2",
         "anchors": "sharp anchors"}

# entry -> writer of the entry's data CSV; returns the path
OUTPUTS = {
    "hardy sweep-lambda": lambda a, cfg: emit_curve("h_lambda", a.out, N=a.N,
                                                    config=cfg),
    "rellich coeffs": lambda a, cfg: write_csv(
        Path(a.out) / f"mode_coeffs_N{a.N}.csv", "n,lambda_n,d_n,A_n,B_n",
        [t.csv_row() for t in rellich.mode_table(a.N, a.nmax)]),
}


def _common_parent() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, default=None,
                        help="flat key-value config file")
    common.add_argument("--seed", type=int, default=1234,
                        help="seed for randomized suites")
    common.add_argument("--out", type=str, default="out", help="output directory")
    common.add_argument("--tol-scale", type=float, default=1.0,
                        help="multiply the [tolerances] keys (margin_rtol, "
                             "identity_rtol) by this factor; fixed check "
                             "criteria are not scaled")
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_parent()
    p = argparse.ArgumentParser(prog="hardyrellich",
                                description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="verb", required=True)

    def verb(parent, name: str, entry: str, N: int | None = 5, **kw):
        v = parent.add_parser(name, parents=[common], **kw)
        if N is not None:
            v.add_argument("--N", type=int, default=N)
        v.set_defaults(entry=entry)
        return v

    v = verb(sub, "verify", "verify", N=None, help="run a verification suite")
    v.add_argument("--suite", choices=SUITES, default="all")
    s = verb(sub, "sharp", "sharp", N=3, help="sharp-constant estimates")
    s.add_argument("--which", choices=tuple(SHARP), default="hardy")
    s.add_argument("--rmax", type=float, default=None)
    verb(sub, "sweep-lambda", "hardy sweep-lambda", help="h(lambda) curve")
    c = verb(sub, "coeffs", "rellich coeffs", help="per-mode coefficient table")
    c.add_argument("--nmax", type=int, default=50)
    verb(sub, "asymptotics", "rellich asymptotics",
         help="change-of-variable asymptotics")
    cu = verb(sub, "curve", "curve", help="emit plot data")
    cu.add_argument("--name", choices=("h_lambda", "s_of_r", "convergence"),
                    required=True)

    hsub = sub.add_parser("hardy", help="first-order inequality checks"
                          ).add_subparsers(dest="action", required=True)
    verb(hsub, "check", "hardy check")
    hs = verb(hsub, "sharp", "hardy sharp", N=3)
    hs.add_argument("--rmax", type=float, default=None)
    verb(hsub, "sweep-lambda", "hardy sweep-lambda")
    verb(hsub, "iterlog", "hardy iterlog").add_argument("--k", type=int, default=3)

    rsub = sub.add_parser("rellich", help="second-order inequality checks"
                          ).add_subparsers(dest="action", required=True)
    verb(rsub, "coeffs", "rellich coeffs").add_argument("--nmax", type=int, default=50)
    verb(rsub, "check", "rellich check")
    verb(rsub, "sharp-r2", "rellich sharp-r2")
    verb(rsub, "asymptotics", "rellich asymptotics")

    esub = sub.add_parser("euclid", help="ball and half-space checks"
                          ).add_subparsers(dest="action", required=True)
    verb(esub, "ball-identities", "euclid ball-identities")
    verb(esub, "halfspace-hardy", "euclid halfspace-hardy", N=3)
    verb(esub, "halfspace-rellich", "euclid halfspace-rellich").add_argument(
        "--which", choices=("y2", "y4"), default="y2")
    verb(esub, "laplacian-identity", "euclid laplacian-identity")
    return p


def _finish(manifest: ExperimentManifest, outdir: str) -> int:
    manifest.write(outdir)
    for r in manifest.sorted_results():
        print(f"{r.status.upper():4s} {r.name}: value={format_value(r.value)} "
              f"tol={format_value(r.tolerance)}")
    print(f"-> {'PASS' if manifest.passed else 'FAIL'} "
          f"({len(manifest.results)} checks, {manifest.wall_time_s:.1f}s); "
          f"manifest in {outdir}/")
    return manifest.exit_code


def _config_from(args) -> ToolkitConfig:
    cfg = load_config(args.config) if args.config else default_config()
    cfg.tol_scale = args.tol_scale
    cfg.seed = args.seed
    return cfg


def _cmd_verify(args, command: str) -> int:
    cfg = _config_from(args)
    manifest = run_suite(args.suite, cfg, command=command)
    if args.suite in ("identities", "all"):
        write_csv(Path(args.out) / "residuals.csv",
                  "identity,family,N,alpha_or_f,r,residual_rel",
                  suites.residual_report_rows())
    return _finish(manifest, args.out)


def _cmd_curve(args, command: str) -> int:
    path = emit_curve(args.name, args.out, N=args.N, config=_config_from(args))
    print(f"curve written to {path}")
    return 0


def _cmd_checks(args, command: str) -> int:
    cfg = _config_from(args)
    entry = SHARP[args.which] if args.entry == "sharp" else args.entry
    checks = [partial(check, cfg, *inputs) for check, *inputs in CHECKS[entry](args, cfg)]
    manifest = suites.run_checks(checks, cfg, command)
    if entry in OUTPUTS:
        print(f"data written to {OUTPUTS[entry](args, cfg)}")
    return _finish(manifest, args.out)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    handler = {"verify": _cmd_verify, "curve": _cmd_curve}.get(args.entry, _cmd_checks)
    try:
        return handler(args, " ".join(argv))
    except ArgumentError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

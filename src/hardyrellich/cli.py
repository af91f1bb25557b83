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
import math
import sys
from functools import cache, partial
from pathlib import Path

from . import __version__, quotients, rellich, suites
from .config import ToolkitConfig, default_config, load_config
from .errors import ArgumentError, ToolkitError
from .radial import bump
from .reports import (
    ExperimentManifest,
    emit_curve,
    format_value,
    write_csv,
    write_h_lambda_csv,
)
from .suites import SUITES, run_suite

USAGE_EXIT = 2

# entry -> the suite checks it runs, as (check, inputs...) built from the
# verb's arguments; each call is check(cfg, *inputs)
CHECKS = {
    "hardy check": lambda a, cfg: [
        (suites.poincare_hardy_margins, (a.N,), cfg.get_int("hardy", "bump_count"))],
    "hardy sharp": lambda a, cfg: [
        (suites.sharp_constants, "hardy_sharp_range_and_monotone",
         [("hardy_sharp_radial", a.N, (a.rmax,))])],
    "hardy sweep-lambda": lambda a, cfg: [(_h_lambda_written, a.N, a.out)],
    "hardy iterlog": lambda a, cfg: [
        (suites.iterated_log_margins, a.N, bump(0.2, 0.8), a.k),
        (suites.iterated_log_optimality_scan, a.N, (max(a.k, 1),))],
    "rellich check": lambda a, cfg: [(suites.poincare_rellich_margins, (a.N,), 10)],
    "rellich sharp-r2": lambda a, cfg: [
        (suites.sharp_constants, "rellich_sharp_r2",
         [("rellich_sharp_r2_radial", a.N, (a.rmax,))])],
    "rellich coeffs": lambda a, cfg: [(_coeffs_written, a.N, a.nmax, a.out)],
    "rellich asymptotics": lambda a, cfg: [
        (suites.asymptotic_consistency_exact,),
        (suites.two_term_expansion_ratio, a.N),
        (suites.density_correction_within_5pct, a.N)],
    "sharp anchors": lambda a, cfg: [
        (suites.sharp_constants, "one_d_and_euclid_anchors", suites.ANCHOR_RUNS)],
    "euclid ball-identities": lambda a, cfg: [(suites.ball_identities, (a.N,))],
    "euclid halfspace-hardy": lambda a, cfg: [
        (suites.halfspace_hardy_margins, a.N, [suites.HALFSPACE_BUMP])],
    "euclid halfspace-rellich": lambda a, cfg: [
        (suites.halfspace_rellich_margins, a.N, [suites.HALFSPACE_BUMP], (a.which,))],
    "euclid laplacian-identity": lambda a, cfg: [
        (check, a.N, (0.0, 0.8, (a.N - 2) / 2.0, 2.5))
        for check in (suites.halfspace_laplacian_identity_corrected,
                      suites.halfspace_laplacian_identity_literal_fails)],
}
# sharp --which value -> (entry, default --N)
SHARP = {"hardy": ("hardy sharp", 3), "rellich-r2": ("rellich sharp-r2", 5),
         "anchors": ("sharp anchors", None)}
# the smallest --N of the entries (and curves) that need more than N >= 3
N_MIN = {"rellich check": 5, "rellich sharp-r2": 5, "rellich coeffs": 5,
         "rellich asymptotics": 5, "euclid halfspace-rellich": 5,
         "curve --name s_of_r": 5}

def _coeffs_written(cfg: ToolkitConfig, N: int, n_max: int, out: str):
    """The N, n_max mode table, written to out, and the exact check that
    its minima are the closed forms for every N >= 5 and mode n."""
    path = write_csv(Path(out) / f"mode_coeffs_N{N}.csv", "n,lambda_n,d_n,A_n,B_n",
                     [t.csv_row() for t in rellich.mode_table(N, n_max)])
    print(f"data written to {path}")
    result = suites.mode_coefficient_minima_exact(cfg)
    result.files.append(path.name)
    return result


def _h_lambda_written(cfg: ToolkitConfig, N: int, out: str):
    """The h(lambda) check on one sweep, whose curve is also written to out."""
    curve = quotients.sweep_h_lambda(cfg, N)
    path = write_h_lambda_csv(curve, out)
    print(f"data written to {path}")
    result = suites.h_lambda_endpoints_and_shape(cfg, N, curve)
    result.files.append(path.name)
    return result


def _count(text: str) -> int:
    """An integer >= 0; argparse turns the error into a usage error that
    names the flag."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {value}")
    return value


def _scale(text: str) -> float:
    """A finite number >= 0: an infinite, NaN or negative scale would turn
    every scaled tolerance off or invert it."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number: {text!r}") from None
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text}")
    return value


def _radius(text: str) -> float:
    """A finite number > 0: a truncation radius."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number: {text!r}") from None
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text}")
    return value


def _common_parent() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, default=None,
                        help="flat key-value config file")
    common.add_argument("--seed", type=_count, default=1234,
                        help="seed for randomized suites (>= 0)")
    common.add_argument("--out", type=str, default="out", help="output directory")
    common.add_argument("--tol-scale", type=_scale, default=1.0,
                        help="multiply the [tolerances] keys (margin_rtol, "
                             "identity_rtol) by this factor; fixed check "
                             "criteria are not scaled")
    return common


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process (parse_args leaves it
    unchanged)."""
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
    s = verb(sub, "sharp", "sharp", N=None, help="sharp-constant estimates")
    s.add_argument("--N", type=int, default=None,
                   help="dimension (default 3 for hardy, 5 for rellich-r2)")
    s.add_argument("--which", choices=tuple(SHARP), default="hardy")
    s.add_argument("--rmax", type=_radius, default=None)
    verb(sub, "sweep-lambda", "hardy sweep-lambda", help="h(lambda) curve")
    c = verb(sub, "coeffs", "rellich coeffs", help="per-mode coefficient table")
    c.add_argument("--nmax", type=_count, default=50)
    verb(sub, "asymptotics", "rellich asymptotics",
         help="change-of-variable asymptotics")
    cu = verb(sub, "curve", "curve", help="emit plot data")
    cu.add_argument("--name", choices=("h_lambda", "s_of_r", "convergence"),
                    required=True)

    hsub = sub.add_parser("hardy", help="first-order inequality checks"
                          ).add_subparsers(dest="action", required=True)
    verb(hsub, "check", "hardy check")
    hs = verb(hsub, "sharp", "hardy sharp", N=3)
    hs.add_argument("--rmax", type=_radius, default=None)
    verb(hsub, "sweep-lambda", "hardy sweep-lambda")
    verb(hsub, "iterlog", "hardy iterlog").add_argument("--k", type=_count, default=3)

    rsub = sub.add_parser("rellich", help="second-order inequality checks"
                          ).add_subparsers(dest="action", required=True)
    verb(rsub, "coeffs", "rellich coeffs").add_argument("--nmax", type=_count, default=50)
    verb(rsub, "check", "rellich check")
    verb(rsub, "sharp-r2", "rellich sharp-r2").add_argument("--rmax", type=_radius, default=None)
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
    return _finish(run_suite(args.suite, cfg, command=command), args.out)


def _cmd_curve(args, command: str) -> int:
    path = emit_curve(args.name, args.out, N=args.N, config=_config_from(args))
    print(f"curve written to {path}")
    return 0


def _cmd_checks(args, command: str) -> int:
    cfg = _config_from(args)
    checks = [partial(check, cfg, *inputs) for check, *inputs in CHECKS[args.entry](args, cfg)]
    manifest = suites.run_checks(checks, cfg, command, [args.entry] * len(checks))
    return _finish(manifest, args.out)


def _resolve(args) -> None:
    """Point sharp at the entry its --which names, with that entry's
    default --N, and raise ArgumentError for what argparse cannot judge
    alone: a flag sharp --which anchors does not take, and an --N below
    its entry's minimum (N_MIN, else 3)."""
    if args.entry == "sharp":
        for flag, value in (("--N", args.N), ("--rmax", args.rmax)):
            if value is not None and args.which == "anchors":
                raise ArgumentError(f"argument {flag}: sharp --which anchors takes no {flag}")
        args.entry, default_N = SHARP[args.which]
        if args.N is None:
            args.N = default_N
    N = getattr(args, "N", None)
    if N is not None:
        where = f"curve --name {args.name}" if args.entry == "curve" else args.entry
        minimum = N_MIN.get(where, 3)
        if N < minimum:
            raise ArgumentError(f"argument --N: must be an integer >= {minimum} for "
                                f"{where}, got {N}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    try:
        _resolve(args)
        handler = {"verify": _cmd_verify, "curve": _cmd_curve}.get(args.entry, _cmd_checks)
        return handler(args, " ".join(argv))
    except ArgumentError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

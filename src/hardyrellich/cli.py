"""Command-line driver.

Verbs:
  verify          run a named check suite, write manifest + results CSV
  sharp           sharp-constant estimates (hardy | rellich-r2 | anchors)
  sweep-lambda    h(lambda) curve
  coeffs          per-mode coefficient table
  asymptotics     change-of-variable constants and expansion checks
  curve           emit plot data (h_lambda | s_of_r | convergence)

Module-style groups are also exposed (hardy / rellich / euclid subcommands)
for targeted runs.  Exit code 0 means every executed check passed.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, euclid, hardy, rellich
from .config import ToolkitConfig, default_config, load_config
from .errors import ArgumentError, ToolkitError
from .radial import bump, seeded_bumps
from .reports import ExperimentManifest, emit_curve, format_value, row, write_csv
from .suites import SUITES, run_suite

USAGE_EXIT = 2


def _common_parent() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, default=None,
                        help="flat key-value config file")
    common.add_argument("--seed", type=int, default=1234,
                        help="seed for randomized suites")
    common.add_argument("--out", type=str, default="out", help="output directory")
    common.add_argument("--tol-scale", type=float, default=1.0,
                        help="multiply all tolerances by this factor")
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_parent()
    p = argparse.ArgumentParser(prog="hardyrellich",
                                description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="verb", required=True)

    v = sub.add_parser("verify", parents=[common], help="run a verification suite")
    v.add_argument("--suite", choices=SUITES, default="all")

    s = sub.add_parser("sharp", parents=[common], help="sharp-constant estimates")
    s.add_argument("--which", choices=("hardy", "rellich-r2", "anchors"),
                   default="hardy")
    s.add_argument("--N", type=int, default=3)
    s.add_argument("--rmax", type=float, default=None)

    sw = sub.add_parser("sweep-lambda", parents=[common], help="h(lambda) curve")
    sw.add_argument("--N", type=int, default=5)

    c = sub.add_parser("coeffs", parents=[common], help="per-mode coefficient table")
    c.add_argument("--N", type=int, default=5)
    c.add_argument("--nmax", type=int, default=50)

    a = sub.add_parser("asymptotics", parents=[common],
                       help="change-of-variable asymptotics")
    a.add_argument("--N", type=int, default=5)

    cu = sub.add_parser("curve", parents=[common], help="emit plot data")
    cu.add_argument("--name", choices=("h_lambda", "s_of_r", "convergence"),
                    required=True)
    cu.add_argument("--N", type=int, default=5)

    hd = sub.add_parser("hardy", help="first-order inequality checks")
    hsub = hd.add_subparsers(dest="action", required=True)
    hc = hsub.add_parser("check", parents=[common])
    hc.add_argument("--N", type=int, default=5)
    hs = hsub.add_parser("sharp", parents=[common])
    hs.add_argument("--N", type=int, default=3)
    hs.add_argument("--rmax", type=float, default=100.0)
    hsw = hsub.add_parser("sweep-lambda", parents=[common])
    hsw.add_argument("--N", type=int, default=5)
    hi = hsub.add_parser("iterlog", parents=[common])
    hi.add_argument("--k", type=int, default=3)
    hi.add_argument("--N", type=int, default=5)

    re = sub.add_parser("rellich", help="second-order inequality checks")
    rsub = re.add_subparsers(dest="action", required=True)
    rc = rsub.add_parser("coeffs", parents=[common])
    rc.add_argument("--N", type=int, default=5)
    rc.add_argument("--nmax", type=int, default=50)
    rk = rsub.add_parser("check", parents=[common])
    rk.add_argument("--N", type=int, default=5)
    rs = rsub.add_parser("sharp-r2", parents=[common])
    rs.add_argument("--N", type=int, default=5)
    ra = rsub.add_parser("asymptotics", parents=[common])
    ra.add_argument("--N", type=int, default=5)

    eu = sub.add_parser("euclid", help="ball and half-space checks")
    esub = eu.add_subparsers(dest="action", required=True)
    eb = esub.add_parser("ball-identities", parents=[common])
    eb.add_argument("--N", type=int, default=5)
    eh = esub.add_parser("halfspace-hardy", parents=[common])
    eh.add_argument("--N", type=int, default=3)
    er = esub.add_parser("halfspace-rellich", parents=[common])
    er.add_argument("--N", type=int, default=5)
    er.add_argument("--which", choices=("y2", "y4"), default="y2")
    el = esub.add_parser("laplacian-identity", parents=[common])
    el.add_argument("--N", type=int, default=5)
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


def _manifest_for(args, rows, constants=(), t0: float = 0.0) -> ExperimentManifest:
    cfg = _config_from(args)
    return ExperimentManifest(
        command=" ".join(sys.argv[1:]),
        config_text=cfg.snapshot(),
        seed=cfg.seed,
        results=rows,
        constants=list(constants),
        wall_time_s=time.perf_counter() - t0,
    )


def _config_from(args) -> ToolkitConfig:
    cfg = load_config(args.config) if args.config else default_config()
    cfg.tol_scale = args.tol_scale
    cfg.seed = args.seed
    return cfg


def _cmd_verify(args) -> int:
    cfg = _config_from(args)
    manifest = run_suite(args.suite, cfg, command=" ".join(sys.argv[1:]))
    if args.suite in ("identities", "all"):
        from .suites import residual_report_rows

        write_csv(Path(args.out) / "residuals.csv",
                  "identity,family,N,alpha_or_f,r,residual_rel",
                  residual_report_rows())
    return _finish(manifest, args.out)


def _cmd_sharp(args) -> int:
    t0 = time.perf_counter()
    rows, consts = [], []
    if args.which == "hardy":
        est = hardy.estimate_sharp_hardy(args.N, r_max=args.rmax or 100.0)
        consts.append(est.csv_row("hardy_sharp_radial", args.N))
        ok = est.value >= 0.25 - 1e-3
        rows.append(row("hardy_sharp", est.value, 1e-3, ok))
    elif args.which == "rellich-r2":
        est = rellich.estimate_sharp_rellich_r2(args.N,
                                                r_max=args.rmax or 1e6)
        consts.append(est.csv_row("rellich_sharp_r2_radial", args.N))
        target = (args.N - 1) ** 2 / 8.0
        rows.append(row("rellich_sharp_r2", est.value, 1e-2,
                        est.value >= target - 1e-2))
    else:
        h1 = rellich.one_d_hardy_constant()
        r1 = rellich.one_d_rellich_constant()
        e5 = rellich.euclidean_rellich_constant(5)
        consts += [h1.csv_row("one_d_hardy", 1), r1.csv_row("one_d_rellich", 1),
                   e5.csv_row("euclid_rellich_radial", 5)]
        rows.append(row("one_d_hardy", h1.value, 1e-2, abs(h1.value - 0.25) <= 1e-2))
        rows.append(row("one_d_rellich", r1.value, 1e-2,
                        abs(r1.value - 9 / 16) <= 1e-2))
        rows.append(row("euclid_rellich", e5.value, 5e-2,
                        abs(e5.value - 25 / 16) <= 5e-2))
    return _finish(_manifest_for(args, rows, consts, t0), args.out)


def _cmd_sweep(args) -> int:
    t0 = time.perf_counter()
    N = args.N
    curve = hardy.sweep_h_lambda(N)
    path = write_csv(
        Path(args.out) / f"h_lambda_N{N}.csv",
        "lambda,h",
        [f"{format_value(l)},{format_value(h)}"
         for l, h in zip(curve.lambdas, curve.h_values)],
    )
    ok_ends = (
        abs(curve.h_values[0] / ((N - 2) ** 2 / 4.0) - 1.0) <= 0.02
        and abs(curve.h_values[-1] / 0.25 - 1.0) <= 0.02
    )
    rows = [
        row("h_lambda_endpoints", curve.h_values[-1], 0.02, ok_ends),
        row("h_lambda_nonincreasing", 0.0, 0.0, curve.is_nonincreasing()),
        row("h_lambda_concavity_defect", curve.midpoint_concavity_defect(),
            1e-6, curve.midpoint_concavity_defect() <= 1e-6),
    ]
    print(f"curve written to {path}")
    return _finish(_manifest_for(args, rows, (), t0), args.out)


def _cmd_coeffs(args) -> int:
    t0 = time.perf_counter()
    tab = rellich.mode_table(args.N, args.nmax)
    path = write_csv(
        Path(args.out) / f"mode_coeffs_N{args.N}.csv",
        "n,lambda_n,d_n,A_n,B_n",
        [t.csv_row() for t in tab],
    )
    ok = (
        min(t.sinh4_coeff for t in tab) == rellich.min_sinh4_closed_form(args.N)
        and min(t.sinh2_coeff for t in tab) == rellich.min_sinh2_closed_form(args.N)
    )
    print(f"table written to {path}")
    rows = [row("mode_coeff_minima", float(tab[0].sinh4_coeff), 0.0, ok)]
    return _finish(_manifest_for(args, rows, (), t0), args.out)


def _cmd_asymptotics(args) -> int:
    t0 = time.perf_counter()
    N = args.N
    c = rellich.asymptotic_constants(N)
    errs = rellich.two_term_expansion_error_precise(N, [8.0, 12.0])
    fits = rellich.density_correction_fit(N, np.array([8.0, 10.0, 12.0]))
    worst_fit = float(np.max(np.abs(fits / c.k1 - 1.0)))
    rows = [
        row("asymptotic_consistency_exact", 0.0, 0.0, c.consistency_exact),
        row("two_term_expansion_ratio", errs[1] / errs[0], 0.5,
            errs[1] < 0.5 * errs[0]),
        row("density_correction_within_5pct", worst_fit, 0.05, worst_fit <= 0.05),
    ]
    print(f"c1={format_value(c.c1)} c2={format_value(c.c2)} k1={format_value(c.k1)}")
    return _finish(_manifest_for(args, rows, (), t0), args.out)


def _cmd_curve(args) -> int:
    cfg = _config_from(args)
    path = emit_curve(args.name, args.out, N=args.N, config=cfg)
    print(f"curve written to {path}")
    return 0


def _cmd_hardy(args) -> int:
    t0 = time.perf_counter()
    mtol = _config_from(args).tolerance("margin_rtol")
    rows, consts = [], []
    if args.action == "check":
        worst = np.inf
        for u in seeded_bumps(args.seed, 10, 0.3, 6.0):
            rep = hardy.check_poincare_hardy(u, args.N, nodes=2048)
            worst = min(worst, rep.margin / abs(rep.lhs))
        rows.append(row(f"poincare_hardy_margins(N={args.N})", worst, mtol,
                        worst >= -mtol))
    elif args.action == "sharp":
        est = hardy.estimate_sharp_hardy(args.N, r_max=args.rmax)
        consts.append(est.csv_row("hardy_sharp_radial", args.N))
        rows.append(row("hardy_sharp", est.value, 1e-3, est.value >= 0.25 - 1e-3))
    elif args.action == "sweep-lambda":
        return _cmd_sweep(args)
    else:  # iterlog
        u = bump(0.2, 0.8)
        worst = np.inf
        for k in range(args.k + 1):
            rep = hardy.check_iterated_log_improvement(u, args.N, k)
            worst = min(worst, rep.margin / abs(rep.lhs))
        scan = hardy.iterated_log_optimality_scan(args.N, max(args.k, 1))
        ok = worst >= -mtol and min(scan) >= 0.25 - 1e-3 and all(np.diff(scan) <= 0)
        rows.append(row(f"iterated_log(k<={args.k})", worst, mtol, ok))
    return _finish(_manifest_for(args, rows, consts, t0), args.out)


def _cmd_rellich(args) -> int:
    t0 = time.perf_counter()
    rows, consts = [], []
    if args.action == "coeffs":
        return _cmd_coeffs(args)
    if args.action == "asymptotics":
        return _cmd_asymptotics(args)
    if args.action == "check":
        mtol = _config_from(args).tolerance("margin_rtol")
        worst = np.inf
        for u in seeded_bumps(args.seed, 10, 0.3, 6.0):
            rep = rellich.check_poincare_rellich(u, args.N, nodes=2048)
            worst = min(worst, rep.margin / abs(rep.lhs))
        rows.append(row(f"poincare_rellich_margins(N={args.N})", worst, mtol,
                        worst >= -mtol))
    else:  # sharp-r2
        est = rellich.estimate_sharp_rellich_r2(args.N)
        consts.append(est.csv_row("rellich_sharp_r2_radial", args.N))
        target = (args.N - 1) ** 2 / 8.0
        rows.append(row("rellich_sharp_r2", est.value, 1e-2,
                        est.value >= target - 1e-2))
    return _finish(_manifest_for(args, rows, consts, t0), args.out)


def _cmd_euclid(args) -> int:
    t0 = time.perf_counter()
    rows = []
    if args.action == "ball-identities":
        worst = 0.0
        for u in seeded_bumps(args.seed, 5, 0.4, 3.0):
            for which in ("gradient", "l2", "hardy"):
                worst = max(worst, euclid.ball_identity_check(u, args.N, which))
        rows.append(row(f"ball_identities(N={args.N})", worst, 1e-6, worst <= 1e-6))
    elif args.action == "halfspace-hardy":
        v = euclid.tensor_bump(1.0, 0.5, 2.0)
        rep = euclid.check_halfspace_hardy(v, args.N)
        rows.append(row("halfspace_hardy_margin", rep.margin / abs(rep.lhs),
                        1e-8, rep.passed))
    elif args.action == "halfspace-rellich":
        v = euclid.tensor_bump(1.0, 0.5, 2.0)
        rep = euclid.check_halfspace_rellich(v, args.N, args.which)
        rows.append(row(f"halfspace_rellich_{args.which}_margin",
                        rep.margin / abs(rep.lhs), 1e-8, rep.passed))
    else:  # laplacian-identity
        worst = 0.0
        literal = 0.0
        for v in euclid.POLYNOMIAL_SUITE:
            for alpha in (0.0, 0.8, (args.N - 2) / 2.0, 2.5):
                for p in [(0.7, 2.0), (1.5, 0.8), (0.3, 3.0)]:
                    worst = max(worst, euclid.halfspace_laplacian_identity_residual(
                        v, alpha, p, args.N, corrected=True))
                    literal = max(literal, euclid.halfspace_laplacian_identity_residual(
                        v, alpha, p, args.N, corrected=False))
        rows.append(row("halfspace_laplacian_identity_corrected", worst, 1e-10,
                        worst <= 1e-10))
        rows.append(row("halfspace_laplacian_identity_literal_fails", literal,
                        1e-6, literal > 1e-6))
    return _finish(_manifest_for(args, rows, (), t0), args.out)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    handlers = {
        "verify": _cmd_verify,
        "sharp": _cmd_sharp,
        "sweep-lambda": _cmd_sweep,
        "coeffs": _cmd_coeffs,
        "asymptotics": _cmd_asymptotics,
        "curve": _cmd_curve,
        "hardy": _cmd_hardy,
        "rellich": _cmd_rellich,
        "euclid": _cmd_euclid,
    }
    try:
        return handlers[args.verb](args)
    except ArgumentError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

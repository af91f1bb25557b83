"""Experiment manifests, CSV emission, and curve exports.

A manifest holds one CheckRow per check, in run order; each row carries the
constants.csv and residuals.csv rows its check produced.  Every value is
printed with 17 significant digits; results.csv is sorted by check name,
constants.csv by row, and residuals.csv keeps run order, so identical
config + seed reproduces the CSV files byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, quotients, rellich
from .config import ToolkitConfig
from .errors import ArgumentError


# the data CSVs that verbs write beside their manifest, by file name pattern
DATA_CSVS = ("mode_coeffs_N*.csv", "h_lambda_N*.csv")


def format_value(x: float) -> str:
    return f"{float(x):.17g}"


@dataclass
class CheckRow:
    name: str
    status: str  # "pass" | "fail"
    value: float
    tolerance: float
    # margin rows: the largest quad_error / |lhs| of their reports, written
    # to manifest.json only (results.csv keeps its four columns)
    quad_error_rel: float | None = None
    # the constants.csv and residuals.csv rows of the check, written to
    # those files only
    constants: list[str] = field(default_factory=list)
    residuals: list[str] = field(default_factory=list)
    # the names of the data CSVs (DATA_CSVS) the check wrote beside the
    # manifest, which ExperimentManifest.write keeps
    files: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def row(name: str, value: float, tolerance: float, ok: bool,
        constants=(), residuals=()) -> CheckRow:
    return CheckRow(name, "pass" if ok else "fail", float(value), float(tolerance),
                    constants=list(constants), residuals=list(residuals))


@dataclass
class ExperimentManifest:
    command: str
    config_text: str
    seed: int
    results: list[CheckRow] = field(default_factory=list)  # in run order
    wall_time_s: float = 0.0
    # (check, suite, seconds) in run order; written to manifest.json only,
    # so the CSVs stay byte-identical across runs
    check_seconds: list[tuple[str, str, float]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def exit_code(self) -> int:
        return 0 if self.passed else 1

    def suite_seconds(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for _, suite, t in self.check_seconds:
            totals[suite] = totals.get(suite, 0.0) + t
        return totals

    def sorted_results(self) -> list[CheckRow]:
        return sorted(self.results, key=lambda r: r.name)

    @property
    def constants(self) -> list[str]:
        """The constants.csv rows of every check, sorted."""
        return sorted(c for r in self.results for c in r.constants)

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "config": self.config_text,
            "seed": self.seed,
            "version": __version__,
            "wall_time_s": self.wall_time_s,
            "check_seconds": [
                {"check": name, "suite": suite, "seconds": t}
                for name, suite, t in self.check_seconds
            ],
            "suite_seconds": self.suite_seconds(),
            "passed": self.passed,
            # the CSV rows a CheckRow carries stay out of the JSON
            "results": [{key: getattr(r, key) for key in
                         ("name", "status", "value", "tolerance", "quad_error_rel")}
                        for r in self.sorted_results()],
            "constants": self.constants,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def write(self, outdir: str | Path) -> tuple[Path, Path]:
        """Write manifest.json and results.csv, and constants.csv and
        residuals.csv when the checks produced rows for them, deleting
        either of the two that they did not, and every data CSV (DATA_CSVS)
        that no check of this manifest wrote; returns the paths of the
        first two.

        Manifests are written even when checks fail; only the exit code
        reports failure.
        """
        out = Path(outdir)
        out.mkdir(parents=True, exist_ok=True)
        manifest_path = out / "manifest.json"
        manifest_path.write_text(self.to_json() + "\n", encoding="utf-8")
        csv_path = out / "results.csv"
        lines = ["check,status,value,tolerance"]
        for r in self.sorted_results():
            lines.append(
                f"{r.name},{r.status},{format_value(r.value)},{format_value(r.tolerance)}"
            )
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        # an earlier run into the same directory may have left any of the
        # files below
        constants = self.constants
        if constants:
            const_lines = ["constant_name,N,r_min,r_max,M,value", *constants]
            (out / "constants.csv").write_text("\n".join(const_lines) + "\n",
                                               encoding="utf-8")
        else:
            (out / "constants.csv").unlink(missing_ok=True)
        residuals = [line for r in self.results for line in r.residuals]
        if residuals:
            write_csv(out / "residuals.csv", "identity,family,N,alpha_or_f,r,residual_rel",
                      residuals)
        else:
            (out / "residuals.csv").unlink(missing_ok=True)
        written = {name for r in self.results for name in r.files}
        for pattern in DATA_CSVS:
            for path in out.glob(pattern):
                if path.name not in written:
                    path.unlink()
        return manifest_path, csv_path


def write_csv(path: str | Path, header: str, rows: list[str]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    return path


def write_h_lambda_csv(curve, outdir: str | Path) -> Path:
    """Write rows (lambda, h) of an h(lambda) curve to h_lambda_N<N>.csv."""
    rows = [
        f"{format_value(lam)},{format_value(h)}"
        for lam, h in zip(curve.lambdas, curve.h_values)
    ]
    return write_csv(Path(outdir) / f"h_lambda_N{curve.N}.csv", "lambda,h", rows)


def emit_curve(name: str, outdir: str | Path, N: int = 5,
               config: ToolkitConfig | None = None) -> Path:
    """Write plot data for one named curve; returns the CSV path.

    h_lambda      rows (lambda, h)
    s_of_r        rows (r, s, two_term_prediction, rel_err)
    convergence   rows (M, estimate) of the hardy_sharp_radial refinement
    """
    config = config or ToolkitConfig()
    out = Path(outdir)
    if name == "h_lambda":
        return write_h_lambda_csv(quotients.sweep_h_lambda(config, N), out)
    if name == "s_of_r":
        r = np.linspace(0.5, 14.0, 28)
        s = rellich.s_of_r(N, r)
        pred = rellich.two_term_prediction(N, r)
        rows = [
            f"{format_value(ri)},{format_value(si)},{format_value(pi)},"
            f"{format_value(abs(si - pi) / si)}"
            for ri, si, pi in zip(r, s, pred)
        ]
        return write_csv(out / f"s_of_r_N{N}.csv",
                         "r,s,two_term_prediction,rel_err", rows)
    if name == "convergence":
        est = quotients.estimate("hardy_sharp_radial", N, config)
        rows = [f"{m},{format_value(v)}" for m, v in est.history]
        return write_csv(out / f"convergence_hardy_sharp_N{N}.csv",
                         "M,estimate", rows)
    raise ArgumentError(f"unknown curve {name!r}")

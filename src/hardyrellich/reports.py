"""Experiment manifests, CSV emission, and curve exports.

Every value is printed with 17 significant digits and rows are sorted by
check name before writing, so identical config + seed reproduces the CSV
files byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .config import ToolkitConfig
from .errors import ArgumentError


def format_value(x: float) -> str:
    return f"{float(x):.17g}"


@dataclass
class CheckRow:
    name: str
    status: str  # "pass" | "fail"
    value: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def row(name: str, value: float, tolerance: float, ok: bool) -> CheckRow:
    return CheckRow(name, "pass" if ok else "fail", float(value), float(tolerance))


@dataclass
class ExperimentManifest:
    command: str
    config_text: str
    seed: int
    version: str = __version__
    results: list[CheckRow] = field(default_factory=list)
    constants: list[str] = field(default_factory=list)  # constant CSV rows
    wall_time_s: float = 0.0

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def exit_code(self) -> int:
        return 0 if self.passed else 1

    def sorted_results(self) -> list[CheckRow]:
        return sorted(self.results, key=lambda r: r.name)

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "config": self.config_text,
            "seed": self.seed,
            "version": self.version,
            "wall_time_s": self.wall_time_s,
            "passed": self.passed,
            "results": [asdict(r) for r in self.sorted_results()],
            "constants": sorted(self.constants),
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def write(self, outdir: str | Path) -> tuple[Path, Path]:
        """Write manifest.json and results.csv; returns their paths.

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
        if self.constants:
            const_path = out / "constants.csv"
            const_lines = ["constant_name,N,r_min,r_max,M,value"]
            const_lines.extend(sorted(self.constants))
            const_path.write_text("\n".join(const_lines) + "\n", encoding="utf-8")
        return manifest_path, csv_path


def write_csv(path: str | Path, header: str, rows: list[str]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    return path


def h_lambda_curve(config: ToolkitConfig, N: int):
    """The h(lambda) curve described by the [hardy] sweep_* keys."""
    from . import hardy

    return hardy.sweep_h_lambda(
        N,
        lambdas=np.linspace(0.0, (N - 1) ** 2 / 4.0,
                            config.get_int("hardy", "sweep_points")),
        r_min=config.get_float("hardy", "sweep_r_min"),
        r_max=config.get_float("hardy", "sweep_r_max"),
        M=config.get_int("hardy", "sweep_M"),
    )


def emit_curve(name: str, outdir: str | Path, N: int = 5,
               config: ToolkitConfig | None = None) -> Path:
    """Write plot data for one named curve; returns the CSV path.

    h_lambda      rows (lambda, h)
    s_of_r        rows (r, s, two_term_prediction, rel_err)
    convergence   rows (M, estimate) of the Hardy sharp-constant refinement
    """
    from . import hardy, rellich

    config = config or ToolkitConfig()
    out = Path(outdir)
    if name == "h_lambda":
        curve = h_lambda_curve(config, N)
        rows = [
            f"{format_value(lam)},{format_value(h)}"
            for lam, h in zip(curve.lambdas, curve.h_values)
        ]
        return write_csv(out / f"h_lambda_N{N}.csv", "lambda,h", rows)
    if name == "s_of_r":
        consts = rellich.asymptotic_constants(N)
        mu = (N - 1) / (N - 2)
        nu = (N - 3) / (N - 2)
        r = np.linspace(0.5, 14.0, 28)
        s = rellich.change_of_variable(N).s_of_r(r)
        pred = consts.c1 * np.exp(mu * r) - consts.c2 * np.exp(-nu * r)
        rows = [
            f"{format_value(ri)},{format_value(si)},{format_value(pi)},"
            f"{format_value(abs(si - pi) / si)}"
            for ri, si, pi in zip(r, s, pred)
        ]
        return write_csv(out / f"s_of_r_N{N}.csv",
                         "r,s,two_term_prediction,rel_err", rows)
    if name == "convergence":
        est = hardy.estimate_sharp_hardy(
            N,
            r_min=config.get_float("grids", "r_min"),
            r_max=config.get_float("grids", "r_max"),
            M=config.get_int("grids", "M"),
        )
        rows = [f"{m},{format_value(v)}" for m, v in est.history]
        return write_csv(out / f"convergence_hardy_sharp_N{N}.csv",
                         "M,estimate", rows)
    raise ArgumentError(f"unknown curve {name!r}")

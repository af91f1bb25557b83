"""Flat key-value configuration (INI sections, no nesting) and defaults.

The [tolerances] keys are the relative tolerances that margin and
identity rows are judged against; --tol-scale multiplies them and nothing
else.  Fixed criteria (sharp-constant windows, exact counts) stay with
their checks in suites.py.  Unknown sections and keys are rejected.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field

from .errors import ArgumentError

DEFAULTS: dict[str, dict[str, str]] = {
    "grids": {
        "r_min": "1e-6",
        "r_max": "100.0",
        "M": "8192",
    },
    "tolerances": {
        "margin_rtol": "1e-8",
        "identity_rtol": "1e-8",
    },
    "hardy": {
        "sweep_points": "17",
        "sweep_r_min": "1e-9",
        "sweep_r_max": "1e26",
        "sweep_M": "4096",
        "bump_count": "10",
        "iterlog_k": "3",
    },
    "rellich": {
        "sharp_r_min": "1e-3",
        "sharp_r_max": "1e6",
        "sharp_M": "8192",
    },
}


@dataclass
class ToolkitConfig:
    sections: dict[str, dict[str, str]] = field(default_factory=dict)
    tol_scale: float = 1.0
    seed: int = 1234

    def get(self, section: str, key: str) -> str:
        if section in self.sections and key in self.sections[section]:
            return self.sections[section][key]
        return DEFAULTS[section][key]

    def get_float(self, section: str, key: str) -> float:
        return float(self.get(section, key))

    def get_int(self, section: str, key: str) -> int:
        return int(float(self.get(section, key)))

    def tolerance(self, key: str) -> float:
        return self.get_float("tolerances", key) * self.tol_scale

    def snapshot(self) -> str:
        """Canonical flat text of the effective configuration."""
        parser = configparser.ConfigParser()
        parser.optionxform = str  # keys are case-sensitive (M vs m)
        for section, entries in DEFAULTS.items():
            parser[section] = dict(entries)
            for key, val in self.sections.get(section, {}).items():
                parser[section][key] = val
        buf = io.StringIO()
        parser.write(buf)
        return buf.getvalue()


def default_config() -> ToolkitConfig:
    return ToolkitConfig(sections={})


def load_config(path: str) -> ToolkitConfig:
    """Parse a config file; malformed input raises ArgumentError carrying
    the offending line number."""
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keys are case-sensitive (M vs m)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        lineno = getattr(exc, "lineno", None)
        if lineno is None and getattr(exc, "errors", None):
            lineno = exc.errors[0][0]
        where = f" (line {lineno})" if lineno else ""
        raise ArgumentError(f"config parse failure in {path}{where}: {exc.message if hasattr(exc, 'message') else exc}") from exc
    sections = {name: dict(parser[name]) for name in parser.sections()}
    unknown_sections = set(sections) - set(DEFAULTS)
    if unknown_sections:
        raise ArgumentError(
            f"config has unknown sections: {sorted(unknown_sections)}"
        )
    for section, entries in sections.items():
        unknown = set(entries) - set(DEFAULTS[section])
        if unknown:
            raise ArgumentError(
                f"config section [{section}] has unknown keys: {sorted(unknown)}"
            )
    return ToolkitConfig(sections=sections)

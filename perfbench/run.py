#!/usr/bin/env python3
"""Benchmark harness for hardyrellich.

    python3 perfbench/run.py --workload verify_all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Drives the package from outside, in this one process: the CLI through
``hardyrellich.cli.main`` and the sharp-constant estimators through the
library.  The seed reaches the program only as ``--seed``.

``--trace 0`` times whole passes (the program's thread pool as shipped,
no instrumentation) and prints the end-to-end metrics.  ``--trace 1``
runs rounds of one pooled, one serial and one serial traced pass and
prints the per-layer metrics; see README.md in this directory.

Every run also checks the outputs: each check row passes, every CSV is
byte-identical across passes with the same seed, and every eigenvalue
the program computed matches an independent reference (reference.py,
untimed).  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.  Exit code 0 means a result was
printed; 2 means the package source is missing or the arguments are bad.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import layers  # stdlib-only, like tracer; numpy loads after the BLAS cap is set
from tracer import Patcher, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 5
MIN_PASSES = 3
# A computed eigenvalue further than this (relative) from the reference
# fails the run.  The check tolerances on the reported constants are
# 1e-3 to 5e-2; the seed's worst gap is 4.4e-4 (pentadiagonal, n = 32764).
EIG_GATE = 1e-3

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")]


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Call:
    """One CLI verb or library call inside a pass and what it produced."""

    label: str
    outdir: Path | None = None
    exit_code: int = 0
    error: str = ""
    rows: list[tuple[str, str]] = field(default_factory=list)  # (check, status)
    csv: dict[str, bytes] = field(default_factory=dict)


def run_cli(cli, label: str, argv: list[str], outdir: Path) -> Call:
    call = Call(label, outdir)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            call.exit_code = cli.main([*argv, "--out", str(outdir)])
    except Exception:  # a crash is a failed call, not a harness failure
        call.exit_code = -1
        call.error = traceback.format_exc(limit=3)
    return call


def collect_cli(call: Call, expected_rows: int) -> list[str]:
    """Read back a CLI call's CSVs (after the timer stopped)."""
    problems = []
    for path in sorted(call.outdir.glob("*.csv")):
        call.csv[path.name] = path.read_bytes()
    lines = call.csv.get("results.csv", b"").decode().splitlines()[1:]
    # check names may hold commas; status, value and tolerance never do
    call.rows = [tuple(line.rsplit(",", 3)[:2]) for line in lines]
    if len(call.rows) < expected_rows:
        problems.append(f"{call.label}: {len(call.rows)} check rows, "
                        f"expected at least {expected_rows}")
    return problems


class VerifyAll:
    """``hardyrellich verify --suite all``: the full 43-check certificate."""

    name = "verify_all"
    verbs = [(("verify", "--suite", "all"), 43)]

    def run_pass(self, mods, seed: int, outdir: Path) -> list[Call]:
        return [run_cli(mods.cli, " ".join(v), [*v, "--seed", str(seed)],
                        outdir / str(i)) for i, (v, _) in enumerate(self.verbs)]

    def collect(self, calls: list[Call]) -> list[str]:
        return [p for call, (_, rows) in zip(calls, self.verbs)
                for p in collect_cli(call, rows)]


class QuadratureChecks(VerifyAll):
    """The CLI verbs that never assemble a pencil."""

    name = "quadrature_checks"
    verbs = [
        (("verify", "--suite", "euclid"), 7),
        (("verify", "--suite", "identities"), 14),
        (("verify", "--suite", "asymptotics"), 5),
        (("hardy", "check"), 1),
        (("rellich", "check"), 1),
        (("hardy", "iterlog"), 1),
        (("rellich", "coeffs"), 1),
        (("euclid", "halfspace-hardy"), 1),
        (("euclid", "halfspace-rellich", "--which", "y2"), 1),
        (("euclid", "halfspace-rellich", "--which", "y4"), 1),
    ]


class SharpLargeM:
    """The sharp-constant estimators at M = 32768 with their built-in
    M/4, M/2, M refinement.  The problem has no random input, so the seed
    is not used."""

    name = "sharp_large_M"
    M = 32768

    def run_pass(self, mods, seed: int, outdir: Path) -> list[Call]:
        jobs = [
            ("hardy_sharp_radial", 3, 0.25 - 1e-3,
             lambda: mods.hardy.estimate_sharp_hardy(3, M=self.M)),
            ("rellich_sharp_r2_radial", 5, 2.0 - 1e-2,
             lambda: mods.rellich.estimate_sharp_rellich_r2(5, M=self.M)),
        ]
        calls = []
        for label, N, floor, job in jobs:
            call = Call(label)
            try:
                est = job()
            except Exception:
                call.exit_code = -1
                call.error = traceback.format_exc(limit=3)
            else:
                # the pass criterion of the CLI's own ``sharp`` verbs
                call.rows = [(label, "pass" if est.value >= floor else "fail")]
                history = "".join(f"{m},{v:.17g}\n" for m, v in est.history)
                call.csv[f"{label}.csv"] = (est.csv_row(label, N) + "\n" + history).encode()
            calls.append(call)
        return calls

    def collect(self, calls: list[Call]) -> list[str]:
        return []


WORKLOADS = {w.name: w for w in (VerifyAll(), SharpLargeM(), QuadratureChecks())}


# ---------------------------------------------------------------------------
# measurement


class Modules:
    """The package modules the harness drives (imported after set-up)."""

    def __init__(self) -> None:
        sys.path.insert(0, str(SRC))
        from hardyrellich import cli, hardy, pencils, rellich

        self.cli, self.hardy, self.pencils, self.rellich = cli, hardy, pencils, rellich
        # program-side caches are emptied before every pass, so each pass
        # costs what one fresh CLI invocation costs
        self.caches = [obj for m in layers.package_modules()
                       for obj in vars(m).values() if hasattr(obj, "cache_clear")]


def measure_setup() -> list[float]:
    """Seconds from a clean interpreter to ``hardyrellich.cli`` imported."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import hardyrellich.cli"],
                       env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return times


@contextlib.contextmanager
def serial_suites(mods):
    """Run ``verify`` suites on the calling thread (workers=1)."""
    with Patcher() as patch:
        run = mods.cli.run_suite
        patch.set(mods.cli, "run_suite", lambda *a, **kw: run(*a, **kw, workers=1))
        yield


@contextlib.contextmanager
def record_solves(mods, solves: list):
    """Keep (pencil, value) of every smallest_eigenvalue call."""
    original = mods.pencils.smallest_eigenvalue

    def recorded(pencil, *args, **kwargs):
        value = original(pencil, *args, **kwargs)
        solves.append((pencil, value))
        return value

    with Patcher() as patch:
        patch.rebind(layers.package_modules(), original, recorded)
        yield


@dataclass
class Tally:
    walls: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    first_csv: dict[str, bytes] | None = None
    csv_diffs: dict[str, str] = field(default_factory=dict)  # file -> first change


def timed_pass(mods, workload, seed: int, outdir: Path, tally: Tally, kind: str) -> None:
    for cache in mods.caches:
        cache.cache_clear()
    gc.collect()
    t0 = time.perf_counter()
    calls = workload.run_pass(mods, seed, outdir)
    tally.walls.setdefault(kind, []).append(time.perf_counter() - t0)

    tally.problems += workload.collect(calls)
    csv = {}
    for i, call in enumerate(calls):
        failed_rows = sum(1 for _, status in call.rows if status != "pass")
        tally.attempted += max(len(call.rows), 1)
        tally.failed += failed_rows or (1 if call.exit_code != 0 else 0)
        if call.exit_code != 0:
            tally.problems.append(f"{call.label}: exit {call.exit_code} {call.error}".strip())
        for name, data in call.csv.items():
            csv[f"{i}/{name}"] = data
    if tally.first_csv is None:
        tally.first_csv = csv
    else:
        for name in sorted(set(csv) | set(tally.first_csv)):
            old, new = tally.first_csv.get(name, b""), csv.get(name, b"")
            if old != new and name not in tally.csv_diffs:
                tally.csv_diffs[name] = first_change(old, new)


def first_change(old: bytes, new: bytes) -> str:
    a, b = old.decode().splitlines(), new.decode().splitlines()
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return f"line {i + 1}: {x!r} -> {y!r}"
    return f"{len(a)} lines -> {len(b)} lines"


def check_solves(solves: list) -> tuple[dict[int, float], list[dict], list[str]]:
    """Compare every recorded eigenvalue with the reference (untimed)."""
    from reference import CROSS_RTOL, reference

    worst: dict[int, float] = {}
    detail, problems = [], []
    for pencil, value in solves:
        ref = reference(pencil.a_bands, pencil.b_diag)
        rel = abs(value - ref.value) / abs(ref.value)
        bw = pencil.bandwidth
        worst[bw] = max(worst.get(bw, 0.0), rel)
        detail.append({"bw": bw, "n": pencil.size, "value": value, "reference": ref.value,
                       "lanczos": ref.lanczos, "rel_err": rel, "cross_rel": ref.cross_rel})
        if ref.cross_rel > CROSS_RTOL:
            problems.append(f"reference unreliable on bw={bw} n={pencil.size}: "
                            f"bisection and Lanczos differ by {ref.cross_rel:.2e}")
        if rel > EIG_GATE:
            problems.append(f"eigenvalue off by {rel:.2e} on bw={bw} n={pencil.size}")
    return worst, detail, problems


def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    def blas(config) -> str:
        info = config.CONFIG["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "numpy_blas": blas(numpy.__config__),
        "scipy_blas": blas(scipy.__config__),
        "blas_threads_cap": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "machine": platform.machine(),
    }


def tail_percentile(samples: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    return {"percentile": 100.0 * (n - 10) / n, "value": sorted(samples)[n - 11]}


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    import selftest

    problems = [f"self-test: {p}" for p in selftest.run()]
    setup = [] if trace else measure_setup()
    mods = Modules()
    rundir = OUT / f"{workload.name}-s{seed}-t{int(trace)}"
    shutil.rmtree(rundir, ignore_errors=True)
    tally = Tally()
    solves: list = []
    tracer = Tracer()
    n = 0

    def next_dir() -> Path:
        nonlocal n
        n += 1
        return rundir / f"pass{n}"

    start = time.perf_counter()
    if not trace:
        while True:
            ctx = record_solves(mods, solves) if n == 0 else contextlib.nullcontext()
            with ctx:
                timed_pass(mods, workload, seed, next_dir(), tally, "pooled")
            walls = tally.walls["pooled"]
            elapsed = time.perf_counter() - start
            if len(walls) >= MIN_PASSES and elapsed + statistics.median(walls) > seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        while True:
            timed_pass(mods, workload, seed, next_dir(), tally, "pooled")
            with serial_suites(mods):
                timed_pass(mods, workload, seed, next_dir(), tally, "serial")
            first = "traced" not in tally.walls
            with tracer:
                layers.instrument(tracer)
                ctx = record_solves(mods, solves) if first else contextlib.nullcontext()
                with serial_suites(mods), ctx:
                    timed_pass(mods, workload, seed, next_dir(), tally, "traced")
            elapsed = time.perf_counter() - start
            rounds = len(tally.walls["traced"])
            if elapsed * (rounds + 1) / rounds > seconds:
                break

    rel_err, solve_detail, eig_problems = check_solves(solves)
    problems += eig_problems + tally.problems
    if tally.csv_diffs:
        problems += [f"{name} differs between passes: {change}"
                     for name, change in tally.csv_diffs.items()]
    shutil.rmtree(rundir, ignore_errors=True)

    med = {kind: statistics.median(w) for kind, w in tally.walls.items()}
    if trace:
        values = layers.per_layer(tracer, len(tally.walls["traced"]), med["traced"],
                                  rel_err, med["serial"], med["pooled"])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in layers.PER_LAYER}
    else:
        values = {"setup_s": statistics.median(setup), "wall_s": med["pooled"],
                  "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    checks_total = tally.attempted
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": environment(),
        "setup_samples_s": setup,
        "wall_samples_s": tally.walls,
        "wall_tail": {k: tail_percentile(w) for k, w in tally.walls.items()},
        "checks": {"attempted": checks_total, "failed": tally.failed,
                   "failed_share": tally.failed / checks_total if checks_total else 1.0,
                   "csv_repro_diffs": len(tally.csv_diffs),
                   "eig_rel_err_max": max(rel_err.values(), default=0.0),
                   "eig_solves_checked": len(solve_detail)},
        "solves": solve_detail,
        "problems": problems,
        "result": {
            "correct": not problems and tally.failed == 0,
            "attempted": checks_total,
            "failed": tally.failed,
            "metrics": metrics,
        },
    }


def describe(record: dict) -> str:
    """Human-readable lines for one workload run."""
    c = record["checks"]
    lines = [f"== {record['workload']} seed={record['seed']} trace={record['trace']}"]
    for kind, walls in record["wall_samples_s"].items():
        lines.append(f"   {kind} passes: {len(walls)}, median "
                     f"{statistics.median(walls):.4f} s")
    for name, m in record["result"]["metrics"].items():
        lines.append(f"   {name:36s} {m['value']:.6g} {m['unit']}")
    lines.append(f"   checks passed {c['attempted'] - c['failed']}/{c['attempted']}, "
                 f"failed_share {c['failed_share']:.6g}, csv_repro_diffs "
                 f"{c['csv_repro_diffs']}, eig_rel_err_max {c['eig_rel_err_max']:.3g} "
                 f"over {c['eig_solves_checked']} solves")
    lines += [f"   PROBLEM {p}" for p in record["problems"]]
    return "\n".join(lines)


def run_all(args) -> int:
    """Every workload in its own process (peak RSS is per process)."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": m for w, r in results.items()
                    for k, m in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "hardyrellich" / "__init__.py").is_file():
        print(f"package source not found under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(NPROC)
    if args.workload == "all":
        return run_all(args)

    record = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace))
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    print(describe(record))
    print(json.dumps({"env": record["env"]}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

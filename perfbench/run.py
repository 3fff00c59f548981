"""Benchmark command for the reduce -> solve -> regret pipeline.

    python3 perfbench/run.py --workload hull-year --seed 1 --seconds 30 --trace 0

Runs one workload (see ``workloads.py`` and README.md) against the package
in ``src/`` of the checkout this file sits in.  Without tracing it prints
every end-to-end metric; with ``--trace 1`` it also runs one traced round
and prints the per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

import time

STARTED = time.perf_counter()  # setup_s counts every import below

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "repblend"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("hull-year", "regret-sweep", "p2x-blend")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1,
                        help="drives the dataset generator and the clustering seeds; "
                             "1 gives the test fixtures' datasets")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="run timed passes until this much body time has been "
                             "measured (at least one pass per instance)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def cap_threads() -> int:
    """Cap BLAS/OpenMP thread pools at the usable cores (set before numpy
    is imported; the OpenBLAS build may allow far more threads than cores)."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for name in BLAS_ENV:
        current = os.environ.get(name, "")
        if not current.isdigit() or not 0 < int(current) <= nproc:
            os.environ[name] = str(nproc)
    return nproc


def source_digest() -> str:
    import hashlib

    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        digest.update(path.relative_to(PACKAGE).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str:
    """HEAD of the checkout, or "unknown" when the checkout is not itself the
    top of a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT.resolve():
        return "unknown"
    return lines[1]


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {name: os.environ[name] for name in BLAS_ENV},
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "machine": platform.machine(),
    }


def load_package() -> int:
    """Cap thread pools and import the checkout's package; returns the core
    count.  Exits with code 2 when the checkout has no package."""
    if not (PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no package at {PACKAGE.relative_to(ROOT)}; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    nproc = cap_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import repblend

    if Path(repblend.__file__).resolve().parent != PACKAGE.resolve():
        print(f"perfbench: imported repblend from {repblend.__file__}, not the checkout",
              file=sys.stderr)
        sys.exit(2)
    return nproc


def execute(workload, seed: int, seconds: float, trace: bool, nproc: int,
            imports_s: float) -> tuple[list[str], dict]:
    """Run one workload; returns the report lines and the result object."""
    import spans
    import workloads

    build_dir = ROOT / ".bench_build"
    build_dir.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="perfbench-", dir=build_dir))
    try:
        result = workloads.run(workload, seed, seconds, trace, scratch)
        layers = spans.layer_metrics(result.tracer) if result.tracer else {}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    ops = result.ops
    failed = sum(1 for op in ops if op.failures)
    proj_err = [x for p in result.first_round for x in p.proj_err]
    regret = [x for p in result.first_round for x in p.regret]
    end_to_end = {
        "setup_s": (imports_s + statistics.median(i.setup_seconds for i in result.instances), "s"),
        "total_s": (result.total_seconds(), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "proj_err_mean": (statistics.fmean(proj_err) if proj_err else 0.0, "unitless"),
    }
    report_only = {"ops": (len(ops), "count"), "ops_failed": (failed, "count")}
    if regret:
        report_only["regret_pct_mean"] = (statistics.fmean(regret), "%")
    if result.traced:
        layers["trace.overhead_s"] = (sum(p.seconds for p in result.traced)
                                      - sum(p.seconds for p in result.first_round), "s")

    lines = [
        f"perfbench {workload.name}: seed={seed} trace={int(trace)} "
        f"instances={len(result.instances)} passes={len(result.passes)}",
        "env " + json.dumps(environment(nproc), sort_keys=True),
        "instances " + json.dumps([{"rng_seed": i.rng_seed, "setup_s": i.setup_seconds}
                                   for i in result.instances]),
        "pass_s " + json.dumps([[j, p.seconds] for j, p in result.passes]),
    ]
    lines += [f"note: {note}" for i in result.instances for note in i.notes]
    lines += [f"check {op.label}: " + ("ok" if not op.failures else "FAIL " + "; ".join(op.failures))
              for op in ops]
    absent = spans.absent_metrics(result.tracer, layers) if result.tracer else []
    if absent:
        lines.append("absent (reported as 0): " + ", ".join(absent)
                     + "; unwrapped: " + ", ".join(result.tracer.absent))
    for name, (value, unit) in {**end_to_end, **report_only, **layers}.items():
        lines.append(f"metric {name} = {value!r} {unit}" + (" (absent)" if name in absent else ""))

    shown = layers if trace else end_to_end
    return lines, {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in shown.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = load_package()
    import workloads

    imports_s = time.perf_counter() - STARTED
    lines, final = execute(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                           bool(args.trace), nproc, imports_s)
    print("\n".join(lines))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

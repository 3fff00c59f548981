"""Fast self-test of the benchmark at toy sizes (gep 12x6, p2x 6x4).

    python3 perfbench/selftest.py

Checks that the benchmark's generators write the same bytes as the test
suite's fixtures at the default seeds, that every workload at toy size
passes all its output checks, prints every end-to-end metric of
``BENCHMARK.json`` with its unit, that a traced run yields every per-layer
metric (or marks it absent), and that the command fails without printing a
result in a directory that holds only the benchmark.  Exits 0 when all of
that holds.
Needs the repository's ``tests/conftest.py`` for the byte comparison.
"""

from __future__ import annotations

import filecmp
import importlib.util
import json
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import run

TOY_SIZES = {"gep": (12, 6), "p2x": (6, 4)}


def toy_workloads() -> dict:
    """Every workload at its dataset's toy size, with n_rp capped at a
    third of the periods."""
    import workloads

    out = {}
    for name, workload in workloads.WORKLOADS.items():
        periods, hours = TOY_SIZES[workload.dataset]
        configs = tuple((m, w, min(k, max(2, periods // 3))) for m, w, k in workload.configs)
        out[name] = replace(workload, periods=periods, hours=hours, configs=configs)
    return out


def check_generators(failures: list[str]):
    import generators
    import workloads

    spec = importlib.util.spec_from_file_location("fixture_conftest",
                                                  run.ROOT / "tests" / "conftest.py")
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    with tempfile.TemporaryDirectory(dir=run.ROOT / ".bench_build") as tmp:
        tmp = Path(tmp)
        pairs = [(conftest.make_synthetic_gep, generators.make_gep, TOY_SIZES["gep"]),
                 (conftest.make_synthetic_p2x, generators.make_p2x, TOY_SIZES["p2x"])]
        pairs += [(conftest.make_synthetic_gep if w.dataset == "gep" else conftest.make_synthetic_p2x,
                   generators.make_gep if w.dataset == "gep" else generators.make_p2x,
                   (w.periods, w.hours)) for w in workloads.WORKLOADS.values()]
        for i, (fixture, ours, (periods, hours)) in enumerate(pairs):
            a = fixture(tmp / f"fixture{i}", periods, hours)
            b = ours(tmp / f"ours{i}", periods, hours)
            names = sorted(p.name for p in a.iterdir())
            match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
            if mismatch or errors or names != sorted(p.name for p in b.iterdir()):
                failures.append(f"{fixture.__name__} {periods}x{hours}: files differ "
                                f"{mismatch + errors}")


def check_workloads(failures: list[str], nproc: int):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    names = {w["name"] for w in spec["workloads"]}
    toys = toy_workloads()
    if not names == set(toys) == set(run.WORKLOAD_NAMES):
        failures.append(f"workloads differ: BENCHMARK.json {sorted(names)}, workloads.py "
                        f"{sorted(toys)}, run.py {sorted(run.WORKLOAD_NAMES)}")
    for name, workload in toys.items():
        for trace in (0, 1):
            lines, final = run.execute(workload, 1, 0.01, bool(trace), nproc, 0.0)
            where = f"{name} trace={trace}"
            if not final["correct"] or final["failed"] or final["attempted"] < 1:
                failures.append(f"{where}: checks failed: "
                                + " | ".join(x for x in lines if "FAIL" in x))
            if any(x.startswith("note:") for x in lines):
                failures.append(f"{where}: " + " | ".join(x for x in lines if x.startswith("note:")))
            got = {k: v["unit"] for k, v in final["metrics"].items()}
            if got != wanted[trace]:
                failures.append(f"{where}: metrics {sorted(got.items())} "
                                f"!= {sorted(wanted[trace].items())}")
            for metric, unit in wanted[trace].items():
                if not any(x.startswith(f"metric {metric} = ") and
                           x.split(" (absent)")[0].endswith(f" {unit}") for x in lines):
                    failures.append(f"{where}: no printed line for {metric} [{unit}]")
            if trace:
                layers = final["metrics"]
                if name == "regret-sweep" and (layers["weights.pgd_calls"]["value"]
                                               or layers["clustering.hull_distance_calls"]["value"]):
                    failures.append(f"{where}: hull or PGD ran on hard assignments")
                if name != "regret-sweep" and layers["weights.rows_at_optimum_ratio"]["value"] <= 0:
                    failures.append(f"{where}: no fitted row reached the exact optimum")
            print(f"ok {where}" if not failures else f"after {where}: {len(failures)} failures",
                  flush=True)


def check_bare_directory(failures: list[str]):
    """The command fails, printing no result, next to BENCHMARK.json and the
    benchmark's own files alone."""
    with tempfile.TemporaryDirectory(dir=run.ROOT / ".bench_build") as tmp:
        tmp = Path(tmp)
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.HERE, tmp / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload",
                              "hull-year", "--seed", "1", "--seconds", "1", "--trace", "0"],
                             cwd=tmp, capture_output=True, text=True, timeout=180)
        if out.returncode == 0 or '"correct"' in out.stdout:
            failures.append(f"bare directory: exit {out.returncode}, stdout {out.stdout!r}")


def main() -> int:
    started = time.perf_counter()
    nproc = run.load_package()
    (run.ROOT / ".bench_build").mkdir(exist_ok=True)
    failures: list[str] = []
    check_bare_directory(failures)
    check_generators(failures)
    check_workloads(failures, nproc)
    for failure in failures:
        print("FAIL " + failure)
    print(f"selftest: {'FAILED' if failures else 'passed'} "
          f"in {time.perf_counter() - started:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

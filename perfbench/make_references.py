"""Record the reference full-model objective and LP-file digest per seed.

    python3 perfbench/make_references.py --seeds 0-31

For every evaluating workload (and the self-test's toy sizes) and every seed
this builds and solves the full model exactly as the benchmark's set-up does,
writes its LP file, and stores the objective, the LP sha256 and its size in
``references.json``, keyed by dataset size and generator seed.  Existing
entries are kept unless ``--force`` is given.  Run it
only when the model formulation or the LP format is meant to change, and say
so in the change that updates the file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1", help="e.g. 0-31 or 1,5,7")
    parser.add_argument("--force", action="store_true", help="recompute existing entries")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import repblend as rb
    import selftest
    import workloads

    targets = [w for w in workloads.WORKLOADS.values() if w.evaluate]
    targets += [w for w in selftest.toy_workloads().values() if w.evaluate]
    refs = workloads.load_references()
    build_dir = ROOT / ".bench_build"
    build_dir.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="references-", dir=build_dir))
    try:
        for seed in parse_seeds(args.seeds):
            for workload in targets:
                for i in range(workloads.INSTANCES):
                    rng_seed = workloads.generator_seed(workload.dataset, seed, i)
                    key = workloads.reference_key(workload, rng_seed)
                    if key in refs and not args.force:
                        continue
                    inst = workloads.setup_instance(workload, rng_seed, scratch / key)
                    lp_path = scratch / f"{key}.lp"
                    rb.write_lp_file(inst.full_model, lp_path)
                    data = lp_path.read_bytes()
                    refs[key] = {
                        "objective_full": inst.full_solution.objective,
                        "lp_sha256": hashlib.sha256(data).hexdigest(),
                        "lp_bytes": len(data),
                    }
                    print(key, refs[key], flush=True)
                    workloads.REFERENCES_FILE.write_text(
                        json.dumps(dict(sorted(refs.items())), indent=1) + "\n",
                        encoding="utf-8")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

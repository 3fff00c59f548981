"""Put one BENCH file together from one standard output of ``perfbench/run.py``.

    python3 perfbench/run.py --workload hull-year --seed 1 --seconds 30 --trace 1 > run.txt
    python3 studies/bench_file.py run.txt \\
        --command "python3 perfbench/run.py --workload hull-year --seed 1 --seconds 30 --trace 1" \\
        --out studies/BENCH_hull-year_seed1_trace1.json

The JSON object holds the command line, the ``env`` object, the
``instances`` and ``pass_s`` lists, every ``metric`` line as
``{"value", "unit"}`` (with the names the run marked absent listed under
``absent``) and the final result object.  A line of a kind ``run.py`` does
not print, or a missing one, exits 1 naming the line, so a change to
``run.py``'s line format fails here, not in the next reader of the file.
"""

import argparse
import json
import re
import sys
from pathlib import Path

HEADER = re.compile(r"perfbench \S+: seed=\d+ trace=[01] instances=\d+ passes=\d+")
METRIC = re.compile(r"metric (\S+) = (\S+) (\S+)( \(absent\))?")
NUMBER = re.compile(r"-?\d+")
JSON_LINES = ("env", "instances", "pass_s")  # "<name> <JSON>", once each
SKIPPED = ("note: ", "check ", "absent (reported as 0): ")  # the result object has the checks
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _json(text: str, number: int):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"line {number}: not JSON: {exc}") from None


def assemble(lines: list[str], command: str) -> dict:
    """The BENCH object of one ``run.py`` output, ``lines`` without line
    ends; ValueError names the first line that does not fit."""
    if not lines or not HEADER.fullmatch(lines[0]):
        raise ValueError("line 1: not a perfbench header")
    found, metrics, absent = {}, {}, []
    for number, line in enumerate(lines[1:-1], start=2):
        name, _, text = line.partition(" ")
        if name in JSON_LINES:
            if name in found:
                raise ValueError(f"line {number}: second {name} line")
            found[name] = _json(text, number)
        elif match := METRIC.fullmatch(line):
            metric, value, unit, marked = match.groups()
            value = int(value) if NUMBER.fullmatch(value) else float(value)
            metrics[metric] = {"value": value, "unit": unit}
            if marked:
                absent.append(metric)
        elif not line.startswith(SKIPPED):
            raise ValueError(f"line {number}: unknown line {line[:60]!r}")
    missing = [name for name in JSON_LINES if name not in found] + ([] if metrics else ["metric"])
    if missing:
        raise ValueError(f"no {', '.join(missing)} line")
    result = _json(lines[-1], len(lines))
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        raise ValueError(f"line {len(lines)}: not a result object of {sorted(RESULT_KEYS)}")
    return {"command": command, **{name: found[name] for name in JSON_LINES},
            "metrics": metrics, "absent": absent, "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("stdout", type=Path, help="one standard output of perfbench/run.py")
    parser.add_argument("--command", required=True, help="the command line that printed it")
    parser.add_argument("--out", type=Path, help="the BENCH file (default: standard output)")
    args = parser.parse_args(argv)
    try:
        bench = assemble(args.stdout.read_text(encoding="utf-8").splitlines(), args.command)
    except ValueError as exc:
        print(f"bench_file: {args.stdout}: {exc}", file=sys.stderr)
        return 1
    text = json.dumps(bench, indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The BENCH file assembler, ``studies/bench_file.py``, on a small
``perfbench/run.py`` output in the format ``run.py`` prints."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_file", Path(__file__).resolve().parents[1] / "studies" / "bench_file.py")
bench_file = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_file)

RESULT = {"correct": True, "attempted": 2, "failed": 0,
          "metrics": {"total_s": {"value": 0.5, "unit": "s"}}}
STDOUT = [
    "perfbench hull-year: seed=1 trace=1 instances=2 passes=3",
    'env {"nproc": 2, "python": "3.11.7"}',
    'instances [{"rng_seed": 73, "setup_s": 0.25}, {"rng_seed": 1073, "setup_s": 0.5}]',
    "pass_s [[0, 0.125], [1, 0.25], [0, 0.375]]",
    "note: no reference for gep; reference checks skipped",
    "check hull+conic k=8 seed=1 rng=73: ok",
    "absent (reported as 0): clustering.pgd_s; unwrapped: none",
    "metric total_s = 0.5 s",
    "metric ops = 2 count",
    "metric clustering.pgd_s = 0.0 s (absent)",
    json.dumps(RESULT),
]


def test_every_part_kept(tmp_path):
    stdout = tmp_path / "run.txt"
    stdout.write_text("\n".join(STDOUT) + "\n")
    out = tmp_path / "BENCH.json"
    assert bench_file.main([str(stdout), "--command", "run it", "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == {
        "command": "run it",
        "env": {"nproc": 2, "python": "3.11.7"},
        "instances": [{"rng_seed": 73, "setup_s": 0.25}, {"rng_seed": 1073, "setup_s": 0.5}],
        "pass_s": [[0, 0.125], [1, 0.25], [0, 0.375]],
        "metrics": {"total_s": {"value": 0.5, "unit": "s"},
                    "ops": {"value": 2, "unit": "count"},
                    "clustering.pgd_s": {"value": 0.0, "unit": "s"}},
        "absent": ["clustering.pgd_s"],
        "result": RESULT,
    }


@pytest.mark.parametrize("index,line,error", [
    (0, "perfbench hull-year seed=1", "line 1: not a perfbench header"),
    (3, None, "no pass_s line"),
    (3, 'env {"nproc": 2}', "line 4: second env line"),
    (2, "instances [", "line 3: not JSON"),
    (7, "metric total_s: 0.5 s", "line 8: unknown line 'metric total_s: 0.5 s'"),
    (10, json.dumps({**RESULT, "extra": 1}), "line 11: not a result object"),
], ids=["header", "missing", "repeated", "json", "metric", "result"])
def test_changed_line_format_refused(tmp_path, capsys, index, line, error):
    lines = list(STDOUT)
    if line is None:
        del lines[index]
    else:
        lines[index] = line
    with pytest.raises(ValueError, match=f"^{error}"):
        bench_file.assemble(lines, "run it")
    stdout = tmp_path / "run.txt"
    stdout.write_text("\n".join(lines) + "\n")
    assert bench_file.main([str(stdout), "--command", "run it"]) == 1
    assert capsys.readouterr().err.startswith(f"bench_file: {stdout}: {error}")

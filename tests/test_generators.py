"""The synthetic datasets' bytes, pinned.

Every regret and hull number of the tests and of the benchmark comes from
the writers in ``perfbench/generators.py``; a change to what they write must
show here before it shows as a moved number anywhere else.
"""

import hashlib

import pytest

import workloads
from generators import make_gep, make_p2x

WRITERS = {"gep": make_gep, "p2x": make_p2x}

# (dataset, periods, hours) -> sha256 over each file's name and bytes, files
# sorted by name, at the default generator seeds (73 for gep, 37 for p2x)
DIGESTS = {
    # the gep fixture
    ("gep", 12, 6): "08c53658a041351cd3b8f817eb345009c76de4664ddc3cd52473ba25908f3b52",
    # the single-hour inter-period ramp case
    ("gep", 12, 1): "ba36046a115f9b9ba47e902c1dfb6be950ce7e8ed2a0439b7d27aaf5188ed82c",
    # criterion 10's determinism case
    ("gep", 8, 4): "a0346a7427d708f7b79d137902682d874e3db8d09bc888e2fb4be0445838155d",
    # hull-year and the nesting test
    ("gep", 52, 24): "fa226c4a25d4a0d84374fd28491098c50a20d0e31c5136eee42c44e5b556291e",
    # regret-sweep and the nesting test
    ("gep", 52, 12): "f474401cc73eef4c01d98686c9d36226f97884e521da74d69ba5ec46b4ce3f45",
    # the p2x fixture
    ("p2x", 6, 4): "7eaa023d7acc9cd0a1d37591bf2a82d290675874d2bb60d833237ea532a9fbea",
    # p2x-blend and the nesting test
    ("p2x", 52, 24): "269166c2d1730f647b34340d49ac3a90b13d3bac0279ba187a3fbb87b5a77e38",
}


def dataset_digest(root) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.iterdir(), key=lambda p: p.name):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("size", list(DIGESTS), ids=lambda s: f"{s[0]}-{s[1]}x{s[2]}")
def test_generator_bytes(tmp_path, size):
    dataset, periods, hours = size
    root = WRITERS[dataset](tmp_path / dataset, periods, hours)
    assert dataset_digest(root) == DIGESTS[size]


def test_every_workload_size_is_pinned():
    sizes = {(w.dataset, w.periods, w.hours) for w in workloads.WORKLOADS.values()}
    assert sizes <= set(DIGESTS)

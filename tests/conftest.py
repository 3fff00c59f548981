"""Shared fixtures: the static mini-gep dataset and generated synthetic
systems (a 3-node gep case with seasonal storage and a small 2-carrier p2x
case), written by the benchmark's generators (``perfbench/generators.py``,
on the test path through ``pyproject.toml``'s pytest ``pythonpath``)."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from generators import make_gep, make_p2x

FIXTURES = Path(__file__).parent / "fixtures"


def make_synthetic_gep(root: Path, num_periods: int = 12, hours: int = 6) -> Path:
    """The gep fixture's dataset: ``make_gep`` at seed 73, 12x6 by default."""
    return make_gep(root, num_periods, hours)


def make_synthetic_p2x(root: Path, num_periods: int = 6, hours: int = 4) -> Path:
    """The p2x fixture's dataset: ``make_p2x`` at seed 37, 6x4 by default."""
    return make_p2x(root, num_periods, hours)


def make_system(D=2, H=2, nodes=("n1",), carriers=("el",), assets=(), lines=(),
                demand=None, availability=None, inflow=None, mode="gep",
                timestep_hours=1.0, hours_per_year=None):
    """In-memory system with dense all-0.5 demand unless overridden."""
    from repblend.data import EnergySystem, Horizon

    nodes = sorted(nodes)
    carriers = sorted(carriers)
    peak = {(n, x): 10.0 for n in nodes for x in carriers}
    if demand is None:
        demand = {key: np.full((D, H), 0.5) for key in peak}
    assets = sorted(assets, key=lambda a: a.name)
    return EnergySystem(
        horizon=Horizon(D, H, timestep_hours=timestep_hours, hours_per_year=hours_per_year),
        mode=mode,
        nodes=list(nodes),
        carriers=list(carriers),
        assets=list(assets),
        lines=list(lines),
        peak_demand={key: peak[key] for key in demand},
        demand=demand,
        availability=availability or {},
        inflow=inflow or {},
        storage_min={a.name: np.zeros(D) for a in assets if a.is_seasonal},
        storage_max={a.name: np.ones(D) for a in assets if a.is_seasonal},
    )


def period_reps(system, idx):
    """The base periods ``idx`` (0-based) as representatives: the
    ``extract_rep_profiles`` of a selection of those periods."""
    from repblend.clustering import RepSelection
    from repblend.data import build_clustering_matrix, extract_rep_profiles

    cm = build_clustering_matrix(system)
    idx = np.asarray(idx, dtype=int)
    selection = RepSelection(cm.values[:, idx], source_indices=idx)
    return extract_rep_profiles(system, selection, cm)


def face_instances(offsets):
    """Ten generic 8x5 representative matrices R, each with a point on a face
    of their convex hull (weights ``w_face``, one of them zero) and C, whose
    columns are that point moved by each of ``offsets`` along a unit normal
    to the hull's affine span: at that distance from the hull, with the face
    point still the nearest point of the hull."""
    for seed in range(10):
        rng = np.random.default_rng(seed)
        R = rng.uniform(0, 1, (8, 5))
        w_face = rng.dirichlet(np.ones(5))
        w_face[rng.integers(5)] = 0.0
        w_face /= w_face.sum()
        basis, _ = np.linalg.qr(R[:, 1:] - R[:, :1], mode="complete")
        normal = basis[:, 4:] @ rng.normal(size=4)
        normal /= np.linalg.norm(normal)
        yield R, w_face, (R @ w_face)[:, None] + np.outer(normal, offsets)


def value(model, solution, name: str) -> float:
    """The optimal value of ``model``'s column ``name`` in ``solution``."""
    return float(solution.x[model.var_names.index(name)])


def producer(name, node="n1", **kwargs):
    from repblend.data import Asset

    kwargs.setdefault("carrier_out", "el")
    return Asset(name=name, node=node, kind="producer", **kwargs)


@pytest.fixture(scope="session")
def mini_gep_path() -> Path:
    return FIXTURES / "mini-gep"


@pytest.fixture(scope="session")
def synthetic_gep_path(tmp_path_factory) -> Path:
    return make_synthetic_gep(tmp_path_factory.mktemp("data") / "synth-gep")


@pytest.fixture(scope="session")
def synthetic_p2x_path(tmp_path_factory) -> Path:
    return make_synthetic_p2x(tmp_path_factory.mktemp("data") / "synth-p2x")


@pytest.fixture()
def pinned_models(tmp_path, mini_gep_path, synthetic_gep_path, synthetic_p2x_path):
    """The models whose LP bytes ``TestWriteLpFile.PINNED`` pins, by label.
    The one-hour gep dataset lives in a directory named ``one-hour``: the
    model name, the LP file's first line, is made from it."""
    from repblend.clustering import greedy_hull
    from repblend.data import build_clustering_matrix, extract_rep_profiles, load_system
    from repblend.model import build_full_model, build_model, fix_decisions
    from repblend.solve import solve
    from repblend.weights import fit_weights

    gep = load_system(synthetic_gep_path)
    cm = build_clustering_matrix(gep)
    selection = greedy_hull(cm.values, 3, "conic")
    weights = fit_weights(selection.rep_matrix, cm.values, "conic")
    p2x_full = build_full_model(load_system(synthetic_p2x_path))
    return {
        "mini-gep full": build_full_model(load_system(mini_gep_path)),
        "gep full": build_full_model(gep),
        "gep hull+conic k=3": build_model(gep, extract_rep_profiles(gep, selection, cm), weights),
        "p2x full": p2x_full,
        "p2x self-fixed": fix_decisions(p2x_full, p2x_full, solve(p2x_full)),
        "gep 12x1 full": build_full_model(load_system(make_gep(tmp_path / "one-hour", 12, 1))),
    }

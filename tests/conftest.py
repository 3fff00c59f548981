"""Shared fixtures: the static mini-gep dataset and generated synthetic
systems (a 3-node gep case with seasonal storage and a small 2-carrier p2x
case)."""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np
import pytest

FIXTURES = Path(__file__).parent / "fixtures"

ASSET_COLUMNS = [
    "name", "node", "kind", "carrier_in", "carrier_out", "investable",
    "unit_capacity", "existing_units", "inv_cost", "var_cost", "eff_in",
    "eff_out", "ramp", "storage_cap", "inflow_max", "spill_cost",
    "borrow_cost", "initial_storage",
]

LINE_COLUMNS = ["name", "from_node", "to_node", "carrier", "import_limit", "export_limit"]


def write_dataset(root: Path, config: dict, assets: list[dict], lines: list[dict],
                  demand: dict, availability: dict, inflow: dict,
                  storage_bounds: list[tuple] | None = None):
    """Write a dataset directory from in-memory tables.

    demand maps (node, carrier) -> (D, H) array; availability and inflow map
    asset name -> (D, H) array.
    """
    root.mkdir(parents=True, exist_ok=True)
    (root / "config.json").write_text(json.dumps(config, indent=1), encoding="utf-8")

    with open(root / "assets.csv", "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=ASSET_COLUMNS)
        writer.writeheader()
        for row in assets:
            writer.writerow({**{c: "" for c in ASSET_COLUMNS}, **row})
    with open(root / "lines.csv", "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=LINE_COLUMNS)
        writer.writeheader()
        for row in lines:
            writer.writerow(row)

    def dump_hourly(path, key_columns, table, key_as_tuple):
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(list(key_columns) + ["period", "hour", "value"])
            for key in sorted(table):
                arr = table[key]
                key_cells = list(key) if key_as_tuple else [key]
                for d in range(arr.shape[0]):
                    for h in range(arr.shape[1]):
                        writer.writerow(key_cells + [d + 1, h + 1, repr(float(arr[d, h]))])

    dump_hourly(root / "demand.csv", ("node", "carrier"), demand, True)
    dump_hourly(root / "availability.csv", ("asset",), availability, False)
    dump_hourly(root / "inflows.csv", ("asset",), inflow, False)
    if storage_bounds is not None:
        with open(root / "storage_bounds.csv", "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["asset", "period", "min_frac", "max_frac"])
            for row in storage_bounds:
                writer.writerow(row)


def _clip01(arr):
    return np.clip(arr, 0.0, 1.0)


def make_synthetic_gep(root: Path, num_periods: int = 12, hours: int = 6):
    """3-node generation-expansion system with renewables, a battery, a
    seasonal reservoir with inflows, lines and ramp limits.

    Every node carries a non-investable fallback producer sized to its peak,
    so any investment decision leaves the full model feasible.
    """
    D, H = num_periods, hours
    rng = np.random.default_rng(73)
    t = np.arange(D)[:, None]
    h = np.arange(H)[None, :]
    season = 0.5 + 0.5 * np.cos(2 * np.pi * t / D)
    diurnal = 0.55 + 0.45 * np.sin(np.pi * h / max(H - 1, 1))
    # two scarcity periods: peak demand coinciding with a renewable drought,
    # the kind of extreme that drives the investment decision
    spikes = [d for d in (D // 4, (3 * D) // 4) if d < D]

    peaks = {"n1": 100.0, "n2": 80.0, "n3": 60.0}
    demand = {}
    for i, node in enumerate(sorted(peaks)):
        noise = 0.05 * rng.standard_normal((D, H))
        profile = _clip01(0.30 + 0.30 * diurnal + 0.18 * season + noise)
        profile[spikes, :] = _clip01(0.93 + 0.05 * rng.standard_normal((len(spikes), H)))
        demand[(node, "el")] = profile

    wind = _clip01(0.45 + 0.40 * np.cos(2 * np.pi * (t + 3) / D)
                   + 0.12 * rng.standard_normal((D, H)))
    wind[spikes, :] = _clip01(0.04 + 0.02 * rng.standard_normal((len(spikes), H)))
    solar = _clip01((0.9 - 0.5 * season) * (diurnal - 0.5) * 2.0
                    + 0.08 * rng.standard_normal((D, H)))
    solar[spikes, :] = _clip01(0.1 * solar[spikes, :])
    melt = np.exp(-((t - 4.0) ** 2) / 4.0) * np.ones((1, H))
    inflow = _clip01(melt + 0.05 * rng.standard_normal((D, H)))

    config = {
        "horizon": {"num_periods": D, "hours_per_period": H,
                    "timestep_hours": 1.0, "hours_per_year": 8760},
        "mode": "gep",
        "nodes": ["n1", "n2", "n3"],
        "carriers": ["el"],
        "peak_demand": {node: {"el": value} for node, value in peaks.items()},
    }
    assets = [
        dict(name="fossil_n1", node="n1", kind="producer", carrier_out="el",
             investable="false", unit_capacity=10, existing_units=10, var_cost=220),
        dict(name="fossil_n2", node="n2", kind="producer", carrier_out="el",
             investable="false", unit_capacity=10, existing_units=8, var_cost=220),
        dict(name="fossil_n3", node="n3", kind="producer", carrier_out="el",
             investable="false", unit_capacity=10, existing_units=6, var_cost=220),
        dict(name="gas_n1", node="n1", kind="producer", carrier_out="el",
             investable="true", unit_capacity=10, inv_cost=20000, var_cost=45, ramp=0.5),
        dict(name="wind_n1", node="n1", kind="producer", carrier_out="el",
             investable="true", unit_capacity=5, inv_cost=65000, var_cost=0, ramp=0.8),
        dict(name="solar_n2", node="n2", kind="producer", carrier_out="el",
             investable="true", unit_capacity=5, inv_cost=45000, var_cost=0),
        dict(name="battery_n2", node="n2", kind="storage_short", carrier_out="el",
             investable="false", unit_capacity=10, existing_units=2,
             eff_in=0.95, eff_out=0.95, storage_cap=40),
        dict(name="reservoir_n3", node="n3", kind="storage_seasonal", carrier_out="el",
             investable="false", unit_capacity=8, existing_units=3,
             eff_in=1.0, eff_out=0.9, storage_cap=200, inflow_max=15,
             spill_cost=5, borrow_cost=150, initial_storage=0),
    ]
    lines = [
        dict(name="l12", from_node="n1", to_node="n2", carrier="el",
             import_limit=40, export_limit=40),
        dict(name="l13", from_node="n1", to_node="n3", carrier="el",
             import_limit=30, export_limit=30),
        dict(name="l23", from_node="n2", to_node="n3", carrier="el",
             import_limit=30, export_limit=30),
    ]
    availability = {"wind_n1": wind, "solar_n2": solar}
    inflows = {"reservoir_n3": inflow}
    write_dataset(root, config, assets, lines, demand, availability, inflows)
    return root


def make_synthetic_p2x(root: Path, num_periods: int = 6, hours: int = 4):
    """2-node power-and-hydrogen dispatch system: fixed capacities, an
    electrolyzer coupling the carriers, a battery and a seasonal reservoir."""
    D, H = num_periods, hours
    rng = np.random.default_rng(37)
    t = np.arange(D)[:, None]
    h = np.arange(H)[None, :]
    season = 0.5 + 0.5 * np.cos(2 * np.pi * t / D)
    diurnal = 0.5 + 0.5 * np.sin(np.pi * h / max(H - 1, 1))

    demand = {
        ("n1", "el"): _clip01(0.4 + 0.3 * diurnal + 0.2 * season
                              + 0.05 * rng.standard_normal((D, H))),
        ("n2", "el"): _clip01(0.45 + 0.25 * diurnal + 0.15 * season
                              + 0.05 * rng.standard_normal((D, H))),
        ("n1", "h2"): _clip01(0.6 + 0.2 * season + 0.05 * rng.standard_normal((D, H))),
    }
    wind = _clip01(0.5 + 0.4 * np.cos(2 * np.pi * (t + 2) / D)
                   + 0.12 * rng.standard_normal((D, H)))
    inflow = _clip01(np.exp(-((t - 2.0) ** 2) / 2.0) * np.ones((1, H))
                     + 0.05 * rng.standard_normal((D, H)))

    config = {
        "horizon": {"num_periods": D, "hours_per_period": H,
                    "timestep_hours": 1.0, "hours_per_year": 8760},
        "mode": "p2x",
        "nodes": ["n1", "n2"],
        "carriers": ["el", "h2"],
        "peak_demand": {"n1": {"el": 50.0, "h2": 20.0}, "n2": {"el": 40.0}},
    }
    assets = [
        dict(name="fossil_n1", node="n1", kind="producer", carrier_out="el",
             investable="false", unit_capacity=10, existing_units=9, var_cost=80),
        dict(name="fossil_n2", node="n2", kind="producer", carrier_out="el",
             investable="false", unit_capacity=10, existing_units=5, var_cost=80),
        dict(name="wind_n2", node="n2", kind="producer", carrier_out="el",
             investable="false", unit_capacity=10, existing_units=6, var_cost=0),
        dict(name="smr_n1", node="n1", kind="producer", carrier_out="h2",
             investable="false", unit_capacity=5, existing_units=5, var_cost=120),
        dict(name="electrolyzer_n1", node="n1", kind="conversion",
             carrier_in="el", carrier_out="h2", investable="false",
             unit_capacity=10, existing_units=3, eff_in=1.0, eff_out=0.7),
        dict(name="battery_n1", node="n1", kind="storage_short", carrier_out="el",
             investable="false", unit_capacity=8, existing_units=2,
             eff_in=0.95, eff_out=0.95, storage_cap=30),
        dict(name="reservoir_n2", node="n2", kind="storage_seasonal", carrier_out="el",
             investable="false", unit_capacity=10, existing_units=3,
             eff_in=1.0, eff_out=0.9, storage_cap=150, inflow_max=12,
             spill_cost=4, borrow_cost=200, initial_storage=0),
    ]
    lines = [
        dict(name="l12", from_node="n1", to_node="n2", carrier="el",
             import_limit=25, export_limit=25),
    ]
    availability = {"wind_n2": wind}
    inflows = {"reservoir_n2": inflow}
    write_dataset(root, config, assets, lines, demand, availability, inflows)
    return root


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

"""Unit tests for system loading, validation and the clustering matrix."""

import csv
import json
import math
import shutil

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from repblend.cli import main
from repblend.clustering import RepSelection, kmeans
from repblend.data import (
    MAX_TIMESTEPS,
    Asset,
    DataError,
    Horizon,
    build_clustering_matrix,
    extract_rep_profiles,
    load_system,
    require_valid,
    validate_profiles,
)

from repblend.harness import cluster_matrix
from repblend.model import build_full_model
from repblend.solve import solve

from conftest import make_system, period_reps, producer
from generators import write_dataset
from oracles import period_profiles, read_hourly_rows


class TestHorizon:
    def test_operational_weight(self):
        hz = Horizon(num_periods=1, hours_per_period=2, timestep_hours=1.0, hours_per_year=2)
        assert hz.operational_weight == 1.0
        assert hz.num_timesteps == 2

    def test_defaults_to_model_span(self):
        hz = Horizon(num_periods=4, hours_per_period=6)
        assert hz.hours_per_year == 24.0
        assert hz.operational_weight == 1.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            Horizon(0, 2)
        with pytest.raises(ValueError):
            Horizon(1, 1, timestep_hours=0.0)


def _config(change):
    """An edit of a config.json file: ``change`` applied to its object."""
    def edit(path):
        cfg = json.loads(path.read_text())
        change(cfg)
        path.write_text(json.dumps(cfg, indent=1))
    return edit


def _first_row(**cells):
    """An edit of a CSV file that sets cells of its first data row."""
    return lambda path: _edit_first_row(path, lambda header, row: [
        cells.get(column, cell) for column, cell in zip(header, row)])


def _text(text):
    """An edit that writes ``text`` as the whole file."""
    return lambda path: path.write_text(text)


class TestLoadSystem:
    def test_mini_gep_counts(self, mini_gep_path):
        system = load_system(mini_gep_path)
        assert len(system.nodes) == 1
        assert len(system.carriers) == 1
        assert len(system.producers) == 1
        assert len(system.lines) == 0
        assert system.mode == "gep"
        assert system.horizon.operational_weight == 1.0
        g1 = next(a for a in system.assets if a.name == "g1")
        assert g1.investable and g1.inv_cost == 10.0 and g1.var_cost == 1.0
        assert g1.ramp is None  # blank means unlimited

    def test_missing_config(self, tmp_path):
        with pytest.raises(DataError) as raised:
            load_system(tmp_path)
        assert str(raised.value) == f"{tmp_path / 'config.json'}: file not found"

    def test_line_from_a_node_to_itself_rejected(self, dataset_with):
        # its flow would enter and leave the same balance row
        root = dataset_with("lines.csv")
        with open(root / "lines.csv", "a", encoding="utf-8") as handle:
            handle.write("loop,n1,n1,el,10,10\n")  # after the header and three lines
        with pytest.raises(DataError) as raised:
            load_system(root)
        assert str(raised.value) == "lines.csv:5: line 'loop' connects node 'n1' to itself"

    def test_unknown_node_reference(self, tmp_path, mini_gep_path):
        import shutil

        root = tmp_path / "bad"
        shutil.copytree(mini_gep_path, root)
        assets = (root / "assets.csv").read_text().replace("g1,n1", "g1,ZZ")
        (root / "assets.csv").write_text(assets)
        with pytest.raises(DataError, match=r"assets.csv:2.*unknown node 'ZZ'"):
            load_system(root)

    def test_synthetic_roundtrip(self, synthetic_gep_path):
        system = load_system(synthetic_gep_path)
        assert len(system.nodes) == 3
        assert len(system.assets) == 8
        assert len(system.lines) == 3
        assert next(a for a in system.assets if a.name == "reservoir_n3").has_inflows
        assert validate_profiles(system) == []

    def test_bad_efficiency(self, tmp_path):
        write_dataset(
            tmp_path, _tiny_config(), [dict(name="s1", node="n1", kind="storage_short",
                                            carrier_out="el", eff_in=0, eff_out=1)],
            [], {("n1", "el"): np.full((1, 1), 0.5)}, {}, {})
        with pytest.raises(DataError, match=r"assets.csv:2.*efficiencies"):
            load_system(tmp_path)

    def test_spill_cost_needs_inflows(self, tmp_path):
        write_dataset(
            tmp_path, _tiny_config(), [dict(name="g", node="n1", kind="producer",
                                            carrier_out="el", spill_cost=3)],
            [], {("n1", "el"): np.full((1, 1), 0.5)}, {}, {})
        with pytest.raises(DataError, match="spill/borrow"):
            load_system(tmp_path)

    def test_inflow_for_non_seasonal_rejected(self, tmp_path):
        write_dataset(
            tmp_path, _tiny_config(), [dict(name="b", node="n1", kind="storage_short",
                                            carrier_out="el", storage_cap=5)],
            [], {("n1", "el"): np.full((1, 1), 0.5)}, {},
            {"b": np.full((1, 1), 0.5)})
        with pytest.raises(DataError, match="non-seasonal"):
            load_system(tmp_path)

    def test_duplicate_profile_cell(self, tmp_path):
        write_dataset(tmp_path, _tiny_config(), [], [],
                      {("n1", "el"): np.full((1, 1), 0.5)}, {}, {})
        with open(tmp_path / "demand.csv", "a") as handle:
            handle.write("n1,el,1,1,0.7\n")
        with pytest.raises(DataError, match=r"demand.csv:3.*duplicate cell"):
            load_system(tmp_path)

    def test_malformed_config_sections(self, tmp_path, mini_gep_path):
        import json
        import shutil

        root = tmp_path / "bad"
        shutil.copytree(mini_gep_path, root)
        cfg = json.loads((root / "config.json").read_text())
        cfg["peak_demand"] = [["n1", "el", 2.0]]
        (root / "config.json").write_text(json.dumps(cfg))
        with pytest.raises(DataError, match="peak_demand"):
            load_system(root)
        cfg["peak_demand"] = {"n1": {"el": 2.0}}
        cfg["horizon"] = 12
        (root / "config.json").write_text(json.dumps(cfg))
        with pytest.raises(DataError, match="horizon"):
            load_system(root)

    @pytest.mark.parametrize("key,value,match", [
        ("nodes", 5, "must be a list"),
        ("carriers", 0.0, "must be a list"),
        ("peak_demand", {"n1": {"el": [1, 2]}}, "must be a number"),
        ("horizon", {"num_periods": 1, "hours_per_period": None}, "bad horizon"),
        ("horizon", {"num_periods": 1, "hours_per_period": 2,
                     "timestep_hours": {"a": 1}}, "bad horizon"),
        ("horizon", {"num_periods": 1.9, "hours_per_period": 2},
         "^config.json: bad horizon: num_periods must be a whole number, got 1.9$"),
        ("horizon", {"num_periods": True, "hours_per_period": 2},
         "^config.json: bad horizon: num_periods must be a whole number, got true$"),
        ("horizon", {"num_periods": 1, "hours_per_period": 2.5},
         "^config.json: bad horizon: hours_per_period must be a whole number, got 2.5$"),
        ("horizon", {"num_periods": 1, "hours_per_period": True},
         "^config.json: bad horizon: hours_per_period must be a whole number, got true$"),
        ("horizon", {"num_periods": 1, "hours_per_period": 2, "timestep_hours": True},
         "^config.json: bad horizon: timestep_hours must be a number, got true$"),
        ("horizon", {"num_periods": 1, "hours_per_period": 2, "hours_per_year": True},
         "^config.json: bad horizon: hours_per_year must be a number, got true$"),
        ("horizon", {"num_periods": "1", "hours_per_period": 2},
         '^config.json: bad horizon: num_periods must be a whole number, got "1"$'),
        ("horizon", {"num_periods": 1, "hours_per_period": "2"},
         '^config.json: bad horizon: hours_per_period must be a whole number, got "2"$'),
        ("horizon", {"num_periods": 1, "hours_per_period": 2, "timestep_hours": "1.0"},
         '^config.json: bad horizon: timestep_hours must be a number, got "1.0"$'),
        ("horizon", {"num_periods": 1, "hours_per_period": 2, "hours_per_year": " 2 "},
         '^config.json: bad horizon: hours_per_year must be a number, got " 2 "$'),
        ("peak_demand", {"n1": {"el": "2.0"}},
         r"^config.json: peak_demand\['n1'\]\['el'\] must be a number$"),
    ])
    def test_wrongly_typed_config_values(self, tmp_path, mini_gep_path, key, value, match):
        import json
        import shutil

        root = tmp_path / "bad"
        shutil.copytree(mini_gep_path, root)
        cfg = json.loads((root / "config.json").read_text())
        cfg[key] = value
        (root / "config.json").write_text(json.dumps(cfg))
        with pytest.raises(DataError, match=match):
            load_system(root)

    @pytest.mark.parametrize("section,key,digits,match", [
        pytest.param("peak_demand", "el", "1" + "0" * 400,
                     r"peak_demand\['n1'\]\['el'\] must be finite", id="peak"),
        pytest.param("peak_demand", "el", "-" + "9" * 401,
                     r"peak_demand\['n1'\]\['el'\] must be finite", id="negative-peak"),
        pytest.param("horizon", "hours_per_year", "1" + "0" * 400,
                     "bad horizon: hours_per_year must be finite", id="year"),
        # past the 4300 digits up to which Python converts a string to an int
        pytest.param("horizon", "hours_per_year", "7" * 5000,
                     "bad horizon: hours_per_year must be finite", id="year-5000-digits"),
        pytest.param("horizon", "timestep_hours", "1" + "0" * 400,
                     "bad horizon: timestep_hours must be finite", id="timestep"),
    ])
    def test_integer_too_large_for_a_float(self, tmp_path, mini_gep_path, section, key, digits,
                                           match):
        # a JSON integer has no size limit; as a float it is infinite, like 1e400
        import json

        root = tmp_path / "huge"
        shutil.copytree(mini_gep_path, root)
        cfg = json.loads((root / "config.json").read_text())
        (cfg["peak_demand"]["n1"] if section == "peak_demand" else cfg["horizon"])[key] = 424242
        text = json.dumps(cfg)
        (root / "config.json").write_text(text.replace("424242", digits))
        with pytest.raises(DataError, match=f"^config.json: {match}$"):
            load_system(root)

    def test_whole_float_horizon_counts_load(self, tmp_path, mini_gep_path):
        import json

        root = tmp_path / "float"
        shutil.copytree(mini_gep_path, root)
        cfg = json.loads((root / "config.json").read_text())
        cfg["horizon"].update(num_periods=1.0, hours_per_period=2.0)
        (root / "config.json").write_text(json.dumps(cfg))
        assert load_system(root).horizon == load_system(mini_gep_path).horizon

    @pytest.mark.parametrize("horizon", [
        pytest.param({"hours_per_period": 10**20}, id="hours-1e20"),
        pytest.param({"num_periods": 10**6, "hours_per_period": 10**6}, id="1e6x1e6"),
    ])
    def test_huge_horizon_exits_2(self, tmp_path, mini_gep_path, horizon):
        # refused before any (D, H) array exists: not numpy's "maximum allowed
        # dimension exceeded" nor a MemoryError traceback
        import json

        root = tmp_path / "huge"
        shutil.copytree(mini_gep_path, root)
        cfg = json.loads((root / "config.json").read_text())
        cfg["horizon"].update(horizon)
        (root / "config.json").write_text(json.dumps(cfg))
        result = CliRunner().invoke(main, ["validate", "--data", str(root)])
        assert result.exit_code == 2, result.output
        assert (f"data error: config.json: bad horizon: num_periods * hours_per_period must be "
                f"at most {MAX_TIMESTEPS}, got ") in result.output

    def test_storage_bounds_defaults_and_file(self, tmp_path):
        _store_dataset(tmp_path, [("r", 2, 0.2, 0.8)])
        system = load_system(tmp_path)
        np.testing.assert_allclose(system.storage_min["r"], [0.0, 0.2, 0.0])
        np.testing.assert_allclose(system.storage_max["r"], [1.0, 0.8, 1.0])

    @pytest.fixture
    def dataset_with(self, tmp_path, synthetic_gep_path):
        """A copy of a dataset that has ``file``: the synthetic gep dataset,
        or for storage_bounds.csv a one-node dataset with a seasonal store."""
        def make(file):
            root = tmp_path / "data"
            if file == "storage_bounds.csv":
                _store_dataset(root, [("r", 2, 0.2, 0.8)])
            else:
                shutil.copytree(synthetic_gep_path, root)
            return root
        return make

    @pytest.mark.parametrize("file,column", [
        ("assets.csv", "inv_cost"),
        ("assets.csv", "var_cost"),
        ("assets.csv", "unit_capacity"),
        ("lines.csv", "import_limit"),
        ("storage_bounds.csv", "min_frac"),
        ("demand.csv", "value"),
    ])
    def test_nan_cell_rejected(self, dataset_with, file, column):
        root = dataset_with(file)
        _edit_first_row(root / file, lambda header, cells: [
            "nan" if name == column else cell for name, cell in zip(header, cells)])
        with pytest.raises(DataError, match=rf"^{file}:2: column '{column}': not a number: 'nan'$"):
            load_system(root)

    @pytest.mark.parametrize("text", ["inf", "-inf"])
    @pytest.mark.parametrize("column", [
        "unit_capacity", "existing_units", "inv_cost", "var_cost", "eff_in", "eff_out", "ramp",
        "storage_cap", "inflow_max", "spill_cost", "borrow_cost", "initial_storage",
    ])
    def test_infinite_asset_cell_rejected(self, dataset_with, column, text):
        root = dataset_with("assets.csv")
        _edit_first_row(root / "assets.csv", lambda header, cells: [
            text if name == column else cell for name, cell in zip(header, cells)])
        with pytest.raises(DataError,
                           match=rf"^assets.csv:2: column '{column}': not finite: '{text}'$"):
            load_system(root)

    def test_infinite_line_limit_is_unlimited(self, dataset_with):
        root = dataset_with("lines.csv")
        _edit_first_row(root / "lines.csv", lambda header, cells: [
            "inf" if name == "import_limit" else cell for name, cell in zip(header, cells)])
        system = load_system(root)
        line = system.lines[0]
        assert (line.import_limit, line.export_limit) == (math.inf, 40.0)
        model = build_full_model(system)
        flows = [i for i, name in enumerate(model.var_names)
                 if name.startswith(f"flow_{line.name}_")]
        assert flows and np.all(model.lb[flows] == -math.inf)
        assert np.all(model.ub[flows] == 40.0)
        assert solve(model).status == "optimal"

    @pytest.mark.parametrize("horizon,peak,match", [
        ({}, math.inf, r"peak_demand\['n1'\]\['el'\] must be finite"),
        ({}, -math.inf, r"peak_demand\['n1'\]\['el'\] must be finite"),
        ({"timestep_hours": math.inf}, 1.0, "bad horizon: timestep_hours must be finite"),
        ({"hours_per_year": math.inf}, 1.0, "bad horizon: hours_per_year must be finite"),
        ({"hours_per_year": -math.inf}, 1.0, "bad horizon: hours_per_year must be finite"),
    ], ids=["peak_demand", "peak_demand_negative", "timestep_hours", "hours_per_year",
            "hours_per_year_negative"])
    def test_infinite_config_value_rejected(self, tmp_path, horizon, peak, match):
        config = _tiny_config()
        config["horizon"].update(horizon)
        config["peak_demand"]["n1"]["el"] = peak
        write_dataset(tmp_path, config, [], [], {("n1", "el"): np.full((1, 1), 0.5)}, {}, {})
        assert "Infinity" in (tmp_path / "config.json").read_text()
        with pytest.raises(DataError, match=f"^config.json: {match}$"):
            load_system(tmp_path)

    @pytest.mark.parametrize("hours_per_year", [0, -8760], ids=["zero", "negative"])
    def test_nonpositive_hours_per_year_rejected(self, tmp_path, hours_per_year):
        # a zero year drops every operating-cost term from the model, and a
        # negative one makes the model infeasible; neither is a horizon
        config = _tiny_config()
        config["horizon"]["hours_per_year"] = hours_per_year
        write_dataset(tmp_path, config, [], [], {("n1", "el"): np.full((1, 1), 0.5)}, {}, {})
        with pytest.raises(DataError,
                           match="^config.json: bad horizon: hours_per_year must be > 0$"):
            load_system(tmp_path)

    @pytest.mark.parametrize("horizon,peak,match", [
        ({}, math.nan, r"peak_demand\['n1'\]\['el'\] must be a number"),
        ({"timestep_hours": math.nan}, 1.0, "bad horizon: timestep_hours must be > 0"),
        ({"hours_per_year": math.nan}, 1.0, "bad horizon: hours_per_year must be a number"),
    ], ids=["peak_demand", "timestep_hours", "hours_per_year"])
    def test_nan_config_value_rejected(self, tmp_path, horizon, peak, match):
        config = _tiny_config()
        config["horizon"].update(horizon)
        config["peak_demand"]["n1"]["el"] = peak
        write_dataset(tmp_path, config, [], [], {("n1", "el"): np.full((1, 1), 0.5)}, {}, {})
        assert "NaN" in (tmp_path / "config.json").read_text()
        with pytest.raises(DataError, match=f"^config.json: {match}$"):
            load_system(tmp_path)

    @pytest.mark.parametrize("file,kept,message", [
        ("demand.csv", 2, "column 'period': not an integer: ''"),
        ("availability.csv", 1, "column 'period': not an integer: ''"),
        ("inflows.csv", 1, "column 'period': not an integer: ''"),
        ("lines.csv", 1, "unknown node ''"),
        ("storage_bounds.csv", 1, "column 'period': not an integer: ''"),
    ], ids=["demand", "availability", "inflows", "lines", "storage_bounds"])
    def test_short_row_reads_as_blank_cells(self, dataset_with, file, kept, message):
        # the first data row keeps only its key cells
        root = dataset_with(file)
        _edit_first_row(root / file, lambda header, cells: cells[:kept])
        with pytest.raises(DataError, match=f"^{file}:2: {message}$"):
            load_system(root)

    @pytest.mark.parametrize("file", [
        "demand.csv", "availability.csv", "inflows.csv", "assets.csv", "lines.csv",
        "storage_bounds.csv",
    ])
    def test_over_long_row_rejected(self, dataset_with, file):
        # the first data row gains one cell past its header
        root = dataset_with(file)
        width = len((root / file).read_text().splitlines()[0].split(","))
        _edit_first_row(root / file, lambda header, cells: cells + [""] * (width - len(cells))
                        + ["7"])
        with pytest.raises(DataError,
                           match=rf"^{file}:2: row has {width + 1} cells, header has {width}$"):
            load_system(root)

    @pytest.mark.parametrize("file", [
        "demand.csv", "availability.csv", "inflows.csv", "assets.csv", "lines.csv",
        "storage_bounds.csv",
    ])
    def test_over_long_cell_rejected(self, dataset_with, file):
        # the last cell of the first data row grows past csv's field limit
        root = dataset_with(file)
        _edit_first_row(root / file, lambda header, cells: cells[:-1]
                        + [cells[-1] + "0" * 200_000])
        with pytest.raises(DataError,
                           match=rf"^{file}:2: field larger than field limit \(131072\)$"):
            load_system(root)

    @pytest.mark.parametrize("file", [
        "config.json", "demand.csv", "availability.csv", "inflows.csv", "assets.csv",
        "lines.csv", "storage_bounds.csv",
    ])
    def test_non_utf8_file_rejected(self, dataset_with, file):
        root = dataset_with(file)
        with open(root / file, "ab") as handle:
            handle.write(b"\xff\xfe")
        with pytest.raises(DataError, match=rf"^{file}: not UTF-8 text: invalid start byte$"):
            load_system(root)

    def test_byte_order_mark_dropped(self, tmp_path, synthetic_gep_path):
        # spreadsheet exports and some editors start a file with a UTF-8
        # byte-order mark
        root = tmp_path / "bom"
        shutil.copytree(synthetic_gep_path, root)
        for path in [*root.glob("*.csv"), root / "config.json"]:
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        expected, system = load_system(synthetic_gep_path), load_system(root)
        assert (system.horizon, system.assets, system.lines, system.peak_demand) == \
            (expected.horizon, expected.assets, expected.lines, expected.peak_demand)
        for attr in ("demand", "availability", "inflow", "storage_min", "storage_max"):
            loaded, arrays = getattr(system, attr), getattr(expected, attr)
            assert list(loaded) == list(arrays), attr
            assert all(loaded[key].tobytes() == arr.tobytes() for key, arr in arrays.items())

    @pytest.mark.parametrize("file", ["demand.csv", "assets.csv"])
    def test_trailing_blank_cells_allowed(self, dataset_with, file):
        root = dataset_with(file)
        expected = load_system(root)
        path = root / file
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:1] + [line + ", ," for line in lines[1:]]) + "\n")
        system = load_system(root)
        assert system.assets == expected.assets
        for key, arr in expected.demand.items():
            assert system.demand[key].tobytes() == arr.tobytes()

    def test_duplicate_storage_bound_rejected(self, tmp_path):
        _store_dataset(tmp_path, [("r", 2, 0.2, 0.8), ("r", 2, 0.4, 0.6)])
        with pytest.raises(DataError, match=r"^storage_bounds.csv:3: duplicate cell \(period 2\)$"):
            load_system(tmp_path)

    @pytest.mark.parametrize("low,high,crossed", [
        (0.8, 0.2, True), (1.0, 0.0, True), (0.5, 0.5, False), (1.5, 0.2, False),
        (0.8, -0.1, False),
    ])
    def test_crossed_storage_bounds_rejected(self, tmp_path, low, high, crossed):
        # a crossed pair within [0, 1] leaves the full model infeasible; a
        # value outside [0, 1] stays a validation fault
        _store_dataset(tmp_path, [("r", 1, 0.2, 0.8), ("r", 2, low, high)])
        if crossed:
            with pytest.raises(DataError, match=rf"^storage_bounds.csv:3: "
                                                rf"min_frac {low} > max_frac {high}$"):
                load_system(tmp_path)
            return
        system = load_system(tmp_path)
        assert (system.storage_min["r"][1], system.storage_max["r"][1]) == (low, high)
        in_range = 0 <= low <= 1 and 0 <= high <= 1
        assert [v.series for v in validate_profiles(system)] == (
            [] if in_range else ["storage_min" if low > 1 else "storage_max"])

    def test_negative_peak_demand_rejected(self, tmp_path):
        # a negative peak leaves the full model infeasible: a data fault,
        # not a solver outcome
        config = _tiny_config()
        config["peak_demand"]["n1"]["el"] = -2.0
        write_dataset(tmp_path, config, [], [], {("n1", "el"): np.full((1, 1), 0.5)}, {}, {})
        with pytest.raises(DataError,
                           match=r"^config.json: peak_demand\['n1'\]\['el'\] must be >= 0$"):
            load_system(tmp_path)
        config["peak_demand"]["n1"]["el"] = 0.0
        write_dataset(tmp_path, config, [], [], {("n1", "el"): np.full((1, 1), 0.5)}, {}, {})
        assert load_system(tmp_path).peak_demand[("n1", "el")] == 0.0

    # each case plants one fault in a copy of the synthetic gep dataset (12x6;
    # the first data rows are fossil_n1, a producer, and line l12 from n1 to
    # n2) and names the message, file and line that load_system raises
    @pytest.mark.parametrize("file,edit,error", [
        ("config.json", _text('{\n "mode": "gep"\n "nodes": []\n}\n'),
         "config.json:3: invalid JSON: Expecting ',' delimiter"),
        ("config.json", _config(lambda cfg: cfg.pop("nodes")),
         "config.json: missing key 'nodes'"),
        ("config.json", _config(lambda cfg: cfg["horizon"].pop("hours_per_period")),
         "config.json: horizon is missing 'hours_per_period'"),
        ("config.json", _config(lambda cfg: cfg.update(mode="dispatch")),
         "config.json: mode must be one of ('gep', 'p2x'), got 'dispatch'"),
        ("config.json", _config(lambda cfg: cfg["carriers"].append("el")),
         "config.json: duplicate node or carrier names"),
        ("config.json", _config(lambda cfg: cfg["peak_demand"].update(n9={"el": 1.0})),
         "config.json: peak_demand references unknown node 'n9'"),
        ("config.json", _config(lambda cfg: cfg["peak_demand"].update(n1=100.0)),
         "config.json: peak_demand['n1'] must map carrier -> MW"),
        ("config.json", _config(lambda cfg: cfg["peak_demand"]["n1"].update(h2=1.0)),
         "config.json: peak_demand references unknown carrier 'h2'"),
        ("lines.csv", _text(""), "lines.csv:1: missing header row"),
        ("inflows.csv", _first_row(asset="zz"), "inflows.csv:2: unknown asset 'zz'"),
        ("storage_bounds.csv", _text("asset,period,min_frac,max_frac\nzz,1,0,1\n"),
         "storage_bounds.csv:2: unknown asset 'zz'"),
        ("storage_bounds.csv", _text("asset,period,min_frac,max_frac\nbattery_n2,1,0,1\n"),
         "storage_bounds.csv:2: storage bounds given for non-seasonal asset 'battery_n2'"),
        ("storage_bounds.csv", _text("asset,period,min_frac,max_frac\nreservoir_n3,13,0,1\n"),
         "storage_bounds.csv:2: period 13 outside 1..12"),
        ("demand.csv", _first_row(value=""), "demand.csv:2: empty value"),
        ("assets.csv", _first_row(name=""), "assets.csv:2: empty asset name"),
        ("assets.csv", _first_row(name="fossil_n2"), "assets.csv:3: duplicate asset 'fossil_n2'"),
        ("assets.csv", _first_row(kind="turbine"),
         "assets.csv:2: unknown kind 'turbine'; expected one of "
         "('producer', 'storage_short', 'storage_seasonal', 'conversion')"),
        ("assets.csv", _first_row(carrier_in="h2"), "assets.csv:2: unknown carrier 'h2'"),
        ("assets.csv", _first_row(carrier_out=""), "assets.csv:2: producer needs carrier_out"),
        ("assets.csv", _first_row(kind="conversion"),
         "assets.csv:2: conversion needs carrier_in and carrier_out"),
        ("assets.csv", _first_row(kind="storage_short", carrier_out=""),
         "assets.csv:2: storage needs a carrier"),
        ("assets.csv", _first_row(investable="maybe"),
         "assets.csv:2: column 'investable': not a boolean: 'maybe'"),
        ("assets.csv", _first_row(var_cost="-1"), "assets.csv:2: column 'var_cost' must be >= 0"),
        ("assets.csv", _first_row(ramp="-0.5"), "assets.csv:2: column 'ramp' must be >= 0"),
        ("lines.csv", _first_row(name=""), "lines.csv:2: empty line name"),
        ("lines.csv", _first_row(name="l13"), "lines.csv:3: duplicate line 'l13'"),
        ("lines.csv", _first_row(carrier="h2"), "lines.csv:2: unknown carrier 'h2'"),
        ("lines.csv", _first_row(import_limit="-1"), "lines.csv:2: line limits must be >= 0"),
    ], ids=["invalid-json", "missing-key", "missing-horizon-key", "unknown-mode",
            "repeated-carrier", "peak-unknown-node", "peak-not-a-map", "peak-unknown-carrier",
            "no-header-row", "inflow-unknown-asset", "bounds-unknown-asset",
            "bounds-non-seasonal", "bounds-period-out-of-range", "empty-hourly-value",
            "empty-asset-name", "repeated-asset", "unknown-kind", "asset-unknown-carrier",
            "producer-without-carrier", "conversion-without-carriers",
            "storage-without-carrier", "investable-not-boolean", "negative-asset-column",
            "negative-ramp", "empty-line-name", "repeated-line", "line-unknown-carrier",
            "negative-line-limit"])
    def test_fault_at_its_file_and_line(self, tmp_path, synthetic_gep_path, file, edit, error):
        root = shutil.copytree(synthetic_gep_path, tmp_path / "data")
        edit(root / file)
        with pytest.raises(DataError) as raised:
            load_system(root)
        assert str(raised.value) == error


HOURLY_FILES = [("demand", "demand.csv", ("node", "carrier")),
                ("availability", "availability.csv", ("asset",)),
                ("inflow", "inflows.csv", ("asset",))]


class TestHourlyProfiles:
    """The columnar profile reader against a row-by-row reference, and the
    location of its first error."""

    @pytest.fixture(params=["mini-gep", "synthetic-gep", "synthetic-p2x", "shuffled",
                            "blank-lines", "padded-keys"])
    def dataset(self, request, tmp_path):
        """A dataset as written, or a copy of the synthetic gep dataset with
        its hourly rows shuffled, blank lines between them, or spaces around
        the first key cell of every other row."""
        source = {"mini-gep": "mini_gep_path", "synthetic-p2x": "synthetic_p2x_path"}
        root = request.getfixturevalue(source.get(request.param, "synthetic_gep_path"))
        if request.param in ("shuffled", "blank-lines", "padded-keys"):
            root = shutil.copytree(root, tmp_path / request.param)
            rng = np.random.default_rng(5)
            for _, file, _ in HOURLY_FILES:
                header, *rows = (root / file).read_text().splitlines()
                if request.param == "shuffled":
                    rows = [rows[i] for i in rng.permutation(len(rows))]
                elif request.param == "blank-lines":
                    rows = [line for i, row in enumerate(rows)
                            for line in ((row, "") if i % 3 == 0 else (row,))]
                else:
                    rows = [f" {row.replace(',', ' ,', 1)}" if i % 2 else row
                            for i, row in enumerate(rows)]
                (root / file).write_text("\n".join([header, "", *rows]) + "\n")
        return root

    def test_arrays_match_row_reader(self, dataset):
        system = load_system(dataset)
        D, H = system.horizon.num_periods, system.horizon.hours_per_period
        for attr, file, key_columns in HOURLY_FILES:
            expected = read_hourly_rows(dataset / file, key_columns, D, H)
            if attr == "demand":
                expected = {key: expected.get(key, np.full((D, H), np.nan))
                            for key in system.peak_demand}
            loaded = getattr(system, attr)
            assert list(loaded) == list(expected)
            for key, arr in expected.items():
                assert (loaded[key].dtype, loaded[key].shape) == (arr.dtype, arr.shape)
                assert loaded[key].tobytes() == arr.tobytes(), (attr, key)

    @pytest.mark.parametrize("file,rows,error", [
        ("demand.csv", ["n1,el,1,1,0.5", "n1,el,1,2,0.5", "n1,el,1,1,0.5", "n1,el,2,1,0.5",
                        "n1,el,2,2,nan"],
         "demand.csv:4: duplicate cell (period 1, hour 1)"),
        ("availability.csv", ["zz,x,1,0.5"], "availability.csv:2: unknown asset 'zz'"),
        ("demand.csv", ["n1,el,x,1,"], "demand.csv:2: column 'period': not an integer: 'x'"),
        ("availability.csv", ["g,0,1,0.5", "zz,1,1,0.5"],
         "availability.csv:2: period 0 outside 1..2"),
        ("demand.csv", ["n1,el,1,1,0.5", "", '"n1\n",el,1,2,0.5', "n1,el,2,1,abc"],
         "demand.csv:6: column 'value': not a number: 'abc'"),
        ("demand.csv", ["n1,el,1,1,0.5", "n1,el,1,3,0.5"], "demand.csv:3: hour 3 outside 1..2"),
        ("availability.csv", ["g,1,1,0.5", "zz,1,1,0.5"],
         "availability.csv:3: unknown asset 'zz'"),
        ("demand.csv", ["n1,el,99999999999999999999,1,0.5"],
         "demand.csv:2: period 99999999999999999999 outside 1..2"),
    ], ids=["duplicate-before-nan", "unknown-key-before-bad-period",
            "bad-period-before-empty-value", "bad-period-before-later-unknown-key",
            "after-blank-line-and-multiline-cell", "hour-out-of-range",
            "unknown-availability-asset", "period-past-int64"])
    def test_first_fault_in_file_order(self, tmp_path, file, rows, error):
        write_dataset(tmp_path, _tiny_config(num_periods=2, hours=2),
                      [dict(name="g", node="n1", kind="producer", carrier_out="el")],
                      [], {("n1", "el"): np.full((2, 2), 0.5)}, {"g": np.ones((2, 2))}, {})
        header = (tmp_path / file).read_text().splitlines()[0]
        (tmp_path / file).write_text("\n".join([header, *rows]) + "\n")
        with pytest.raises(DataError) as raised:
            load_system(tmp_path)
        assert str(raised.value) == error


def _edit_first_row(path, edit):
    """Replace the first data row of a CSV file by ``edit(header, cells)``."""
    lines = path.read_text().splitlines()
    lines[1] = ",".join(edit(lines[0].split(","), lines[1].split(",")))
    path.write_text("\n".join(lines) + "\n")


def _tiny_config(num_periods=1, hours=1):
    return {
        "horizon": {"num_periods": num_periods, "hours_per_period": hours},
        "mode": "gep",
        "nodes": ["n1"],
        "carriers": ["el"],
        "peak_demand": {"n1": {"el": 1.0}},
    }


def _store_dataset(root, storage_bounds):
    """A 3-period one-node dataset with the seasonal store ``r`` and the
    ``storage_bounds.csv`` rows (asset, period, min_frac, max_frac)."""
    write_dataset(root, _tiny_config(num_periods=3),
                  [dict(name="r", node="n1", kind="storage_seasonal", carrier_out="el",
                        storage_cap=10)],
                  [], {("n1", "el"): np.full((3, 1), 0.5)}, {}, {})
    with open(root / "storage_bounds.csv", "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["asset", "period", "min_frac", "max_frac"])
        writer.writerows(storage_bounds)


class TestValidateProfiles:
    def test_clean_system(self):
        assert validate_profiles(make_system()) == []

    def test_range_violation_names_cell(self):
        system = make_system(D=3, H=8, assets=[producer("g")],
                             availability={"g": np.ones((3, 8))})
        system.availability["g"][2, 6] = 1.2  # period 3, hour 7
        violations = validate_profiles(system)
        assert len(violations) == 1
        v = violations[0]
        assert (v.series, v.key, v.period, v.hour, v.kind) == ("availability", "g", 3, 7, "range")
        assert "1.2" in str(v)

    def test_missing_cell(self):
        system = make_system(D=3, H=8)
        system.demand[("n1", "el")][1, 4] = np.nan  # period 2, hour 5
        violations = validate_profiles(system)
        assert len(violations) == 1
        v = violations[0]
        assert (v.series, v.period, v.hour, v.kind) == ("demand", 2, 5, "missing")

    def test_storage_bound_range(self):
        storage = Asset(name="r", node="n1", kind="storage_seasonal",
                        carrier_in="el", carrier_out="el", storage_cap=5)
        system = make_system(assets=[storage])
        system.storage_max["r"][0] = 1.5
        violations = validate_profiles(system)
        assert [v.series for v in violations] == ["storage_max"]

    def test_violations_in_series_then_cell_order(self):
        storage = Asset(name="r", node="n1", kind="storage_seasonal",
                        carrier_in="el", carrier_out="el", storage_cap=5)
        system = make_system(D=2, H=2, assets=[producer("w"), storage],
                             availability={"w": np.ones((2, 2))})
        system.storage_max["r"][1] = np.nan
        system.storage_min["r"][0] = -1.0
        system.availability["w"][0, 0] = -0.5
        system.demand[("n1", "el")][1, 0] = np.nan
        system.demand[("n1", "el")][0, 1] = 2.0
        system.demand[("n1", "el")][1, 1] = np.inf
        assert [str(v) for v in validate_profiles(system)] == [
            "demand n1/el period 1 hour 2: value 2.0 outside [0, 1]",
            "demand n1/el period 2 hour 1: value missing",
            "demand n1/el period 2 hour 2: value inf outside [0, 1]",
            "availability w period 1 hour 1: value -0.5 outside [0, 1]",
            "storage_min r period 1: value -1.0 outside [0, 1]",
            "storage_max r period 2: value nan outside [0, 1]",
        ]

    def test_absent_demand_series_reported_cell_by_cell(self, tmp_path):
        # a peak_demand entry promises a demand series; an empty demand.csv
        # leaves every cell missing
        write_dataset(tmp_path, _tiny_config(num_periods=2, hours=3), [], [], {}, {}, {})
        system = load_system(tmp_path)
        violations = validate_profiles(system)
        assert len(violations) == 6
        assert all(v.kind == "missing" and v.series == "demand" for v in violations)

    def test_rejects_invalid_profiles(self):
        clean = make_system()
        assert require_valid(clean) is clean
        system = make_system()
        system.demand[("n1", "el")][0, 0] = 1.5
        system.demand[("n1", "el")][1, 1] = -0.5
        with pytest.raises(DataError, match=r"^2 profile violations; first: "
                                            r"demand n1/el period 1 hour 1: value 1.5"):
            require_valid(system)


class TestClusteringMatrix:
    def test_row_count_example(self):
        # 1 node x 1 carrier demand + 1 renewable, H=2 -> (1 + 1) * 2 rows
        avail = np.array([[0.3, 0.6], [0.9, 0.2], [0.5, 0.5]])
        system = make_system(D=3, H=2, assets=[producer("w")],
                             availability={"w": avail})
        cm = build_clustering_matrix(system)
        assert cm.values.shape == (4, 3)
        assert cm.row_labels == ["demand:n1:el:1", "demand:n1:el:2",
                                 "availability:w:1", "availability:w:2"]

    def test_constant_availability_excluded(self):
        system = make_system(D=2, H=2, assets=[producer("base")],
                             availability={"base": np.ones((2, 2))})
        cm = build_clustering_matrix(system)
        assert cm.values.shape == (2, 2)  # demand rows only
        assert all(key[0] == "demand" for key in cm.row_keys)

    def test_identical_periods_identical_columns(self):
        system = make_system(D=2, H=3)
        cm = build_clustering_matrix(system)
        np.testing.assert_array_equal(cm.values[:, 0], cm.values[:, 1])

    @given(
        n_nodes=st.integers(1, 3), n_carriers=st.integers(1, 2),
        D=st.integers(1, 5), H=st.integers(1, 4),
        n_renewable=st.integers(0, 2), n_inflow=st.integers(0, 2),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=60, deadline=None)
    def test_row_count_formula(self, n_nodes, n_carriers, D, H, n_renewable, n_inflow, seed):
        rng = np.random.default_rng(seed)
        nodes = [f"n{i}" for i in range(n_nodes)]
        carriers = [f"x{i}" for i in range(n_carriers)]
        assets = [producer(f"w{i}", node=nodes[0], carrier_out=carriers[0])
                  for i in range(n_renewable)]
        availability = {f"w{i}": np.clip(rng.uniform(0, 0.99, (D, H)), 0, 1)
                        for i in range(n_renewable)}
        for i in range(n_inflow):
            assets.append(Asset(name=f"r{i}", node=nodes[0], kind="storage_seasonal",
                                carrier_in=carriers[0], carrier_out=carriers[0],
                                storage_cap=1.0, inflow_max=1.0))
        inflow = {f"r{i}": rng.uniform(0, 1, (D, H)) for i in range(n_inflow)}
        demand = {(n, x): rng.uniform(0, 1, (D, H)) for n in nodes for x in carriers}
        system = make_system(D=D, H=H, nodes=nodes, carriers=carriers, assets=assets,
                             demand=demand, availability=availability, inflow=inflow)
        cm = build_clustering_matrix(system)
        expected_rows = (n_nodes * n_carriers + n_renewable + n_inflow) * H
        assert cm.values.shape == (expected_rows, D)
        assert np.all(cm.values >= 0.0) and np.all(cm.values <= 1.0)

    def test_column_stacks_period_profiles(self):
        rng = np.random.default_rng(9)
        avail = rng.uniform(0, 0.9, (3, 2))
        system = make_system(D=3, H=2, assets=[producer("w")],
                             availability={"w": avail},
                             demand={("n1", "el"): rng.uniform(0, 1, (3, 2))})
        cm = build_clustering_matrix(system)
        d = 1
        expected = np.concatenate([system.demand[("n1", "el")][d], avail[d]])
        np.testing.assert_array_equal(cm.values[:, d], expected)


class TestRepProfiles:
    def test_slicing_matches_source_periods(self, synthetic_gep_path):
        system = load_system(synthetic_gep_path)
        rep = period_reps(system, [3, 0])
        np.testing.assert_array_equal(rep.profile("demand", "n1", "el")[0],
                                      system.demand[("n1", "el")][3])
        np.testing.assert_array_equal(rep.profile("availability", "wind_n1")[1],
                                      system.availability["wind_n1"][0])
        assert rep.values.shape[1] == 2

    def test_unstack_roundtrips_the_matrix(self):
        rng = np.random.default_rng(14)
        system = make_system(D=4, H=3, assets=[producer("w")],
                             availability={"w": rng.uniform(0, 0.9, (4, 3))},
                             demand={("n1", "el"): rng.uniform(0, 1, (4, 3))})
        cm = build_clustering_matrix(system)
        rep = extract_rep_profiles(system, RepSelection(cm.values), cm)
        np.testing.assert_array_equal(rep.profile("demand", "n1", "el"),
                                      system.demand[("n1", "el")])
        np.testing.assert_array_equal(rep.profile("availability", "w"), system.availability["w"])
        assert rep.profile("availability", "x") is None
        assert rep.profile("inflow", "w") is None

    def test_extract_dispatch(self, synthetic_gep_path):
        system = load_system(synthetic_gep_path)
        cm = build_clustering_matrix(system)
        selection = kmeans(cm.values, 3, seed=1)
        rep = extract_rep_profiles(system, selection, cm)
        assert rep.values.shape[1] == 3  # synthetic centroids unstacked
        assert rep.row_keys == cm.row_keys
        medoid_like = RepSelection(rep_matrix=cm.values[:, [1, 2]], source_indices=np.array([1, 2]))
        rep2 = extract_rep_profiles(system, medoid_like, cm)
        np.testing.assert_array_equal(rep2.profile("demand", "n2", "el")[0],
                                      system.demand[("n2", "el")][1])

    @pytest.mark.parametrize("dataset", ["synthetic_gep_path", "synthetic_p2x_path"])
    @pytest.mark.parametrize("method", ["kmedoids", "hull"])
    def test_period_selections_match_period_slices(self, dataset, method, request):
        # representatives that are base periods carry exactly the system's
        # profiles at those periods; a series without rows is its default
        system = load_system(request.getfixturevalue(dataset))
        cm = build_clustering_matrix(system)
        selection = cluster_matrix(cm.values, method, "conic", 3, seed=1)
        rep = extract_rep_profiles(system, selection, cm)
        expected = period_profiles(system, selection.source_indices)
        default = {"demand": 0.0, "availability": 1.0, "inflow": 0.0}
        for series, values in expected.items():
            got = rep.profile(*series)
            np.testing.assert_array_equal(
                default[series[0]] if got is None else got, values, err_msg=str(series))
        assert {key[:-1] for key in rep.row_keys} <= set(expected)

"""Energy-system description: loading, validation and the clustering matrix.

A system lives in a directory with ``config.json`` (horizon, mode, nodes,
carriers, peak demands) and CSV files for assets, lines and the time-varying
profiles.  All profile values are unitless fractions in [0, 1]; peak demand,
unit capacity and inflow maxima carry the physical units (MW / MWh).

The clustering matrix stacks, per base period, the hourly demand,
availability and inflow values into one feature column, in a fixed
deterministic row order (demand, availability, inflow blocks; lexicographic
within a block; hour index innermost).  Representatives are columns over
the same rows, and the model reads its profiles from them.
"""

from __future__ import annotations

import csv
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

ASSET_KINDS = ("producer", "storage_short", "storage_seasonal", "conversion")
MODES = ("gep", "p2x")
# The most timesteps (num_periods * hours_per_period) a horizon may hold.
# Every profile series is one (D, H) float64 array and the full model has
# columns per timestep, so this caps one series at 80 MB, ample for a year
# at one-minute steps (525,600); a larger horizon is an input error, found
# before anything of its size is allocated.
MAX_TIMESTEPS = 10**7


class DataError(Exception):
    """Schema or reference problem in an input file; carries file and line."""

    def __init__(self, message: str, file: str | None = None, line: int | None = None):
        self.file = file
        self.line = line
        loc = ""
        if file is not None:
            loc = f"{file}: " if line is None else f"{file}:{line}: "
        super().__init__(loc + message)


@dataclass(frozen=True)
class Horizon:
    """Temporal discretization: D periods of H steps of tau hours each."""

    num_periods: int
    hours_per_period: int
    timestep_hours: float = 1.0
    hours_per_year: float | None = None

    def __post_init__(self):
        if self.num_periods < 1 or self.hours_per_period < 1:
            raise ValueError("num_periods and hours_per_period must be >= 1")
        if self.num_periods * self.hours_per_period > MAX_TIMESTEPS:
            raise ValueError(f"num_periods * hours_per_period must be at most {MAX_TIMESTEPS}, "
                             f"got {self.num_periods * self.hours_per_period}")
        if not self.timestep_hours > 0:
            raise ValueError("timestep_hours must be > 0")
        if math.isinf(self.timestep_hours):
            raise ValueError("timestep_hours must be finite")
        if self.hours_per_year is None:
            object.__setattr__(
                self, "hours_per_year",
                self.num_periods * self.hours_per_period * self.timestep_hours,
            )
        if math.isnan(self.hours_per_year):
            raise ValueError("hours_per_year must be a number")
        if math.isinf(self.hours_per_year):
            raise ValueError("hours_per_year must be finite")
        if not self.hours_per_year > 0:
            raise ValueError("hours_per_year must be > 0")

    @property
    def num_timesteps(self) -> int:
        return self.num_periods * self.hours_per_period

    @property
    def operational_weight(self) -> float:
        """Annualization factor for operational cost: year length over model
        length, both counted in timesteps."""
        return self.hours_per_year / self.num_timesteps


@dataclass
class Asset:
    name: str
    node: str
    kind: str
    carrier_in: str | None = None
    carrier_out: str | None = None
    investable: bool = False
    unit_capacity: float = 0.0  # MW per unit
    existing_units: float = 0.0
    inv_cost: float = 0.0  # currency per MW per year
    var_cost: float = 0.0  # currency per MWh
    eff_in: float = 1.0
    eff_out: float = 1.0
    ramp: float | None = None  # fraction of capacity per hour; None = unlimited
    storage_cap: float = 0.0  # MWh
    inflow_max: float = 0.0  # MWh per timestep at profile value 1
    spill_cost: float = 0.0
    borrow_cost: float = 0.0
    initial_storage: float = 0.0  # MWh

    @property
    def is_seasonal(self) -> bool:
        return self.kind == "storage_seasonal"

    @property
    def has_inflows(self) -> bool:
        return self.is_seasonal and self.inflow_max > 0.0


@dataclass
class Line:
    name: str
    from_node: str
    to_node: str
    carrier: str
    import_limit: float = 0.0  # MW
    export_limit: float = 0.0  # MW


@dataclass
class Violation:
    """One bad or missing profile value found by validation."""

    series: str  # demand | availability | inflow | storage_min | storage_max
    key: str  # "node/carrier" or asset name
    period: int  # 1-based
    hour: int | None  # 1-based; None for per-period series
    kind: str  # "range" | "missing"
    value: float | None = None

    def __str__(self) -> str:
        where = f"period {self.period}" + ("" if self.hour is None else f" hour {self.hour}")
        if self.kind == "missing":
            return f"{self.series} {self.key} {where}: value missing"
        return f"{self.series} {self.key} {where}: value {self.value} outside [0, 1]"


@dataclass
class EnergySystem:
    """Fully cross-referenced static and time-varying model inputs.

    Profile arrays are (num_periods, hours_per_period); storage bound arrays
    are (num_periods,).  Read-only after loading.
    """

    horizon: Horizon
    mode: str
    nodes: list[str]
    carriers: list[str]
    assets: list[Asset]
    lines: list[Line]
    peak_demand: dict[tuple[str, str], float]
    demand: dict[tuple[str, str], np.ndarray]
    availability: dict[str, np.ndarray] = field(default_factory=dict)
    inflow: dict[str, np.ndarray] = field(default_factory=dict)
    storage_min: dict[str, np.ndarray] = field(default_factory=dict)
    storage_max: dict[str, np.ndarray] = field(default_factory=dict)
    name: str = "system"

    def assets_of_kind(self, *kinds: str) -> list[Asset]:
        return [a for a in self.assets if a.kind in kinds]

    @property
    def producers(self) -> list[Asset]:
        return self.assets_of_kind("producer")

    @property
    def storages(self) -> list[Asset]:
        return self.assets_of_kind("storage_short", "storage_seasonal")

    @property
    def seasonal_storages(self) -> list[Asset]:
        return self.assets_of_kind("storage_seasonal")

    @property
    def conversions(self) -> list[Asset]:
        return self.assets_of_kind("conversion")


@dataclass
class ClusteringMatrix:
    """Stacked hourly profiles, one column per base period or, from
    ``extract_rep_profiles``, per representative.  Row ``i`` holds series
    ``row_keys[i][:-1]`` at hour ``row_keys[i][-1]``: the demand block, then
    availability, then inflow, hours in order within a series."""

    values: np.ndarray  # (n_features, n_columns), entries in [0, 1]
    row_keys: list[tuple]  # ("demand", node, carrier, hour) | ("availability"|"inflow", asset, hour)

    @property
    def row_labels(self) -> list[str]:
        return [":".join(str(p) for p in key) for key in self.row_keys]

    @property
    def num_periods(self) -> int:
        return self.values.shape[1]

    @cached_property
    def _series_rows(self) -> dict[tuple, list[int]]:
        rows: dict[tuple, list[int]] = {}
        for i, key in enumerate(self.row_keys):
            rows.setdefault(key[:-1], []).append(i)
        return rows

    def profile(self, *series) -> np.ndarray | None:
        """The (columns, H) hourly values of one series, such as
        ``profile("demand", node, carrier)`` or ``profile("availability",
        asset)``; None when the matrix has no rows for it, which means zero
        demand or inflow, or full availability."""
        rows = self._series_rows.get(series)
        return None if rows is None else self.values[rows].T


# --------------------------------------------------------------------------- #
# Loading
# --------------------------------------------------------------------------- #

_BOOL_WORDS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False, "": False}


def _parse_float(text: str, default: float, file: str, line: int, column: str,
                 finite: bool = False) -> float:
    """The cell's number, or ``default`` when blank; NaN is an error, and so
    is +-inf when ``finite`` (an infinite flow limit means "unlimited", an
    infinite cost or capacity means nothing)."""
    if text.strip() == "":
        return default
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if math.isnan(value):
        raise DataError(f"column {column!r}: not a number: {text!r}", file, line)
    if finite and math.isinf(value):
        raise DataError(f"column {column!r}: not finite: {text!r}", file, line)
    return value


def _parse_int(text: str, file: str, line: int, column: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise DataError(f"column {column!r}: not an integer: {text!r}", file, line) from None


@contextmanager
def _open_csv(path: Path, required: tuple[str, ...]):
    """A ``csv.reader`` positioned after the header, and the header, which
    must name every ``required`` column.  A leading byte-order mark, as
    spreadsheet exports write, is dropped.  A CSV fault (a cell over the field
    limit) raises DataError at its line, non-UTF-8 text one without a line."""
    fname = path.name
    if not path.exists():
        raise DataError("file not found", str(path))
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None:
                raise DataError("missing header row", fname, 1)
            missing = [c for c in required if c not in header]
            if missing:
                raise DataError(f"missing columns: {', '.join(missing)}", fname, 1)
            yield reader, header
        except csv.Error as exc:
            raise DataError(str(exc), fname, reader.line_num) from None
        except UnicodeDecodeError as exc:
            raise DataError(f"not UTF-8 text: {exc.reason}", fname) from None


def read_csv(path: Path, required: tuple[str, ...]):
    """Yield (line_number, row_dict) for every data row; checks the header.
    Blank lines are skipped, cells missing from a short row read as blank,
    and a non-blank cell past the header is an error.  The line number is
    the physical line on which the row ends."""
    with _open_csv(path, required) as (reader, header):
        width = len(header)
        for cells in reader:
            if not cells:
                continue
            if any(cell.strip() for cell in cells[width:]):
                raise DataError(f"row has {len(cells)} cells, header has {width}",
                                path.name, reader.line_num)
            cells += [""] * (width - len(cells))
            yield reader.line_num, dict(zip(header, cells))


def _cell(value) -> str:
    """The CSV text of one value: blank for None, ``repr`` for a float (a
    numpy float too, which ``repr`` alone writes as ``np.float64(...)``), and
    ``str`` for anything else."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_csv(path: Path | str, header, rows):
    """Write ``header`` and then ``rows``, each cell through ``_cell``, as
    UTF-8 CSV with ``\\n`` line ends on every platform: the format of every
    file the package writes, and the one ``read_csv`` reads back."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_cell(value) for value in row] for row in rows)


def _load_config(root: Path) -> dict:
    path = root / "config.json"
    if not path.exists():
        raise DataError("file not found", str(path))
    try:
        return json.loads(path.read_text(encoding="utf-8-sig"), parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise DataError(f"invalid JSON: {exc.msg}", "config.json", exc.lineno) from None
    except UnicodeDecodeError as exc:
        raise DataError(f"not UTF-8 text: {exc.reason}", "config.json") from None


def _json_int(text: str) -> int | float:
    """A JSON integer; one too large for a float reads as inf, as 1e400 does."""
    value = float(text)
    return int(text) if math.isfinite(value) else value


def _json_number(value, whole: bool = False) -> bool:
    """Whether a ``config.json`` value is a JSON number, and a whole one when
    ``whole``: ``int()`` and ``float()`` would also take the string "1",
    ``true`` (a Python int) and, for a count, 1.9 as 1."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return not whole or isinstance(value, int) or value.is_integer()


def load_system(root: Path | str) -> EnergySystem:
    """Load and cross-reference an energy system from a data directory.

    Raises DataError (naming file and line) on missing files, unresolved
    references and schema problems.  Out-of-range profile *values* are not
    errors; they are reported by validate_profiles.
    """
    root = Path(root)
    cfg = _load_config(root)

    for key in ("horizon", "mode", "nodes", "carriers", "peak_demand"):
        if key not in cfg:
            raise DataError(f"missing key {key!r}", "config.json")
    hz = cfg["horizon"]
    if not isinstance(hz, dict):
        raise DataError("'horizon' must be an object", "config.json")
    for key in ("num_periods", "hours_per_period"):
        if key not in hz:
            raise DataError(f"horizon is missing {key!r}", "config.json")
    counts = ("num_periods", "hours_per_period")
    for key in counts + ("timestep_hours", "hours_per_year"):
        if key in hz and not _json_number(hz[key], whole=key in counts):
            kind = "a whole number" if key in counts else "a number"
            raise DataError(f"bad horizon: {key} must be {kind}, got {json.dumps(hz[key])}",
                            "config.json")
    try:
        horizon = Horizon(
            num_periods=int(hz["num_periods"]),
            hours_per_period=int(hz["hours_per_period"]),
            timestep_hours=float(hz.get("timestep_hours", 1.0)),
            hours_per_year=(float(hz["hours_per_year"]) if "hours_per_year" in hz else None),
        )
    except ValueError as exc:
        raise DataError(f"bad horizon: {exc}", "config.json") from None
    if cfg["mode"] not in MODES:
        raise DataError(f"mode must be one of {MODES}, got {cfg['mode']!r}", "config.json")
    for key in ("nodes", "carriers"):
        if not isinstance(cfg[key], list):
            raise DataError(f"{key!r} must be a list of names", "config.json")
    nodes = sorted(str(n) for n in cfg["nodes"])
    carriers = sorted(str(x) for x in cfg["carriers"])
    if len(set(nodes)) != len(nodes) or len(set(carriers)) != len(carriers):
        raise DataError("duplicate node or carrier names", "config.json")

    if not isinstance(cfg["peak_demand"], dict):
        raise DataError("'peak_demand' must map node -> carrier -> MW", "config.json")
    peaks: dict[tuple[str, str], float] = {}
    for node, per_carrier in cfg["peak_demand"].items():
        if node not in nodes:
            raise DataError(f"peak_demand references unknown node {node!r}", "config.json")
        if not isinstance(per_carrier, dict):
            raise DataError(f"peak_demand[{node!r}] must map carrier -> MW", "config.json")
        for carrier, value in per_carrier.items():
            if carrier not in carriers:
                raise DataError(f"peak_demand references unknown carrier {carrier!r}", "config.json")
            where = f"peak_demand[{node!r}][{carrier!r}]"
            if not _json_number(value) or math.isnan(value):
                raise DataError(f"{where} must be a number", "config.json")
            if math.isinf(value):
                raise DataError(f"{where} must be finite", "config.json")
            if value < 0:
                raise DataError(f"{where} must be >= 0", "config.json")
            peaks[(node, carrier)] = float(value)

    assets = _load_assets(root / "assets.csv", nodes, carriers)
    asset_by_name = {a.name: a for a in assets}
    lines = _load_lines(root / "lines.csv", nodes, carriers)

    D, H = horizon.num_periods, horizon.hours_per_period
    given = _fill_hourly(
        root / "demand.csv", ("node", "carrier"), D, H,
        lambda key: None if key in peaks
        else f"demand for ({key[0]}, {key[1]}) has no peak_demand entry")
    demand = {key: given[key] if key in given else np.full((D, H), np.nan) for key in peaks}

    availability = _fill_hourly(
        root / "availability.csv", ("asset",), D, H,
        lambda key: None if key in asset_by_name else f"unknown asset {key!r}")

    def inflow_error(key):
        if key not in asset_by_name:
            return f"unknown asset {key!r}"
        if not asset_by_name[key].is_seasonal:
            return f"inflows given for non-seasonal asset {key!r}"
        return None

    inflow = _fill_hourly(root / "inflows.csv", ("asset",), D, H, inflow_error)

    storage_min = {a.name: np.zeros(D) for a in assets if a.is_seasonal}
    storage_max = {a.name: np.ones(D) for a in assets if a.is_seasonal}
    bounds_path = root / "storage_bounds.csv"
    if bounds_path.exists():
        fname = bounds_path.name
        seen: set[tuple[str, int]] = set()
        for ln, row in read_csv(bounds_path, ("asset", "period", "min_frac", "max_frac")):
            name = row["asset"].strip()
            if name not in asset_by_name:
                raise DataError(f"unknown asset {name!r}", fname, ln)
            if not asset_by_name[name].is_seasonal:
                raise DataError(f"storage bounds given for non-seasonal asset {name!r}",
                                fname, ln)
            period = _parse_int(row["period"], fname, ln, "period")
            if not 1 <= period <= D:
                raise DataError(f"period {period} outside 1..{D}", fname, ln)
            low = _parse_float(row["min_frac"], 0.0, fname, ln, "min_frac")
            high = _parse_float(row["max_frac"], 1.0, fname, ln, "max_frac")
            if (name, period) in seen:
                raise DataError(f"duplicate cell (period {period})", fname, ln)
            seen.add((name, period))
            if 0 <= high < low <= 1:  # out-of-range values are validation faults
                raise DataError(f"min_frac {low!r} > max_frac {high!r}", fname, ln)
            storage_min[name][period - 1] = low
            storage_max[name][period - 1] = high

    return EnergySystem(
        horizon=horizon,
        mode=cfg["mode"],
        nodes=nodes,
        carriers=carriers,
        assets=assets,
        lines=lines,
        peak_demand=peaks,
        demand=demand,
        availability=availability,
        inflow=inflow,
        storage_min=storage_min,
        storage_max=storage_max,
        name=root.name,
    )


def _fill_hourly(path: Path, key_columns: tuple[str, ...], D: int, H: int, key_error) -> dict:
    """Read an hourly profile CSV into (D, H) arrays keyed by the key
    columns (a string for one column, else a tuple), in order of first
    appearance.  Cells the file does not set are NaN, so that completeness
    can be validated afterwards.

    ``key_error(key)`` returns the message for a key the file may not use,
    or None.  The file is read as columns: period and hour are parsed with
    ``int`` once per distinct text, values with ``float``, each distinct key
    is checked once, period and hour ranges are checked on whole arrays, and
    all values are scattered with one assignment, after which a NaN value or
    a cell set twice shows as fewer set cells than rows.  Any fault, or a
    row whose width differs from the header's, sends the file through
    ``_fill_hourly_rows``, which raises the first fault in file order at its
    line.
    """
    columns = key_columns + ("period", "hour", "value")
    with _open_csv(path, columns) as (reader, header):
        # blank lines read as []; a tuple of strings drops out of the garbage
        # collector's tracking, a list per row would be walked by every
        # collection while the file is read
        rows = list(map(tuple, filter(None, reader)))
    if not rows:
        return {}
    if set(map(len, rows)) != {len(header)}:
        return _fill_hourly_rows(path, key_columns, D, H, key_error)
    index = {name: i for i, name in enumerate(header)}  # the last of a repeated name
    cells = list(zip(*rows))
    raw_keys = list(zip(*(cells[index[c]] for c in key_columns)))
    key_of = {raw: _hourly_key(raw) for raw in dict.fromkeys(raw_keys)}
    series = list(dict.fromkeys(key_of.values()))
    n = len(rows)
    try:
        period = np.fromiter(_parse_each(cells[index["period"]], int), np.int64, n)
        hour = np.fromiter(_parse_each(cells[index["hour"]], int), np.int64, n)
        value = np.fromiter(map(float, cells[index["value"]]), np.float64, n)
    except (ValueError, OverflowError):
        return _fill_hourly_rows(path, key_columns, D, H, key_error)
    if (any(map(key_error, series))
            or period.min() < 1 or period.max() > D or hour.min() < 1 or hour.max() > H):
        return _fill_hourly_rows(path, key_columns, D, H, key_error)
    block = np.full((len(series), D, H), np.nan)
    ids = {key: i for i, key in enumerate(series)}
    row_series = {raw: ids[key] for raw, key in key_of.items()}
    block[np.fromiter(map(row_series.__getitem__, raw_keys), np.intp, n),
          period - 1, hour - 1] = value
    if np.count_nonzero(~np.isnan(block)) < n:  # a NaN value, or a cell set twice
        return _fill_hourly_rows(path, key_columns, D, H, key_error)
    return dict(zip(series, block))


def _hourly_key(cells):
    """The series key of a row's key cells: stripped, and a string for one
    key column."""
    key = tuple(cell.strip() for cell in cells)
    return key[0] if len(key) == 1 else key


def _parse_each(column, parse):
    """``map(parse, column)``, calling ``parse`` once per distinct text."""
    parsed = {text: parse(text) for text in set(column)}
    return map(parsed.__getitem__, column)


def _fill_hourly_rows(path: Path, key_columns: tuple[str, ...], D: int, H: int,
                      key_error) -> dict:
    """``_fill_hourly`` one row at a time: checks each row in file order and
    raises DataError at the line of the first fault."""
    fname = path.name
    target: dict = {}
    for ln, row in read_csv(path, key_columns + ("period", "hour", "value")):
        key = _hourly_key(row[c] for c in key_columns)
        message = key_error(key)
        if message is not None:
            raise DataError(message, fname, ln)
        period = _parse_int(row["period"], fname, ln, "period")
        hour = _parse_int(row["hour"], fname, ln, "hour")
        if not 1 <= period <= D:
            raise DataError(f"period {period} outside 1..{D}", fname, ln)
        if not 1 <= hour <= H:
            raise DataError(f"hour {hour} outside 1..{H}", fname, ln)
        if row["value"].strip() == "":
            raise DataError("empty value", fname, ln)
        value = _parse_float(row["value"], math.nan, fname, ln, "value")
        series = target.get(key)
        if series is None:
            series = target[key] = np.full((D, H), np.nan)
        if not math.isnan(series[period - 1, hour - 1]):
            raise DataError(f"duplicate cell (period {period}, hour {hour})", fname, ln)
        series[period - 1, hour - 1] = value
    return target


def _load_assets(path: Path, nodes: list[str], carriers: list[str]) -> list[Asset]:
    fname = path.name
    assets: list[Asset] = []
    seen: set[str] = set()
    for ln, row in read_csv(path, ("name", "node", "kind")):
        get = lambda c: (row.get(c) or "").strip()
        name = get("name")
        if not name:
            raise DataError("empty asset name", fname, ln)
        if name in seen:
            raise DataError(f"duplicate asset {name!r}", fname, ln)
        seen.add(name)
        node = get("node")
        if node not in nodes:
            raise DataError(f"unknown node {node!r}", fname, ln)
        kind = get("kind")
        if kind not in ASSET_KINDS:
            raise DataError(f"unknown kind {kind!r}; expected one of {ASSET_KINDS}", fname, ln)
        carrier_in = get("carrier_in") or None
        carrier_out = get("carrier_out") or None
        for carrier in (carrier_in, carrier_out):
            if carrier is not None and carrier not in carriers:
                raise DataError(f"unknown carrier {carrier!r}", fname, ln)
        if kind == "producer" and carrier_out is None:
            raise DataError("producer needs carrier_out", fname, ln)
        if kind == "conversion" and (carrier_in is None or carrier_out is None):
            raise DataError("conversion needs carrier_in and carrier_out", fname, ln)
        if kind in ("storage_short", "storage_seasonal"):
            if carrier_out is None and carrier_in is None:
                raise DataError("storage needs a carrier", fname, ln)
            carrier_out = carrier_out or carrier_in
            carrier_in = carrier_in or carrier_out
        investable_text = get("investable").lower()
        if investable_text not in _BOOL_WORDS:
            raise DataError(f"column 'investable': not a boolean: {investable_text!r}", fname, ln)

        num = lambda c, dflt=0.0: _parse_float(get(c), dflt, fname, ln, c, finite=True)
        asset = Asset(
            name=name, node=node, kind=kind,
            carrier_in=carrier_in, carrier_out=carrier_out,
            investable=_BOOL_WORDS[investable_text],
            unit_capacity=num("unit_capacity"),
            existing_units=num("existing_units"),
            inv_cost=num("inv_cost"),
            var_cost=num("var_cost"),
            eff_in=num("eff_in", 1.0),
            eff_out=num("eff_out", 1.0),
            ramp=(None if get("ramp") == "" else num("ramp")),
            storage_cap=num("storage_cap"),
            inflow_max=num("inflow_max"),
            spill_cost=num("spill_cost"),
            borrow_cost=num("borrow_cost"),
            initial_storage=num("initial_storage"),
        )
        if not (0.0 < asset.eff_in <= 1.0 and 0.0 < asset.eff_out <= 1.0):
            raise DataError("efficiencies must be in (0, 1]", fname, ln)
        for column in ("unit_capacity", "existing_units", "inv_cost", "var_cost",
                       "storage_cap", "inflow_max", "spill_cost", "borrow_cost",
                       "initial_storage"):
            if getattr(asset, column) < 0:
                raise DataError(f"column {column!r} must be >= 0", fname, ln)
        if asset.ramp is not None and asset.ramp < 0:
            raise DataError("column 'ramp' must be >= 0", fname, ln)
        if (asset.spill_cost > 0 or asset.borrow_cost > 0) and not asset.has_inflows:
            raise DataError(
                "spill/borrow costs are only meaningful for seasonal storage with inflows",
                fname, ln)
        assets.append(asset)
    assets.sort(key=lambda a: a.name)
    return assets


def _load_lines(path: Path, nodes: list[str], carriers: list[str]) -> list[Line]:
    fname = path.name
    lines: list[Line] = []
    seen: set[str] = set()
    for ln, row in read_csv(path, ("name", "from_node", "to_node", "carrier",
                                   "import_limit", "export_limit")):
        name = row["name"].strip()
        if not name:
            raise DataError("empty line name", fname, ln)
        if name in seen:
            raise DataError(f"duplicate line {name!r}", fname, ln)
        seen.add(name)
        ends = row["from_node"].strip(), row["to_node"].strip()
        for node in ends:
            if node not in nodes:
                raise DataError(f"unknown node {node!r}", fname, ln)
        if ends[0] == ends[1]:
            raise DataError(f"line {name!r} connects node {ends[0]!r} to itself", fname, ln)
        carrier = row["carrier"].strip()
        if carrier not in carriers:
            raise DataError(f"unknown carrier {carrier!r}", fname, ln)
        imp = _parse_float(row["import_limit"], 0.0, fname, ln, "import_limit")
        exp = _parse_float(row["export_limit"], 0.0, fname, ln, "export_limit")
        if imp < 0 or exp < 0:
            raise DataError("line limits must be >= 0", fname, ln)
        lines.append(Line(name, *ends, carrier, imp, exp))
    lines.sort(key=lambda l: l.name)
    return lines


# --------------------------------------------------------------------------- #
# Validation and the clustering matrix
# --------------------------------------------------------------------------- #

def validate_profiles(system: EnergySystem) -> list[Violation]:
    """Check every profile value for range [0, 1] and completeness.

    Returns an empty list exactly when all demand, availability, inflow and
    storage-bound values are present and within range.  Violations come
    series by series (demand, availability, inflow, storage_min,
    storage_max; keys sorted) and cell by cell within a series, period
    before hour.  Each series is checked as one array; a ``Violation`` is
    built only for a bad cell.
    """
    violations: list[Violation] = []

    def scan(series_name: str, table: dict, key_fmt):
        for key in sorted(table):
            arr = table[key]
            for cell in zip(*np.nonzero(~((arr >= 0.0) & (arr <= 1.0)))):
                value = float(arr[cell])
                period = int(cell[0]) + 1
                hour = int(cell[1]) + 1 if arr.ndim == 2 else None
                # a NaN per-period storage bound is a range fault, not a missing value
                if hour is not None and math.isnan(value):
                    violations.append(Violation(series_name, key_fmt(key), period, hour, "missing"))
                else:
                    violations.append(
                        Violation(series_name, key_fmt(key), period, hour, "range", value))

    scan("demand", system.demand, lambda k: f"{k[0]}/{k[1]}")
    scan("availability", system.availability, lambda k: k)
    scan("inflow", system.inflow, lambda k: k)
    scan("storage_min", system.storage_min, lambda k: k)
    scan("storage_max", system.storage_max, lambda k: k)
    return violations


def require_valid(system: EnergySystem) -> EnergySystem:
    """Return ``system`` when ``validate_profiles`` finds nothing; otherwise
    raise DataError with the violation count and the first violation."""
    violations = validate_profiles(system)
    if violations:
        raise DataError(f"{len(violations)} profile violations; first: {violations[0]}")
    return system


def build_clustering_matrix(system: EnergySystem) -> ClusteringMatrix:
    """Stack demand, availability and inflow profiles into the
    feature-by-period matrix used by all clustering methods and, with every
    period as its own column, by the full model.

    Every demand and inflow series is stacked, and the availability of
    every asset, of any kind, whose profile drops below 1 somewhere.
    Requires a system that passed validation (``require_valid``).  Row order
    is deterministic: demand series sorted by (node, carrier), availability
    and inflow series sorted by asset name, hours innermost.
    """
    H = system.horizon.hours_per_period
    D = system.horizon.num_periods

    blocks: list[np.ndarray] = []
    row_keys: list[tuple] = []
    for node, carrier in sorted(system.demand):
        blocks.append(system.demand[(node, carrier)].T)  # (H, D)
        row_keys.extend(("demand", node, carrier, h + 1) for h in range(H))
    for name in sorted(system.availability):
        profile = system.availability[name]
        if np.any(profile < 1.0):  # an always-available asset needs no rows
            blocks.append(profile.T)
            row_keys.extend(("availability", name, h + 1) for h in range(H))
    for name in sorted(system.inflow):
        blocks.append(system.inflow[name].T)
        row_keys.extend(("inflow", name, h + 1) for h in range(H))

    values = np.vstack(blocks) if blocks else np.zeros((0, D))
    return ClusteringMatrix(values=values, row_keys=row_keys)


def extract_rep_profiles(system: EnergySystem, selection,
                         cmatrix: ClusteringMatrix) -> ClusteringMatrix:
    """The representatives of a RepSelection, hull points, medoids and
    centroids alike: the rows of ``cmatrix`` with one column per
    representative, ``selection.rep_matrix``.  ``system`` is not read."""
    return ClusteringMatrix(selection.rep_matrix, cmatrix.row_keys)

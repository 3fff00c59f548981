"""Linear-program assembly for the generation-expansion (gep) and
power-to-x dispatch (p2x) models, full or reduced to representative periods.

The reduced model keeps intra-period operation variables on the
representatives only, while inter-period storage levels and inter-period
ramping live on all base periods and couple to the representatives through
the blending-weight matrix.  Building with every period as its own
representative and identity hard-assignment weights yields the full model.

The model is held as arrays in the form HiGHS's ``passModel`` takes:
``lb``, ``ub`` and ``cost`` per column, and row ``i``'s terms
``starts[i]:starts[i + 1]`` of ``col`` and ``val``, in emission order, each
column at most once per row, and bounds ``lower[i]``, ``upper[i]`` (``==``
is ``[rhs, rhs]``, ``<=`` ``[-inf, rhs]``, ``>=`` ``[rhs, +inf]``).  Named
blocks (kind, asset, labelled axes, index array) describe which columns and
rows belong together; ``build_model`` emits each variable kind and each
constraint family as one vectorized block per asset, and a paired family
(such as rampup/rampdn) as one ``add_rows`` call named by two blocks that
split its pair axis.  Names are made from the blocks only on demand, for LP
export and the ``solve-full`` CSV.  The module knows no solver:
``solve.Solution`` holds values by column position.

Variable names follow the scheme kind_asset_r{rep}_h{hour} (e.g.
pout_g1_r2_h5); representative, hour and period indices are 1-based.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from itertools import product
from typing import TYPE_CHECKING

import numpy as np

from .data import MODES, ClusteringMatrix, EnergySystem, build_clustering_matrix
from .weights import WeightMatrix

if TYPE_CHECKING:
    from .solve import Solution

INT32_MAX = 2**31 - 1  # HiGHS indexes columns, rows and terms with int32


@dataclass(frozen=True, eq=False)
class Block:
    """Names of a group of columns or rows.

    Entry ``i`` of ``index`` (the global column or row index, any shape) is
    named ``kind_asset`` (``kind`` alone when ``asset`` is None) followed by
    ``_{letter}{label}`` for each letter of ``axes``; labels count from
    ``first`` (1 per axis when empty).
    """

    kind: str
    asset: str | None
    axes: str
    index: np.ndarray
    first: tuple[int, ...] = ()

    def names(self) -> list[str]:
        prefix = self.kind if self.asset is None else f"{self.kind}_{self.asset}"
        first = self.first or (1,) * len(self.axes)
        grids = [[f"_{letter}{start + i}" for i in range(count)]
                 for letter, start, count in zip(self.axes, first, self.index.shape)]
        return [prefix + "".join(labels) for labels in product(*grids)]


def _joined(arrays: tuple, parts: list[tuple]) -> tuple:
    """Each array with the matching array of every part appended."""
    return tuple(np.concatenate([a] + [p[i] for p in parts]) for i, a in enumerate(arrays))


def _names(blocks: list[Block], count: int) -> list[str]:
    names = np.empty(count, dtype=object)
    for block in blocks:
        names[block.index.ravel()] = block.names()
    return names.tolist()


class LpModel:
    """A linear program held as arrays, with deterministic column and row
    order (see the module docstring).

    ``add_vars``/``add_rows`` append unnamed blocks that
    ``name_vars``/``name_rows`` then name.  Appends are buffered and joined
    into the arrays when these are next read.  ``first_stage`` is the kind
    of block that ``fix_decisions`` pins (None: the model declares none).
    """

    def __init__(self, name: str = "model"):
        self.name = name
        self.first_stage: str | None = None
        self.var_blocks: list[Block] = []
        self.row_blocks: list[Block] = []
        self._num_vars = 0
        self._num_rows = 0
        self._num_terms = 0
        self._columns = (np.zeros(0), np.zeros(0), np.zeros(0))  # lb, ub, cost
        self._rows = (np.zeros(1, np.int32), np.zeros(0, np.int32), np.zeros(0),
                      np.zeros(0), np.zeros(0))  # starts, col, val, lower, upper
        self._new_columns: list[tuple] = []
        self._new_rows: list[tuple] = []
        self._names: list[str] | None = None

    # -- columns ---------------------------------------------------------

    def add_vars(self, shape: tuple[int, ...], lb=0.0, ub=math.inf) -> np.ndarray:
        """Append unnamed columns; ``lb`` and ``ub`` broadcast to ``shape``.
        Returns their indices, shaped ``shape``."""
        count = math.prod(shape)
        if self._num_vars + count > INT32_MAX:
            raise ValueError(f"a model holds at most {INT32_MAX} columns")
        index = np.arange(self._num_vars, self._num_vars + count).reshape(shape)
        self._new_columns.append(
            tuple(np.broadcast_to(np.asarray(bound, dtype=float), shape).ravel()
                  for bound in (lb, ub)) + (np.zeros(count),))
        self._num_vars += count
        return index

    def name_vars(self, kind: str, asset: str | None, axes: str, index):
        """Name the columns at ``index`` (see ``Block``)."""
        self.var_blocks.append(Block(kind, asset, axes, np.asarray(index)))
        self._names = None

    def _column_arrays(self) -> tuple[np.ndarray, ...]:
        if self._new_columns:
            self._columns, self._new_columns = _joined(self._columns, self._new_columns), []
        return self._columns

    lb = property(lambda self: self._column_arrays()[0], doc="Lower bounds.")
    ub = property(lambda self: self._column_arrays()[1], doc="Upper bounds.")
    cost = property(lambda self: self._column_arrays()[2], doc="Objective coefficients.")

    @property
    def var_names(self) -> list[str]:
        """Column names in index order, made from the blocks on first use."""
        if self._names is None:
            self._names = _names(self.var_blocks, self._num_vars)
        return self._names

    # -- rows --------------------------------------------------------------

    def add_rows(self, cols, vals, sense: str, rhs=0.0, keep=None) -> np.ndarray:
        """Append one row per entry of ``cols.shape[:-1]``, whose last axis
        lists each row's terms in order, each column at most once (HiGHS
        refuses a row that repeats one); ``vals`` and ``keep`` (a mask that
        drops terms) broadcast to ``cols``, ``rhs`` to the row shape.
        Returns the row indices, shaped like the rows."""
        if sense not in ("==", "<=", ">="):
            raise ValueError("sense must be one of ('==', '<=', '>=')")
        cols = np.asarray(cols, dtype=np.int64)
        shape, width = cols.shape[:-1], cols.shape[-1]
        count = math.prod(shape)
        terms = count * width if keep is None else \
            np.count_nonzero(np.broadcast_to(keep, cols.shape))
        if self._num_rows + count > INT32_MAX or self._num_terms + terms > INT32_MAX:
            raise ValueError(f"a model holds at most {INT32_MAX} rows and terms")
        cols = cols.reshape(count, width)
        # 0.0 + v: no coefficient is -0.0 (such as -factor at zero
        # availability); a -0.0 would change the bytes that model_key hashes
        # and miss every full_<key>.npz cached before
        vals = np.broadcast_to(np.asarray(vals, dtype=float), shape + (width,)).reshape(
            count, width) + 0.0
        if keep is None:
            sizes, cols, vals = np.full(count, width), cols.ravel(), vals.ravel()
        else:
            keep = np.broadcast_to(keep, shape + (width,)).reshape(count, width)
            sizes, cols, vals = np.count_nonzero(keep, axis=1), cols[keep], vals[keep]
        bad = cols[(cols < 0) | (cols >= self._num_vars)]
        if bad.size:
            raise ValueError(f"row references unknown variable index {bad[0]}")
        ends = self._num_terms + np.cumsum(sizes)
        rhs = np.broadcast_to(np.asarray(rhs, dtype=float), shape).ravel()
        self._new_rows.append((ends.astype(np.int32), cols.astype(np.int32), vals,
                               np.full(count, -math.inf) if sense == "<=" else rhs,
                               np.full(count, math.inf) if sense == ">=" else rhs))
        index = np.arange(self._num_rows, self._num_rows + count)
        self._num_rows += count
        self._num_terms += vals.size
        return index.reshape(shape)

    def name_rows(self, kind: str, asset: str | None, axes: str, index, first=()):
        """Name the rows at ``index`` (see ``Block``)."""
        self.row_blocks.append(Block(kind, asset, axes, np.asarray(index), tuple(first)))

    def _row_arrays(self) -> tuple[np.ndarray, ...]:
        if self._new_rows:
            self._rows, self._new_rows = _joined(self._rows, self._new_rows), []
        return self._rows

    starts = property(lambda self: self._row_arrays()[0], doc="Each row's first term; the end.")
    col = property(lambda self: self._row_arrays()[1], doc="Column index of each term.")
    val = property(lambda self: self._row_arrays()[2], doc="Coefficient of each term.")
    lower = property(lambda self: self._row_arrays()[3], doc="Lower bound per row.")
    upper = property(lambda self: self._row_arrays()[4], doc="Upper bound per row.")

    def row_names(self) -> list[str]:
        """Row names in index order, made from the blocks."""
        return _names(self.row_blocks, self._num_rows)

    @property
    def num_vars(self) -> int:
        return self._num_vars

    @property
    def num_constraints(self) -> int:
        return self._num_rows

    def _with_bounds(self, lb: np.ndarray, ub: np.ndarray) -> "LpModel":
        """A model that shares this one's rows, blocks and names (if made)
        and owns the given bounds and a copy of the cost."""
        clone = copy.copy(self)
        clone.var_blocks = list(self.var_blocks)
        clone.row_blocks = list(self.row_blocks)
        clone._rows = self._row_arrays()
        clone._columns = (lb, ub, self.cost.copy())
        clone._new_columns, clone._new_rows = [], []
        return clone


def identity_weights(num_periods: int) -> WeightMatrix:
    """Hard-assignment weights mapping every period to itself."""
    return WeightMatrix(np.eye(num_periods), "dirac", np.zeros(num_periods))


def _terms(shape: tuple[int, ...], pairs) -> tuple[np.ndarray, np.ndarray]:
    """Stack (column index, coefficient) pairs, each broadcast to ``shape``,
    along a new last axis: the term axis of ``LpModel.add_rows``."""
    if not pairs:
        return np.zeros(shape + (0,), dtype=np.int64), np.zeros(shape + (0,))
    cols = np.stack([np.broadcast_to(col, shape) for col, _ in pairs], axis=-1)
    vals = np.stack([np.broadcast_to(np.asarray(val, dtype=float), shape)
                     for _, val in pairs], axis=-1)
    return cols, vals


def build_model(
    system: EnergySystem,
    reps: ClusteringMatrix,
    weight_matrix: WeightMatrix,
) -> LpModel:
    """Assemble the cost-minimization LP on the given representatives.

    ``reps`` has one clustering-matrix column per representative; each
    series is read with ``reps.profile``, and one without rows is zero
    demand or inflow, or full availability.
    The system's declared ``mode`` selects the formulation: in gep,
    investable producers get free investment variables; in p2x every
    capacity is fixed by its existing units.  Absolute-value ramping
    restrictions become paired inequalities; upper/lower limits that involve
    a single variable and constants (storage levels, line flows) are emitted
    as variable bounds.
    """
    if system.mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    hz = system.horizon
    D, H, tau = hz.num_periods, hz.hours_per_period, hz.timestep_hours
    R = reps.values.shape[1]
    W = weight_matrix.values
    if weight_matrix.n_periods != D:
        raise ValueError(
            f"weight matrix has {weight_matrix.n_periods} period rows, system has {D}")
    if weight_matrix.n_rp != R:
        raise ValueError(
            f"weight matrix has {weight_matrix.n_rp} representative columns, profiles have {R}")
    rep_totals = weight_matrix.rep_totals

    m = LpModel(name=f"{system.name}-{system.mode}-{R}rp")
    m.first_stage = "inv" if system.mode == "gep" else "sinter"

    def variables(kind, asset, axes, shape, lb=0.0, ub=math.inf):
        index = m.add_vars(shape, lb, ub)
        m.name_vars(kind, asset, axes, index)
        return index

    def rows(kind, asset, axes, cols, vals, sense, rhs=0.0, keep=None):
        m.name_rows(kind, asset, axes, m.add_rows(cols, vals, sense, rhs, keep))

    producers = system.producers
    storages = system.storages
    seasonals = system.seasonal_storages
    conversions = system.conversions
    investables = [a for a in producers if a.investable] if system.mode == "gep" else []
    RH = (R, H)

    cinv = variables("cinv", None, "", ())
    cop = variables("cop", None, "", ())
    inv = {a.name: variables("inv", a.name, "", ()) for a in investables}
    cap = {a.name: variables("cap", a.name, "", ()) for a in system.assets}
    pout = {a.name: variables("pout", a.name, "rh", RH) for a in system.assets}
    pin = {a.name: variables("pin", a.name, "rh", RH) for a in storages + conversions}
    flow = {line.name: variables("flow", line.name, "rh", RH,
                                 lb=-line.import_limit, ub=line.export_limit)
            for line in system.lines}
    # per storage and representative: the H intra levels, then the start level
    sintra, sintra0 = {}, {}
    for s in storages:
        index = m.add_vars((R, H + 1), ub=np.append(np.full(H, float(s.storage_cap)), math.inf))
        sintra[s.name], sintra0[s.name] = index[:, :H], index[:, H]
        m.name_vars("sintra", s.name, "rh", sintra[s.name])
        m.name_vars("sintra0", s.name, "r", sintra0[s.name])
    sinter, sinter0 = {}, {}
    for s in seasonals:
        sinter[s.name] = variables(
            "sinter", s.name, "d", (D,),
            lb=np.asarray(system.storage_min[s.name], dtype=float) * s.storage_cap,
            ub=np.asarray(system.storage_max[s.name], dtype=float) * s.storage_cap)
        sinter0[s.name] = variables("sinter0", s.name, "", ())
    # spill and borrow alternate hour by hour
    spill, borrow = {}, {}
    for s in seasonals:
        if s.has_inflows:
            index = m.add_vars((R, H, 2))
            spill[s.name], borrow[s.name] = index[..., 0], index[..., 1]
            m.name_vars("spill", s.name, "rh", spill[s.name])
            m.name_vars("borrow", s.name, "rh", borrow[s.name])

    # total investment cost
    rows("def_cinv", None, "", *_terms((), [(cinv, 1.0)] + [
        (inv[a.name], -a.inv_cost * a.unit_capacity) for a in investables]), "==")

    # total operational cost, annualized and weighted by representative
    # totals; terms run representative by representative
    scale = hz.operational_weight * rep_totals
    cols, vals = [], []
    for g in producers:
        if g.var_cost != 0.0:
            cols.append(pout[g.name])
            vals.append(np.broadcast_to((-scale * g.var_cost)[:, None], RH))
    for s in seasonals:
        if not s.has_inflows:
            continue
        pairs = []
        if s.spill_cost:
            pairs.append((spill[s.name], -scale * s.spill_cost / tau))
        if s.borrow_cost:
            pairs.append((borrow[s.name], -scale * s.borrow_cost / tau))
        if pairs:
            cols.append(np.stack([c for c, _ in pairs], axis=-1).reshape(R, -1))
            vals.append(np.stack([np.broadcast_to(v[:, None], RH) for _, v in pairs],
                                 axis=-1).reshape(R, -1))
    active = scale != 0.0
    op_cols = np.concatenate(cols, axis=1)[active].ravel() if cols else np.zeros(0, np.int64)
    op_vals = np.concatenate(vals, axis=1)[active].ravel() if vals else np.zeros(0)
    rows("def_cop", None, "", np.append(cop, op_cols), np.append(1.0, op_vals), "==")

    # node balance per node, carrier, representative, hour
    for node in system.nodes:
        for carrier in system.carriers:
            pairs = [(pout[a.name], 1.0) for a in system.assets
                     if a.node == node and a.carrier_out == carrier]
            pairs += [(pin[a.name], -1.0) for a in storages + conversions
                      if a.node == node and a.carrier_in == carrier]
            pairs += [(flow[l.name], -1.0) for l in system.lines
                      if l.from_node == node and l.carrier == carrier]
            pairs += [(flow[l.name], 1.0) for l in system.lines
                      if l.to_node == node and l.carrier == carrier]
            peak = system.peak_demand.get((node, carrier), 0.0)
            profile = reps.profile("demand", node, carrier)
            rhs = peak * profile if profile is not None else 0.0
            rows("balance", f"{node}_{carrier}", "rh", *_terms(RH, pairs), "==", rhs)

    # intra-period storage balance (state of charge recursion within a rep)
    for s in storages:
        prev = np.concatenate([sintra0[s.name][:, None], sintra[s.name][:, :-1]], axis=1)
        pairs = [(sintra[s.name], 1.0), (prev, -1.0), (pin[s.name], -s.eff_in * tau),
                 (pout[s.name], tau / s.eff_out)]
        rhs = 0.0
        if s.is_seasonal:
            if s.has_inflows:
                pairs += [(spill[s.name], 1.0), (borrow[s.name], -1.0)]
            inflow_profile = reps.profile("inflow", s.name)
            if inflow_profile is not None:
                rhs = inflow_profile * s.inflow_max
        rows("intra", s.name, "rh", *_terms(RH, pairs), "==", rhs)

    # inter-period storage balance: chronological recovery through the
    # weights; per period the level, the previous level, then for each
    # representative with a nonzero weight its end and start intra levels
    nonzero = W != 0.0
    for s in seasonals:
        prev = np.append(sinter0[s.name], sinter[s.name][:-1])
        ends = np.stack([np.broadcast_to(sintra[s.name][:, H - 1], (D, R)),
                         np.broadcast_to(sintra0[s.name], (D, R))], axis=-1).reshape(D, 2 * R)
        cols = np.concatenate([sinter[s.name][:, None], prev[:, None], ends], axis=1)
        vals = np.concatenate([np.ones((D, 1)), -np.ones((D, 1)),
                               np.stack([-W, W], axis=-1).reshape(D, 2 * R)], axis=1)
        keep = np.concatenate([np.ones((D, 2), bool), np.repeat(nonzero, 2, axis=1)], axis=1)
        rows("inter", s.name, "d", cols, vals, "==", keep=keep)

    # cyclic constraints: initial and final levels pinned to the preset value,
    # plus the tether that fixes the intra-level offset
    for s in seasonals:
        rows("cyc0", s.name, "", [sinter0[s.name]], 1.0, "==", s.initial_storage)
        rows("cycend", s.name, "", [sinter[s.name][D - 1]], 1.0, "==", s.initial_storage)
        rows("tether", s.name, "", sintra[s.name][:, H - 1], W[D - 1], "==",
             s.initial_storage, keep=nonzero[D - 1])

    # short-term storage cycles within each representative
    for s in storages:
        if not s.is_seasonal:
            rows("intracyc", s.name, "r", *_terms(
                (R,), [(sintra[s.name][:, H - 1], 1.0), (sintra0[s.name], -1.0)]), "==")

    # conversion balance
    for c in conversions:
        rows("conv", c.name, "rh", *_terms(
            RH, [(pin[c.name], c.eff_in), (pout[c.name], -1.0 / c.eff_out)]), "==")

    # accumulated capacity from existing plus invested units
    for a in system.assets:
        pairs = [(cap[a.name], 1.0)]
        if a.name in inv:
            pairs.append((inv[a.name], -a.unit_capacity))
        rows("units", a.name, "", *_terms((), pairs), "==",
             a.unit_capacity * a.existing_units)

    # availability-capped production and capacity-capped consumption
    for a in system.assets:
        avail = reps.profile("availability", a.name)
        factor = avail if avail is not None else 1.0
        rows("maxout", a.name, "rh", *_terms(RH, [(pout[a.name], 1.0), (cap[a.name], -factor)]),
             "<=")
    for s in storages:
        rows("maxin", s.name, "rh", *_terms(RH, [(pin[s.name], 1.0), (cap[s.name], -1.0)]), "<=")

    # ramping within a representative (paired inequalities for |.|, the up
    # and down rows of each hour next to each other: one add_rows call whose
    # last row axis is up/down, named as two blocks)
    updown = np.array([1.0, -1.0])
    for g in producers:
        if g.ramp is None or H == 1:
            continue
        limit = g.ramp * tau
        now, before = pout[g.name][:, 1:, None], pout[g.name][:, :-1, None]
        index = m.add_rows(*_terms((R, H - 1, 2), [(now, updown), (before, -updown),
                                                   (cap[g.name], -limit)]), "<=")
        m.name_rows("rampup", g.name, "rh", index[..., 0], first=(1, 2))
        m.name_rows("rampdn", g.name, "rh", index[..., 1], first=(1, 2))

    # ramping across consecutive base periods through the blended weights;
    # per representative the first hour of period d, then the last hour of
    # period d - 1; when H = 1 these are one variable, so each representative
    # has one term, the difference of its weights in d and d - 1
    for g in producers:
        if g.ramp is None or D == 1:
            continue
        limit = g.ramp * tau
        first = np.broadcast_to(pout[g.name][:, 0], (D - 1, R))
        if H == 1:
            cols, expr, keep = first, W[1:] - W[:-1], nonzero[1:] | nonzero[:-1]
        else:
            last = np.broadcast_to(pout[g.name][:, H - 1], (D - 1, R))
            cols = np.stack([first, last], axis=-1).reshape(D - 1, 2 * R)
            expr = np.stack([W[1:], -W[:-1]], axis=-1).reshape(D - 1, 2 * R)
            keep = np.stack([nonzero[1:], nonzero[:-1]], axis=-1).reshape(D - 1, 2 * R)
        cols = np.append(cols, np.full((D - 1, 1), cap[g.name]), axis=1)
        vals = np.append(updown[:, None] * expr[:, None], np.full((D - 1, 2, 1), -limit), axis=2)
        keep = np.append(keep, np.ones((D - 1, 1), bool), axis=1)
        index = m.add_rows(np.broadcast_to(cols[:, None], vals.shape), vals, "<=",
                           keep=keep[:, None])
        m.name_rows("irampup", g.name, "d", index[:, 0], first=(2,))
        m.name_rows("irampdn", g.name, "d", index[:, 1], first=(2,))

    m.cost[[cinv, cop]] = 1.0
    return m


def build_full_model(system: EnergySystem) -> LpModel:
    """The unreduced model: every base period is its own representative."""
    return build_model(system, build_clustering_matrix(system),
                       identity_weights(system.horizon.num_periods))


def fix_decisions(full_model: LpModel, reduced_model: LpModel,
                  reduced_solution: Solution) -> LpModel:
    """Pin the reduced model's first-stage decisions, the blocks of the
    models' ``first_stage`` kind, into the full model.

    gep: every investment variable (the ``inv`` blocks) is fixed to its
    reduced value.
    p2x: every inter-period storage level (the ``sinter`` blocks) is fixed
    to its reduced value (the reduced model keeps these on all base periods,
    where they equal the blended reconstruction from the representative
    intra-period levels).  A full model without a first stage, or two
    models that disagree on it, is a ValueError.

    Values come from ``reduced_solution.x`` at the reduced model's block of
    the same kind, asset and shape, clamped into the variable's bounds to
    absorb solver round-off.  The fixed model shares the full model's rows
    and blocks and owns its bounds, so the full model is left unchanged.
    """
    kind = full_model.first_stage
    if kind is None or reduced_model.first_stage != kind:
        raise ValueError(f"the full model's first stage is {kind}, "
                         f"the reduced model's is {reduced_model.first_stage}")
    if reduced_solution.status != "optimal":
        raise ValueError(f"reduced solution is {reduced_solution.status}, not optimal")
    reduced = {b.asset: b.index for b in reduced_model.var_blocks if b.kind == kind}
    blocks = [b for b in full_model.var_blocks if b.kind == kind]
    for block in blocks:
        if block.asset not in reduced or reduced[block.asset].shape != block.index.shape:
            raise ValueError(f"the reduced model has no {kind} block of asset "
                             f"{block.asset!r} shaped {block.index.shape}")
    index = np.concatenate([b.index.ravel() for b in blocks] + [np.zeros(0, np.int64)])
    source = np.concatenate([reduced[b.asset].ravel() for b in blocks] + [np.zeros(0, np.int64)])
    value = reduced_solution.x[source]
    lb, ub = full_model.lb.copy(), full_model.ub.copy()
    value = np.where(lb[index] > value, lb[index], value)  # max(value, lb)
    value = np.where(ub[index] < value, ub[index], value)  # min(value, ub)
    lb[index] = value
    ub[index] = value
    return full_model._with_bounds(lb, ub)

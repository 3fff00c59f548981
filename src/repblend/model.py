"""Linear-program assembly for the generation-expansion (gep) and
power-to-x dispatch (p2x) models, full or reduced to representative periods.

The reduced model keeps intra-period operation variables on the
representatives only, while inter-period storage levels and inter-period
ramping live on all base periods and couple to the representatives through
the blending-weight matrix.  Building with every period as its own
representative and identity hard-assignment weights yields the full model.

Variable names follow the scheme kind_asset_r{rep}_h{hour} (e.g.
pout_g1_r2_h5); representative, hour and period indices are 1-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import EnergySystem, MODES, RepProfiles
from .weights import WeightMatrix

SENSES = ("==", "<=", ">=")

SOLUTION_STATUSES = ("optimal", "infeasible", "unbounded", "error")


@dataclass
class Variable:
    name: str
    lb: float = 0.0
    ub: float = math.inf


@dataclass
class Constraint:
    name: str
    terms: list[tuple[int, float]]  # (variable index, coefficient)
    sense: str
    rhs: float


@dataclass
class Solution:
    """Outcome of one solve: objective and variable values when optimal."""

    status: str
    objective: float | None = None
    values: dict[str, float] = field(default_factory=dict)
    solve_time: float = 0.0

    def __post_init__(self):
        if self.status not in SOLUTION_STATUSES:
            raise ValueError(f"status must be one of {SOLUTION_STATUSES}")


class LpModel:
    """A linear program with deterministic variable and constraint order."""

    def __init__(self, name: str = "model", metadata: dict | None = None):
        self.name = name
        self.variables: list[Variable] = []
        self.constraints: list[Constraint] = []
        self.objective: dict[int, float] = {}
        self.metadata: dict = metadata or {}
        self._index: dict[str, int] = {}

    def add_var(self, name: str, lb: float = 0.0, ub: float = math.inf) -> int:
        if name in self._index:
            raise ValueError(f"duplicate variable {name!r}")
        self.variables.append(Variable(name, float(lb), float(ub)))
        self._index[name] = len(self.variables) - 1
        return self._index[name]

    def add_constr(self, name: str, terms, sense: str, rhs: float):
        """Add a row; duplicate variable entries are merged (summed) keeping
        first-occurrence order."""
        if sense not in SENSES:
            raise ValueError(f"sense must be one of {SENSES}")
        merged: dict[int, float] = {}
        for idx, coef in terms:
            if not 0 <= idx < len(self.variables):
                raise ValueError(f"constraint {name!r} references unknown variable index {idx}")
            merged[idx] = merged.get(idx, 0.0) + float(coef)
        self.constraints.append(Constraint(name, list(merged.items()), sense, float(rhs)))

    def var_index(self, name: str) -> int:
        return self._index[name]

    def has_var(self, name: str) -> bool:
        return name in self._index

    @property
    def num_vars(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    def variable_names(self) -> list[str]:
        return [v.name for v in self.variables]

    def copy(self) -> "LpModel":
        clone = LpModel(self.name, dict(self.metadata))
        clone.variables = [Variable(v.name, v.lb, v.ub) for v in self.variables]
        clone.constraints = [Constraint(c.name, list(c.terms), c.sense, c.rhs)
                             for c in self.constraints]
        clone.objective = dict(self.objective)
        clone._index = dict(self._index)
        return clone


def identity_weights(num_periods: int) -> WeightMatrix:
    """Hard-assignment weights mapping every period to itself."""
    return WeightMatrix(np.eye(num_periods), "dirac", np.zeros(num_periods))


def build_model(
    system: EnergySystem,
    rep_data: RepProfiles,
    weight_matrix: WeightMatrix,
    mode: str | None = None,
) -> LpModel:
    """Assemble the cost-minimization LP on the given representatives.

    In gep mode, investable producers get free investment variables; in p2x
    every capacity is fixed by its existing units.  Absolute-value ramping
    restrictions become paired inequalities; upper/lower limits that involve
    a single variable and constants (storage levels, line flows) are emitted
    as variable bounds.
    """
    mode = mode or system.mode
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    hz = system.horizon
    D, H, tau = hz.num_periods, hz.hours_per_period, hz.timestep_hours
    R = rep_data.n_rp
    W = weight_matrix.values
    if weight_matrix.n_periods != D:
        raise ValueError(
            f"weight matrix has {weight_matrix.n_periods} period rows, system has {D}")
    if weight_matrix.n_rp != R:
        raise ValueError(
            f"weight matrix has {weight_matrix.n_rp} representative columns, profiles have {R}")
    rep_totals = weight_matrix.rep_totals

    m = LpModel(
        name=f"{system.name}-{mode}-{R}rp",
        metadata={
            "system": system.name,
            "mode": mode,
            "n_rp": R,
            "weight_type": weight_matrix.weight_type,
        },
    )

    producers = system.producers
    storages = system.storages
    seasonals = system.seasonal_storages
    conversions = system.conversions
    investables = [a for a in producers if a.investable] if mode == "gep" else []

    cinv = m.add_var("cinv")
    cop = m.add_var("cop")
    inv = {a.name: m.add_var(f"inv_{a.name}") for a in investables}
    cap = {a.name: m.add_var(f"cap_{a.name}") for a in system.assets}

    pout = {}
    for a in system.assets:
        for r in range(R):
            for h in range(H):
                pout[(a.name, r, h)] = m.add_var(f"pout_{a.name}_r{r + 1}_h{h + 1}")
    pin = {}
    for a in storages + conversions:
        for r in range(R):
            for h in range(H):
                pin[(a.name, r, h)] = m.add_var(f"pin_{a.name}_r{r + 1}_h{h + 1}")
    flow = {}
    for line in system.lines:
        for r in range(R):
            for h in range(H):
                flow[(line.name, r, h)] = m.add_var(
                    f"flow_{line.name}_r{r + 1}_h{h + 1}",
                    lb=-line.import_limit, ub=line.export_limit)
    sintra = {}
    sintra0 = {}
    for s in storages:
        for r in range(R):
            for h in range(H):
                sintra[(s.name, r, h)] = m.add_var(
                    f"sintra_{s.name}_r{r + 1}_h{h + 1}", ub=s.storage_cap)
            sintra0[(s.name, r)] = m.add_var(f"sintra0_{s.name}_r{r + 1}")
    sinter = {}
    sinter0 = {}
    for s in seasonals:
        for d in range(D):
            sinter[(s.name, d)] = m.add_var(
                f"sinter_{s.name}_d{d + 1}",
                lb=system.storage_min[s.name][d] * s.storage_cap,
                ub=system.storage_max[s.name][d] * s.storage_cap)
        sinter0[s.name] = m.add_var(f"sinter0_{s.name}")
    spill = {}
    borrow = {}
    for s in seasonals:
        if not s.has_inflows:
            continue
        for r in range(R):
            for h in range(H):
                spill[(s.name, r, h)] = m.add_var(f"spill_{s.name}_r{r + 1}_h{h + 1}")
                borrow[(s.name, r, h)] = m.add_var(f"borrow_{s.name}_r{r + 1}_h{h + 1}")

    # total investment cost
    terms = [(cinv, 1.0)]
    terms += [(inv[a.name], -a.inv_cost * a.unit_capacity) for a in investables]
    m.add_constr("def_cinv", terms, "==", 0.0)

    # total operational cost, annualized and weighted by representative totals
    w_op = hz.operational_weight
    terms = [(cop, 1.0)]
    for r in range(R):
        scale = w_op * rep_totals[r]
        if scale == 0.0:
            continue
        for g in producers:
            if g.var_cost == 0.0:
                continue
            for h in range(H):
                terms.append((pout[(g.name, r, h)], -scale * g.var_cost))
        for s in seasonals:
            if not s.has_inflows:
                continue
            for h in range(H):
                if s.spill_cost:
                    terms.append((spill[(s.name, r, h)], -scale * s.spill_cost / tau))
                if s.borrow_cost:
                    terms.append((borrow[(s.name, r, h)], -scale * s.borrow_cost / tau))
    m.add_constr("def_cop", terms, "==", 0.0)

    # node balance per node, carrier, representative, hour
    for node in system.nodes:
        for carrier in system.carriers:
            injectors = [a for a in system.assets if a.node == node and a.carrier_out == carrier]
            withdrawers = [a for a in storages + conversions
                           if a.node == node and a.carrier_in == carrier]
            lines_out = [l for l in system.lines if l.from_node == node and l.carrier == carrier]
            lines_in = [l for l in system.lines if l.to_node == node and l.carrier == carrier]
            peak = system.peak_demand.get((node, carrier), 0.0)
            profile = rep_data.demand.get((node, carrier))
            for r in range(R):
                for h in range(H):
                    terms = [(pout[(a.name, r, h)], 1.0) for a in injectors]
                    terms += [(pin[(a.name, r, h)], -1.0) for a in withdrawers]
                    terms += [(flow[(l.name, r, h)], -1.0) for l in lines_out]
                    terms += [(flow[(l.name, r, h)], 1.0) for l in lines_in]
                    rhs = peak * profile[r, h] if profile is not None else 0.0
                    m.add_constr(f"balance_{node}_{carrier}_r{r + 1}_h{h + 1}",
                                 terms, "==", rhs)

    # intra-period storage balance (state of charge recursion within a rep)
    for s in storages:
        inflow_profile = rep_data.inflow.get(s.name)
        for r in range(R):
            for h in range(H):
                prev = sintra0[(s.name, r)] if h == 0 else sintra[(s.name, r, h - 1)]
                terms = [
                    (sintra[(s.name, r, h)], 1.0),
                    (prev, -1.0),
                    (pin[(s.name, r, h)], -s.eff_in * tau),
                    (pout[(s.name, r, h)], tau / s.eff_out),
                ]
                rhs = 0.0
                if s.is_seasonal:
                    if s.has_inflows:
                        terms.append((spill[(s.name, r, h)], 1.0))
                        terms.append((borrow[(s.name, r, h)], -1.0))
                    if inflow_profile is not None:
                        rhs = inflow_profile[r, h] * s.inflow_max
                m.add_constr(f"intra_{s.name}_r{r + 1}_h{h + 1}", terms, "==", rhs)

    # inter-period storage balance: chronological recovery through the weights
    for s in seasonals:
        for d in range(D):
            prev = sinter0[s.name] if d == 0 else sinter[(s.name, d - 1)]
            terms = [(sinter[(s.name, d)], 1.0), (prev, -1.0)]
            for r in range(R):
                if W[d, r] == 0.0:
                    continue
                terms.append((sintra[(s.name, r, H - 1)], -W[d, r]))
                terms.append((sintra0[(s.name, r)], W[d, r]))
            m.add_constr(f"inter_{s.name}_d{d + 1}", terms, "==", 0.0)

    # cyclic constraints: initial and final levels pinned to the preset value,
    # plus the tether that fixes the intra-level offset
    for s in seasonals:
        m.add_constr(f"cyc0_{s.name}", [(sinter0[s.name], 1.0)], "==", s.initial_storage)
        m.add_constr(f"cycend_{s.name}", [(sinter[(s.name, D - 1)], 1.0)], "==",
                     s.initial_storage)
        terms = [(sintra[(s.name, r, H - 1)], W[D - 1, r])
                 for r in range(R) if W[D - 1, r] != 0.0]
        m.add_constr(f"tether_{s.name}", terms, "==", s.initial_storage)

    # short-term storage cycles within each representative
    for s in storages:
        if s.is_seasonal:
            continue
        for r in range(R):
            m.add_constr(f"intracyc_{s.name}_r{r + 1}",
                         [(sintra[(s.name, r, H - 1)], 1.0), (sintra0[(s.name, r)], -1.0)],
                         "==", 0.0)

    # conversion balance
    for c in conversions:
        for r in range(R):
            for h in range(H):
                m.add_constr(f"conv_{c.name}_r{r + 1}_h{h + 1}",
                             [(pin[(c.name, r, h)], c.eff_in),
                              (pout[(c.name, r, h)], -1.0 / c.eff_out)],
                             "==", 0.0)

    # accumulated capacity from existing plus invested units
    for a in system.assets:
        terms = [(cap[a.name], 1.0)]
        if a.name in inv:
            terms.append((inv[a.name], -a.unit_capacity))
        m.add_constr(f"units_{a.name}", terms, "==",
                     a.unit_capacity * a.existing_units)

    # availability-capped production and capacity-capped consumption
    for a in system.assets:
        avail = rep_data.availability.get(a.name)
        for r in range(R):
            for h in range(H):
                factor = avail[r, h] if avail is not None else 1.0
                m.add_constr(f"maxout_{a.name}_r{r + 1}_h{h + 1}",
                             [(pout[(a.name, r, h)], 1.0), (cap[a.name], -factor)],
                             "<=", 0.0)
    for s in storages:
        for r in range(R):
            for h in range(H):
                m.add_constr(f"maxin_{s.name}_r{r + 1}_h{h + 1}",
                             [(pin[(s.name, r, h)], 1.0), (cap[s.name], -1.0)],
                             "<=", 0.0)

    # ramping within a representative (paired inequalities for |.|)
    for g in producers:
        if g.ramp is None:
            continue
        limit = g.ramp * tau
        for r in range(R):
            for h in range(1, H):
                up = [(pout[(g.name, r, h)], 1.0), (pout[(g.name, r, h - 1)], -1.0),
                      (cap[g.name], -limit)]
                dn = [(pout[(g.name, r, h)], -1.0), (pout[(g.name, r, h - 1)], 1.0),
                      (cap[g.name], -limit)]
                m.add_constr(f"rampup_{g.name}_r{r + 1}_h{h + 1}", up, "<=", 0.0)
                m.add_constr(f"rampdn_{g.name}_r{r + 1}_h{h + 1}", dn, "<=", 0.0)

    # ramping across consecutive base periods through the blended weights
    for g in producers:
        if g.ramp is None:
            continue
        limit = g.ramp * tau
        for d in range(1, D):
            expr = []
            for r in range(R):
                if W[d, r] != 0.0:
                    expr.append((pout[(g.name, r, 0)], W[d, r]))
                if W[d - 1, r] != 0.0:
                    expr.append((pout[(g.name, r, H - 1)], -W[d - 1, r]))
            up = expr + [(cap[g.name], -limit)]
            dn = [(idx, -coef) for idx, coef in expr] + [(cap[g.name], -limit)]
            m.add_constr(f"irampup_{g.name}_d{d + 1}", up, "<=", 0.0)
            m.add_constr(f"irampdn_{g.name}_d{d + 1}", dn, "<=", 0.0)

    m.objective = {cinv: 1.0, cop: 1.0}
    return m


def build_full_model(system: EnergySystem, mode: str | None = None) -> LpModel:
    """The unreduced model: every base period is its own representative."""
    from .data import rep_profiles_from_periods

    D = system.horizon.num_periods
    rep = rep_profiles_from_periods(system, np.arange(D))
    return build_model(system, rep, identity_weights(D), mode=mode)


def fix_decisions(full_model: LpModel, reduced_solution: Solution,
                  mode: str) -> LpModel:
    """Pin the reduced model's first-stage decisions into the full model.

    gep: every investment variable is fixed to its reduced value.
    p2x: every inter-period storage level is fixed to its reduced value
    (the reduced model keeps these on all base periods, where they equal the
    blended reconstruction from the representative intra-period levels).

    Values are clamped into the variable's original bounds to absorb solver
    round-off before fixing.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if reduced_solution.status != "optimal":
        raise ValueError(f"reduced solution is {reduced_solution.status}, not optimal")
    prefix = "inv_" if mode == "gep" else "sinter_"
    fixed = full_model.copy()
    pinned = 0
    for var in fixed.variables:
        if not var.name.startswith(prefix):
            continue
        if var.name not in reduced_solution.values:
            raise ValueError(f"variable {var.name!r} missing from the reduced solution")
        value = min(max(reduced_solution.values[var.name], var.lb), var.ub)
        var.lb = value
        var.ub = value
        pinned += 1
    fixed.metadata = dict(fixed.metadata, fixed_variables=pinned, fixed_mode=mode)
    return fixed

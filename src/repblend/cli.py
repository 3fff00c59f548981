"""Command-line entry points.

Exit codes: 0 on success, 2 on data errors (bad files, failed validation),
3 on solver failures, 1 on any other error.
"""

from __future__ import annotations

import sys
from functools import wraps
from pathlib import Path

import click

from .clustering import RepSelection
from .data import (
    DataError,
    build_clustering_matrix,
    extract_rep_profiles,
    load_system,
    require_valid,
    validate_profiles,
    write_csv,
)
from .harness import (
    METHODS,
    PARETO_COLUMNS,
    ExperimentConfig,
    cluster_matrix,
    iter_seed_runs,
    load_records,
    pareto_front,
    solve_full_cached,
    write_results_csv,
)
from .model import build_full_model, build_model
from .solve import SolverError, SolverHandle, write_lp_file
from .weights import canonical_weight_type, fit_weights


# exit code and stderr label of each error family; any other error exits 1
_ERRORS = {DataError: (2, "data error"), ValueError: (2, "data error"),
           SolverError: (3, "solver error")}


def _family(exc: Exception) -> tuple[int, str]:
    """Exit code and label of ``exc``'s nearest class in ``_ERRORS``, else 1."""
    return next((_ERRORS[cls] for cls in type(exc).__mro__ if cls in _ERRORS), (1, "error"))


def _handle_errors(func):
    @wraps(func)
    def wrapper(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except tuple(_ERRORS) as exc:
            code, label = _family(exc)
            click.echo(f"{label}: {exc}", err=True)
            sys.exit(code)
    return wrapper


_data = click.option("--data", "data_path", required=True,
                     type=click.Path(path_type=Path), help="dataset directory")
_out = click.option("--out", "out_dir", type=click.Path(path_type=Path, file_okay=False),
                    default=Path("out"), show_default=True)
_seed = click.option("--seed", type=click.IntRange(min=0), default=1, show_default=True,
                     help="clustering seed")


def _reduction(func):
    """The flags of every command that clusters: --data --method --weights --n-rp."""
    decorators = [
        _data,
        click.option("--method", type=click.Choice(METHODS),
                     default="hull", show_default=True),
        click.option("--weights", "weight_type",
                     type=click.Choice(["dirac", "convex", "subunit", "conic"]),
                     default="conic", show_default=True,
                     callback=lambda ctx, param, value: canonical_weight_type(value)),
        click.option("--n-rp", type=int, default=5, show_default=True),
    ]
    for dec in reversed(decorators):
        func = dec(func)
    return func


def _parse_seeds(ctx, param, text: str) -> tuple[int, ...]:
    seeds = [s.strip() for s in text.split(",") if s.strip() != ""]
    if not all(s.isdecimal() for s in seeds):
        raise click.BadParameter(f"seeds must be integers >= 0, got {text!r}")
    return tuple(map(int, seeds))


def _select_and_fit(data_path: Path, method: str, weight_type: str, n_rp: int, seed: int):
    """Load and validate the dataset, stack its clustering matrix, select
    representatives and fit the blending weights: (system, cmatrix,
    selection, weights)."""
    system = require_valid(load_system(data_path))
    cmatrix = build_clustering_matrix(system)
    selection = cluster_matrix(cmatrix.values, method, weight_type, n_rp, seed)
    weights = fit_weights(selection.rep_matrix, cmatrix.values, weight_type)
    return system, cmatrix, selection, weights


@click.group()
def main():
    """Representative-period reduction toolkit for energy-system LPs."""


@main.command()
@_data
@_handle_errors
def validate(data_path):
    """Load the dataset and report profile violations."""
    system = load_system(data_path)
    violations = validate_profiles(system)
    for violation in violations:
        click.echo(str(violation))
    if violations:
        click.echo(f"{len(violations)} violations found", err=True)
        sys.exit(2)
    click.echo(f"ok: {len(system.assets)} assets, {len(system.nodes)} nodes, "
               f"{system.horizon.num_periods} periods x {system.horizon.hours_per_period} hours")


def _write_selection(selection: RepSelection, cmatrix, weights, out_dir: Path):
    """Write reps.csv, rep_matrix.csv, assignment.csv (each period's nearest
    representative, its dirac row) and weights.csv (period, rep, value)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    sources = selection.source_indices
    write_csv(out_dir / "reps.csv", ["rep", "source_period"],
              ((j + 1, None if sources is None else sources[j] + 1)
               for j in range(selection.n_rp)))
    write_csv(out_dir / "rep_matrix.csv",
              ["row"] + [f"rep{j + 1}" for j in range(selection.n_rp)],
              ([label] + values
               for label, values in zip(cmatrix.row_labels, selection.rep_matrix.tolist())))
    hard = fit_weights(selection.rep_matrix, cmatrix.values, "dirac").values.argmax(axis=1)
    write_csv(out_dir / "assignment.csv", ["period", "rep"],
              ((d + 1, r + 1) for d, r in enumerate(hard.tolist())))
    write_csv(out_dir / "weights.csv", ["period", "rep", "value"],
              ((d + 1, r + 1, value) for d, row in enumerate(weights.values.tolist())
               for r, value in enumerate(row)))


@main.command()
@_reduction
@_seed
@_out
@_handle_errors
def cluster(data_path, method, weight_type, n_rp, seed, out_dir):
    """Select representative periods, fit their blending weights and write
    both to the output directory."""
    _, cmatrix, selection, weights = _select_and_fit(data_path, method, weight_type, n_rp, seed)
    _write_selection(selection, cmatrix, weights, out_dir)
    click.echo(f"selected {selection.n_rp} representatives with {method}; {weight_type} "
               f"weights, mean projection error {weights.projection_errors.mean():.6g}")


@main.command(name="build-lp")
@_reduction
@_seed
@click.option("--full", "build_full", is_flag=True, help="build the unreduced model")
@_out
@_handle_errors
def build_lp(data_path, method, weight_type, n_rp, seed, build_full, out_dir):
    """Build the (reduced) linear program and write it in LP format."""
    if build_full:
        model = build_full_model(require_valid(load_system(data_path)))
    else:
        system, cmatrix, selection, weights = _select_and_fit(
            data_path, method, weight_type, n_rp, seed)
        model = build_model(system, extract_rep_profiles(system, selection, cmatrix), weights)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "model.lp"
    write_lp_file(model, path)
    click.echo(f"wrote {path} ({model.num_vars} variables, {model.num_constraints} constraints)")


@main.command(name="solve-full")
@_data
@_out
@_handle_errors
def solve_full(data_path, out_dir):
    """Solve the full-resolution benchmark model (cached by dataset content)."""
    system = require_valid(load_system(data_path))
    model = build_full_model(system)
    solution = solve_full_cached(model, data_path, system.mode, SolverHandle(), None)
    click.echo(f"status: {solution.status}")
    if solution.status != "optimal":
        sys.exit(3)
    click.echo(f"objective: {solution.objective!r}")
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "full_solution.csv", ["variable", "value"],
              zip(model.var_names, solution.x.tolist()))


@main.command()
@_reduction
@click.option("--seeds", default="1,2,3,4,5", show_default=True, callback=_parse_seeds,
              help="comma-separated clustering seeds, each >= 0")
@_out
@_handle_errors
def experiment(data_path, method, weight_type, n_rp, seeds, out_dir):
    """Run the full pipeline over all seeds and write results.csv."""
    runs = list(iter_seed_runs(ExperimentConfig(data_path, method, weight_type, n_rp, seeds)))
    records = [run.record() for run in runs]
    out_dir.mkdir(parents=True, exist_ok=True)
    write_results_csv(records, out_dir / "results.csv")
    for record in records:
        if record.error:
            click.echo(f"seed {record.seed}: {record.error}", err=True)
        else:
            click.echo(f"seed {record.seed}: regret {record.regret_pct:.4f}% "
                       f"(total {record.total_time:.2f}s)")
    if all(r.error for r in records):
        sys.exit(_family(runs[0].error)[0])
    click.echo(f"wrote {out_dir / 'results.csv'}")


@main.command(name="emit-plots")
@click.argument("results", nargs=-1, required=True, type=click.Path(path_type=Path))
@_out
@_handle_errors
def emit_plots(results, out_dir):
    """Write pareto.csv across the RESULTS files, one point per
    configuration; each file is left as it is."""
    records = []
    for path in results:
        file_records = load_records(path)
        if not file_records:
            raise DataError("no records to emit", str(path))
        records += file_records
    front = pareto_front(records)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "pareto.csv", PARETO_COLUMNS, front)
    click.echo(f"wrote {out_dir / 'pareto.csv'}")


if __name__ == "__main__":
    main()

"""Temporal reduction of energy-system LPs via representative periods with
blended (hard, convex, sub-unit conic, or conic) weights."""

from .clustering import (
    RepSelection,
    gnomonic_project,
    greedy_hull,
    kmeans,
    kmedoids,
)
from .data import (
    Asset,
    ClusteringMatrix,
    DataError,
    EnergySystem,
    Horizon,
    Line,
    Violation,
    build_clustering_matrix,
    extract_rep_profiles,
    load_system,
    require_valid,
    validate_profiles,
)
from .harness import (
    ExperimentConfig,
    ExperimentRecord,
    compute_regret,
    load_records,
    pareto_front,
    run_experiment,
    write_results_csv,
)
from .model import (
    LpModel,
    build_full_model,
    build_model,
    fix_decisions,
    identity_weights,
)
from .solve import (
    Solution,
    SolverError,
    SolverHandle,
    SolverNumericalError,
    solve,
    write_lp_file,
)
from .weights import (
    WeightMatrix,
    canonical_weight_type,
    fit_weights,
)

__version__ = "0.1.0"

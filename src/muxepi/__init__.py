"""Coupled awareness-disease spreading on two-layer multiplex networks."""

__version__ = "0.1.0"

from .errors import ConfigError, InvalidArgumentError, MuxepiError, NonConvergenceError
from .graph import (
    Graph,
    MultiplexNetwork,
    betweenness,
    build_multiplex,
    clustering_coefficients,
    degree_sequence,
    generate_ba,
    generate_ws,
    read_edge_list,
    write_edge_list,
)
from .selection import STRATEGIES, OmegaSpec, select_omega
from .dynamics import (
    DynamicsParams,
    StateVector,
    Trajectory,
    counts,
    init_states,
    mc_step,
    run_to_absorption,
)
from .mmca import (
    MmcaState,
    ThresholdResult,
    build_h_matrix,
    epidemic_threshold,
    init_mmca,
    leading_eigenvalue,
    mmca_rates,
    mmca_run,
    mmca_step,
    uau_steady_state,
)
from .experiments import (
    ExperimentSpec,
    average_replications,
    heatmap_experiment,
    omega_ratio_sweep,
    timeseries_experiment,
)

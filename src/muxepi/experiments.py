"""Experiment harness: parameter grids, time series, and silenced-fraction sweeps.

Every run is reproducible from (spec, master_seed): seeds are derived through
named spawn keys. A replication's multiplex and random silenced set are keyed
on the replication alone, so every cell of a replication runs on them; each
(cell, replication) run draws its dynamics from (experiment kind, cell,
replication). Results are bit-identical across re-runs and worker counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dynamics import A, R, DynamicsParams, run_to_absorption
from .errors import InvalidArgumentError, check_count, check_range
from .graph import Graph, MultiplexNetwork, generate_ba, generate_ws
from .selection import OmegaSpec, select_omega

__all__ = [
    "ExperimentSpec",
    "GridResult",
    "RunRecord",
    "heatmap_experiment",
    "timeseries_experiment",
    "omega_ratio_sweep",
    "average_replications",
    "plateau_step",
    "replication_multiplex",
    "replication_omega",
]

# Spawn-key namespaces for seed derivation.
_KIND_HEATMAP, _KIND_TIMESERIES, _KIND_SWEEP = 1, 2, 3
# (rep, 0) and (rep, 1) seed the two layers, (rep, _NS_OMEGA) the random set.
_NS_OMEGA, _NS_DYNAMICS = 2, 3


@dataclass(frozen=True)
class ExperimentSpec:
    """Network construction, dynamics parameters and grid axes for one experiment family."""

    n: int = 10000
    ba_m: int = 4
    ws_k: int = 4
    ws_p: float = 0.1
    lambdas: tuple = (0.5,)
    betas: tuple = (0.2,)
    strategies: tuple = ("degree_top", "random", "degree_bottom")
    fractions: tuple = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
    delta: float = 0.04
    mu: float = 0.06
    gamma: float = 0.5
    initial_infected_fraction: float = DynamicsParams.initial_infected_fraction
    omega: OmegaSpec = OmegaSpec(strategy="random", count=20)
    replications: int = 10
    master_seed: int = 0
    max_steps: int = DynamicsParams.max_steps
    tail_window: int = 100

    def __post_init__(self):
        # An empty axis runs no cell; a repeated entry would run its cells twice under one label.
        for name in ("lambdas", "betas", "strategies", "fractions"):
            values = getattr(self, name)
            if not values:
                raise InvalidArgumentError(f"{name} is empty")
            if len(set(values)) < len(values):
                raise InvalidArgumentError(f"{name} has a repeated entry: {tuple(values)}")
            for v in values if name != "strategies" else ():
                check_range(f"{name} entry", v, 0.0, 1.0)
        for name, low in (("n", 1), ("replications", 1), ("tail_window", 0)):
            check_count(name, getattr(self, name), low)
        self.params(self.lambdas[0], self.betas[0])  # checks the other rates before any cell runs

    def params(self, lam: float, beta_u: float) -> DynamicsParams:
        return DynamicsParams(
            lam=lam,
            delta=self.delta,
            beta_u=beta_u,
            gamma=self.gamma,
            mu=self.mu,
            initial_infected_fraction=self.initial_infected_fraction,
            max_steps=self.max_steps,
        )

    def only(self, name: str):
        """The axis's one entry: a run that uses one would drop the others."""
        values = getattr(self, name)
        if len(values) != 1:
            raise InvalidArgumentError(f"{name} must hold one entry here, got {tuple(values)}")
        return values[0]


def _seed_rng(master_seed: int, *key) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=key))


class RunRecord(NamedTuple):
    """What every experiment reads of one (cell, replication) run. Only timeseries
    keeps `curves`, the (steps, 2) rho_R and rho_A columns, and a tail; heatmap
    and sweep run none, so their tail rho_A is the awareness at absorption."""

    final_rho_r: float
    absorbed: bool
    tail_rho_a: float
    plateau_step: int
    curves: np.ndarray | None


def replication_multiplex(n, ba_m, ws_k, ws_p, master_seed, rep=0) -> MultiplexNetwork:
    """Replication `rep`'s BA awareness and WS contact layers.

    The layers are seeded from the spawn keys (rep, 0) and (rep, 1), so
    replication 0 is the multiplex `muxepi generate` writes at the same seed.
    """
    return MultiplexNetwork(generate_ba(n, ba_m, seed=_seed_rng(master_seed, rep, 0)),
                            generate_ws(n, ws_k, ws_p, seed=_seed_rng(master_seed, rep, 1)))


def replication_omega(omega: OmegaSpec, awareness: Graph, master_seed, rep=0) -> np.ndarray:
    """Replication `rep`'s silenced set: a random one is drawn from the spawn key
    (rep, 2), so `threshold` and `mmca` silence the set of heatmap replication 0."""
    key = np.random.SeedSequence(master_seed, spawn_key=(rep, _NS_OMEGA))
    return select_omega(omega, awareness, seed=int(key.generate_state(1)[0]))


def _run_task(task) -> list[RunRecord]:
    """Build one replication's multiplex, then run each cell on it.

    Every cell's silenced set comes from `replication_omega`: a random set is
    the same in every cell, and the awareness layer computes each centrality once.
    Only timeseries keeps the curves and the tail. Heatmap and sweep read
    the final rho_R, fixed once no node is infected, so they skip the tail;
    each run has its own RNG stream, so no other run's draws move.
    """
    spec, kind, rep, cells = task
    net = replication_multiplex(spec.n, spec.ba_m, spec.ws_k, spec.ws_p, spec.master_seed, rep)
    curves = kind == _KIND_TIMESERIES
    records = []
    for cell, (omega, lam, beta_u) in enumerate(cells):
        traj = run_to_absorption(
            net,
            replication_omega(omega, net.awareness_layer, spec.master_seed, rep),
            spec.params(lam, beta_u),
            _seed_rng(spec.master_seed, kind, cell, rep, _NS_DYNAMICS),
            tail_window=spec.tail_window if curves else 0,
        )
        records.append(RunRecord(traj.final_rho_r, traj.absorbed, traj.mean_tail_rho_a,
                                 plateau_step(traj.steps[:, R]),
                                 traj.steps[:, [R, A]] if curves else None))
    return records


def _run_grid(spec: ExperimentSpec, kind: int, cells, jobs: int) -> list[tuple]:
    """Each cell's replication records from `_run_task`, in cell order.

    A cell is (omega, lambda, beta_u); its index in `cells` is the cell part
    of its dynamics spawn key. One task is one replication, so at most
    `spec.replications` workers run.
    """
    tasks = [(spec, kind, rep, cells) for rep in range(spec.replications)]
    workers = min(jobs, len(tasks))
    if workers <= 1:
        reps = [_run_task(t) for t in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reps = list(pool.map(_run_task, tasks, chunksize=1))
    return list(zip(*reps))


def average_replications(values):
    """Arithmetic mean and sample standard deviation of one cell's replications."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise InvalidArgumentError("no replications to average")
    mean = float(np.mean(values))
    std = float(np.std(values, ddof=1)) if values.size > 1 else 0.0
    return mean, std


def plateau_step(rho_r: np.ndarray, tol: float = 0.01) -> int:
    """First step at which the recovered fraction is within tol of its final value."""
    rho_r = np.asarray(rho_r, dtype=np.float64)
    return int(np.argmax(rho_r >= rho_r[-1] - tol))  # the last step always qualifies


def _pad_forward(curves: list[np.ndarray]) -> np.ndarray:
    """Stack (steps, 2) curves of different lengths, carrying final rows forward."""
    length = max(len(c) for c in curves)
    return np.array([np.pad(c, ((0, length - len(c)), (0, 0)), mode="edge") for c in curves])


@dataclass
class GridResult:
    """Each cell's replication records, and the mean and std of their final rho_R;
    cell (i, j) is (rows[i], cols[j]): (lambda, beta_u) or (strategy, fraction),
    and a time series' (lambda,) x betas, whose records carry their curves."""

    rows: tuple
    cols: tuple
    runs: list  # cell (i, j)'s tuple of RunRecords is runs[i * len(cols) + j]
    mean_rho_r: np.ndarray = field(init=False)  # shape (len(rows), len(cols))
    std_rho_r: np.ndarray = field(init=False)
    non_absorbed: int = field(init=False)

    def __post_init__(self):
        stats = np.array([average_replications([r.final_rho_r for r in rs]) for rs in self.runs])
        self.mean_rho_r, self.std_rho_r = stats.T.reshape(2, len(self.rows), len(self.cols))
        self.non_absorbed = sum(not r.absorbed for rs in self.runs for r in rs)

    def curve(self, row) -> np.ndarray:
        return self.mean_rho_r[self.rows.index(row)]

    def mean_curves(self, j: int) -> np.ndarray:
        """Replication means of a time series' cell j's (steps, 2) rho_R and rho_A curves."""
        return _pad_forward([r.curves for r in self.runs[j]]).mean(axis=0)


def heatmap_experiment(spec: ExperimentSpec, jobs: int = 1) -> GridResult:
    """Mean final recovered fraction over the (lambda, beta_u) grid."""
    cells = [(spec.omega, lam, beta) for lam in spec.lambdas for beta in spec.betas]
    runs = _run_grid(spec, _KIND_HEATMAP, cells, jobs)
    return GridResult(spec.lambdas, spec.betas, runs)


def timeseries_experiment(spec: ExperimentSpec, jobs: int = 1) -> GridResult:
    """Replication-averaged rho_R(t) / rho_A(t) curves at the one lambda, for each beta_u."""
    lam = spec.only("lambdas")
    runs = _run_grid(spec, _KIND_TIMESERIES, [(spec.omega, lam, b) for b in spec.betas], jobs)
    return GridResult(spec.lambdas, spec.betas, runs)


def omega_ratio_sweep(spec: ExperimentSpec, jobs: int = 1) -> GridResult:
    """Mean final recovered fraction over the (strategy, silenced fraction) grid,
    at the spec's one lambda and one beta_u."""
    lam, beta = spec.only("lambdas"), spec.only("betas")
    cells = [(OmegaSpec(strategy=s, fraction=f), lam, beta)
             for s in spec.strategies for f in spec.fractions]
    runs = _run_grid(spec, _KIND_SWEEP, cells, jobs)
    return GridResult(spec.strategies, spec.fractions, runs)

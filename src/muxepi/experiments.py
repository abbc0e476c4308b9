"""Experiment harness: parameter grids, time series, and silenced-fraction sweeps.

Every run is reproducible from (spec, master_seed): seeds are derived through
named spawn keys. A replication's multiplex and random silenced set are keyed
on the replication alone, so every cell of a replication runs on them; each
(cell, replication) run draws its dynamics from (experiment kind, cell,
replication). Output files are byte-identical across re-runs and worker counts.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from . import __version__
from .dynamics import A, R, DynamicsParams, Trajectory, run_to_absorption
from .errors import InvalidArgumentError
from .graph import Graph, MultiplexNetwork, build_multiplex, generate_ba, generate_ws
from .selection import OmegaSpec, select_omega

__all__ = [
    "ExperimentSpec",
    "GridResult",
    "TimeseriesResult",
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
    """Network construction plus dynamics parameters for one experiment family."""

    n: int = 10000
    ba_m: int = 4
    ws_k: int = 4
    ws_p: float = 0.1
    lambdas: tuple = (0.5,)
    betas: tuple = (0.2,)
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
        for name in ("lambdas", "betas"):
            _check_axis(name, getattr(self, name))
            for v in getattr(self, name):
                if not 0.0 <= v <= 1.0:
                    raise InvalidArgumentError(f"{name} entry {v} outside [0,1]")
        if self.replications < 1:
            raise InvalidArgumentError("replications must be >= 1")
        if self.tail_window < 0:
            raise InvalidArgumentError("tail_window must be >= 0")

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

    def serialize(self) -> str:
        d = asdict(self)
        return json.dumps(d, sort_keys=True, separators=(",", ":"))


def _check_axis(name: str, values) -> None:
    """An empty axis runs no cell; a repeated entry would run its cells twice under one label."""
    if not values:
        raise InvalidArgumentError(f"{name} is empty")
    if len(set(values)) < len(values):
        raise InvalidArgumentError(f"{name} has a repeated entry: {tuple(values)}")


def _seed_rng(master_seed: int, *key) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=key))


class _Outcome(NamedTuple):
    """The part of a trajectory that heatmap and sweep read."""

    final_rho_r: float
    absorbed: bool


def replication_multiplex(n, ba_m, ws_k, ws_p, master_seed, rep=0) -> MultiplexNetwork:
    """Replication `rep`'s BA awareness and WS contact layers.

    The layers are seeded from the spawn keys (rep, 0) and (rep, 1), so
    replication 0 is the multiplex `muxepi generate` writes at the same seed.
    """
    ba_seed, ws_seed = np.random.SeedSequence(master_seed, spawn_key=(rep,)).spawn(2)
    return build_multiplex(
        generate_ba(n, ba_m, seed=ba_seed), generate_ws(n, ws_k, ws_p, seed=ws_seed)
    )


def replication_omega(omega: OmegaSpec, awareness: Graph, master_seed, rep=0) -> np.ndarray:
    """Replication `rep`'s silenced set: a random one is drawn from the spawn key
    (rep, 2), so `threshold` and `mmca` silence the set of heatmap replication 0."""
    key = np.random.SeedSequence(master_seed, spawn_key=(rep, _NS_OMEGA))
    return select_omega(omega, awareness, seed=int(key.generate_state(1)[0]))


def _run_task(task) -> list[Trajectory | _Outcome]:
    """Build one replication's multiplex, then run each cell on it.

    Every cell's silenced set comes from `replication_omega`: a random set is
    the same in every cell, and the awareness layer computes each centrality once.
    Only timeseries keeps the trajectory and its tail. Heatmap and sweep read
    the final rho_R, fixed once no node is infected, so they skip the tail;
    each run has its own RNG stream, so no other run's draws move.
    """
    spec, kind, rep, cells = task
    net = replication_multiplex(spec.n, spec.ba_m, spec.ws_k, spec.ws_p, spec.master_seed, rep)
    curves = kind == _KIND_TIMESERIES
    results = []
    for cell, (omega, lam, beta_u) in enumerate(cells):
        traj = run_to_absorption(
            net,
            replication_omega(omega, net.awareness_layer, spec.master_seed, rep),
            spec.params(lam, beta_u),
            _seed_rng(spec.master_seed, kind, cell, rep, _NS_DYNAMICS),
            tail_window=spec.tail_window if curves else 0,
        )
        results.append(traj if curves else _Outcome(traj.final_rho_r, traj.absorbed))
    return results


def _run_grid(spec: ExperimentSpec, kind: int, cells, jobs: int) -> list[tuple]:
    """Each cell's replication results from `_run_task`, in cell order.

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


def _non_absorbed(grid) -> int:
    return sum(not t.absorbed for trajs in grid for t in trajs)


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
    """Stack curves of different lengths, carrying final values forward."""
    length = max(len(c) for c in curves)
    return np.array([np.pad(c, (0, length - len(c)), mode="edge") for c in curves])


def _write_csv(path, spec: ExperimentSpec, columns: str, rows) -> None:
    """The spec header, then the columns and each row with the replication count appended."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# muxepi v{__version__} spec={spec.serialize()}\n{columns},replications\n")
        for row in rows:
            fh.write(f"{row},{spec.replications}\n")


def _label(value) -> str:
    """A strategy as is, a number as its float repr: 0 and np.float64(0) give 0.0."""
    return value if isinstance(value, str) else repr(float(value))


@dataclass
class GridResult:
    """Mean and std of the final rho_R over replications in each cell of a grid.

    Cell (i, j) is (rows[i], cols[j]): (lambda, beta_u) or (strategy, fraction).
    """

    spec: ExperimentSpec
    columns: str  # the CSV column header
    rows: tuple
    cols: tuple
    mean_rho_r: np.ndarray  # shape (len(rows), len(cols))
    std_rho_r: np.ndarray
    non_absorbed: int

    def curve(self, row) -> np.ndarray:
        return self.mean_rho_r[self.rows.index(row)]

    def write_csv(self, path) -> None:
        lines = (
            f"{_label(r)},{_label(c)},{float(self.mean_rho_r[i, j])!r},"
            f"{float(self.std_rho_r[i, j])!r}"
            for i, r in enumerate(self.rows)
            for j, c in enumerate(self.cols)
        )
        _write_csv(path, self.spec, self.columns, lines)


def _grid_result(spec, kind, columns, rows, cols, cells, jobs) -> GridResult:
    """Run the cells, row-major over rows x cols, and average each cell's replications."""
    grid = _run_grid(spec, kind, cells, jobs)
    stats = np.array([average_replications([t.final_rho_r for t in outs]) for outs in grid])
    mean, std = stats.T.reshape(2, len(rows), len(cols))
    return GridResult(spec, columns, rows, cols, mean, std, _non_absorbed(grid))


def heatmap_experiment(spec: ExperimentSpec, jobs: int = 1) -> GridResult:
    """Mean final recovered fraction over the (lambda, beta_u) grid."""
    cells = [(spec.omega, lam, beta) for lam in spec.lambdas for beta in spec.betas]
    columns = "lambda,beta_u,mean_rho_r,std_rho_r"
    return _grid_result(spec, _KIND_HEATMAP, columns, spec.lambdas, spec.betas, cells, jobs)


@dataclass
class TimeseriesResult:
    spec: ExperimentSpec
    mean_rho_r: dict  # beta -> np.ndarray over steps
    mean_rho_a: dict
    final_rho_r: dict  # beta -> per-replication finals
    tail_rho_a: dict  # beta -> per-replication tail-averaged awareness
    plateau_steps: dict  # beta -> per-replication plateau step of rho_r
    non_absorbed: int

    def write_csv(self, path) -> None:
        rows = (
            f"{float(beta)!r},{t},{float(rr)!r},{float(ra)!r}"
            for beta in self.spec.betas
            for t, (rr, ra) in enumerate(zip(self.mean_rho_r[beta], self.mean_rho_a[beta]))
        )
        _write_csv(path, self.spec, "beta_u,step,rho_R,rho_A", rows)


def timeseries_experiment(spec: ExperimentSpec, jobs: int = 1) -> TimeseriesResult:
    """Replication-averaged rho_R(t) / rho_A(t) curves at the first lambda, for each beta_u."""
    lam, betas = spec.lambdas[0], spec.betas
    grid = _run_grid(spec, _KIND_TIMESERIES, [(spec.omega, lam, beta) for beta in betas], jobs)
    mean_rr, mean_ra, finals, tails, plateaus = {}, {}, {}, {}, {}
    for beta, trajs in zip(betas, grid):
        mean_rr[beta] = _pad_forward([t.steps[:, R] for t in trajs]).mean(axis=0)
        mean_ra[beta] = _pad_forward([t.steps[:, A] for t in trajs]).mean(axis=0)
        finals[beta] = [t.final_rho_r for t in trajs]
        tails[beta] = [t.mean_tail_rho_a for t in trajs]
        plateaus[beta] = [plateau_step(t.steps[:, R]) for t in trajs]
    return TimeseriesResult(
        spec=spec,
        mean_rho_r=mean_rr,
        mean_rho_a=mean_ra,
        final_rho_r=finals,
        tail_rho_a=tails,
        plateau_steps=plateaus,
        non_absorbed=_non_absorbed(grid),
    )


def omega_ratio_sweep(spec: ExperimentSpec, strategies, fractions, jobs: int = 1) -> GridResult:
    """Mean final recovered fraction against the silenced-node fraction.

    Uses the single (lambda, beta_u) pair from the spec grids.
    """
    strategies, fractions = tuple(strategies), tuple(fractions)
    _check_axis("strategies", strategies)
    _check_axis("fractions", fractions)
    lam, beta = spec.lambdas[0], spec.betas[0]
    keys = [(strat, frac) for strat in strategies for frac in fractions]
    cells = [(OmegaSpec(strategy=s, fraction=f), lam, beta) for s, f in keys]
    columns = "strategy,fraction,mean_rho_r,std_rho_r"
    return _grid_result(spec, _KIND_SWEEP, columns, strategies, fractions, cells, jobs)

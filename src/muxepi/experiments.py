"""Experiment harness: parameter grids, time series, and silenced-fraction sweeps.

Every run is reproducible from (spec, master_seed): seeds are derived through
named spawn keys (experiment kind -> cell -> replication), so any cell can be
re-run in isolation and output files are byte-identical across re-runs and
worker counts.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import __version__
from .dynamics import A, R, DynamicsParams, Trajectory, run_to_absorption
from .errors import InvalidArgumentError
from .graph import build_multiplex, generate_ba, generate_ws
from .selection import OmegaSpec, select_omega

__all__ = [
    "ExperimentSpec",
    "HeatmapResult",
    "TimeseriesResult",
    "SweepResult",
    "heatmap_experiment",
    "timeseries_experiment",
    "omega_ratio_sweep",
    "average_replications",
    "plateau_step",
]

# Spawn-key namespaces for seed derivation.
_KIND_HEATMAP, _KIND_TIMESERIES, _KIND_SWEEP = 1, 2, 3
_NS_BA, _NS_WS, _NS_OMEGA, _NS_DYNAMICS = 0, 1, 2, 3


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
    initial_infected_fraction: float = 0.001
    omega: OmegaSpec = OmegaSpec(strategy="random", count=20, seed=0)
    replications: int = 10
    master_seed: int = 0
    fresh_networks: bool = True
    max_steps: int = 100_000
    tail_window: int = 100

    def __post_init__(self):
        if not self.lambdas or not self.betas:
            raise InvalidArgumentError("lambda and beta grids must be non-empty")
        for name in ("lambdas", "betas"):
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


def _seed_rng(master_seed: int, *key) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=key))


def _seed_int(master_seed: int, *key) -> int:
    return int(np.random.SeedSequence(master_seed, spawn_key=key).generate_state(1)[0])


def _run_task(task) -> Trajectory:
    """Build one replication's multiplex and silenced set, then run it to absorption."""
    spec, kind, cell, rep, omega, lam, beta_u = task
    key = (kind, cell, rep if spec.fresh_networks else 0)
    net = build_multiplex(
        generate_ba(spec.n, spec.ba_m, seed=_seed_rng(spec.master_seed, *key, _NS_BA)),
        generate_ws(spec.n, spec.ws_k, spec.ws_p, seed=_seed_rng(spec.master_seed, *key, _NS_WS)),
    )
    if omega.strategy == "random":
        omega = replace(omega, seed=_seed_int(spec.master_seed, *key, _NS_OMEGA))
    return run_to_absorption(
        net,
        select_omega(omega, net.awareness_layer),
        spec.params(lam, beta_u),
        _seed_rng(spec.master_seed, kind, cell, rep, _NS_DYNAMICS),
        tail_window=spec.tail_window,
    )


def _run_grid(spec: ExperimentSpec, kind: int, cells, jobs: int) -> list[list[Trajectory]]:
    """Each cell's replication trajectories, in cell order.

    A cell is (omega, lambda, beta_u); its index in `cells` is the cell part
    of its spawn keys.
    """
    reps = spec.replications
    tasks = [(spec, kind, cell, rep, *c) for cell, c in enumerate(cells) for rep in range(reps)]
    if jobs <= 1:
        trajs = [_run_task(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            trajs = list(pool.map(_run_task, tasks, chunksize=1))
    return [trajs[i : i + reps] for i in range(0, len(trajs), reps)]


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
    final = rho_r[-1]
    hits = np.nonzero(rho_r >= final - tol)[0]
    return int(hits[0])


def _pad_forward(curves: list[np.ndarray]) -> np.ndarray:
    """Stack curves of different lengths, carrying final values forward."""
    length = max(len(c) for c in curves)
    out = np.empty((len(curves), length))
    for i, c in enumerate(curves):
        out[i, : len(c)] = c
        out[i, len(c) :] = c[-1]
    return out


def _write_csv(path, spec: ExperimentSpec, columns: str, rows) -> None:
    """The spec header, then the columns and each row with the replication count appended."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# muxepi v{__version__} spec={spec.serialize()}\n{columns},replications\n")
        for row in rows:
            fh.write(f"{row},{spec.replications}\n")


@dataclass
class HeatmapResult:
    spec: ExperimentSpec
    lambdas: np.ndarray
    betas: np.ndarray
    mean_rho_r: np.ndarray  # shape (len(lambdas), len(betas))
    std_rho_r: np.ndarray
    non_absorbed: int

    def write_csv(self, path) -> None:
        rows = (
            f"{float(lam)!r},{float(beta)!r},{float(self.mean_rho_r[i, j])!r},"
            f"{float(self.std_rho_r[i, j])!r}"
            for i, lam in enumerate(self.lambdas)
            for j, beta in enumerate(self.betas)
        )
        _write_csv(path, self.spec, "lambda,beta_u,mean_rho_r,std_rho_r", rows)


def heatmap_experiment(spec: ExperimentSpec, jobs: int = 1) -> HeatmapResult:
    """Mean final recovered fraction over the (lambda, beta_u) grid."""
    cells = [(spec.omega, lam, beta) for lam in spec.lambdas for beta in spec.betas]
    grid = _run_grid(spec, _KIND_HEATMAP, cells, jobs)
    stats = np.array([average_replications([t.final_rho_r for t in trajs]) for trajs in grid])
    shape = (len(spec.lambdas), len(spec.betas))
    return HeatmapResult(
        spec=spec,
        lambdas=np.asarray(spec.lambdas, dtype=np.float64),
        betas=np.asarray(spec.betas, dtype=np.float64),
        mean_rho_r=stats[:, 0].reshape(shape),
        std_rho_r=stats[:, 1].reshape(shape),
        non_absorbed=_non_absorbed(grid),
    )


@dataclass
class TimeseriesResult:
    spec: ExperimentSpec
    lam: float
    betas: tuple
    mean_rho_r: dict  # beta -> np.ndarray over steps
    mean_rho_a: dict
    final_rho_r: dict  # beta -> per-replication finals
    tail_rho_a: dict  # beta -> per-replication tail-averaged awareness
    plateau_steps: dict  # beta -> per-replication plateau step of rho_r
    non_absorbed: int

    def write_csv(self, path) -> None:
        rows = (
            f"{float(beta)!r},{t},{float(rr)!r},{float(ra)!r}"
            for beta in self.betas
            for t, (rr, ra) in enumerate(zip(self.mean_rho_r[beta], self.mean_rho_a[beta]))
        )
        _write_csv(path, self.spec, "beta_u,step,rho_R,rho_A", rows)


def timeseries_experiment(
    spec: ExperimentSpec, lam: float, betas, jobs: int = 1
) -> TimeseriesResult:
    """Replication-averaged rho_R(t) / rho_A(t) curves for each beta_u."""
    betas = tuple(betas)
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
        lam=lam,
        betas=betas,
        mean_rho_r=mean_rr,
        mean_rho_a=mean_ra,
        final_rho_r=finals,
        tail_rho_a=tails,
        plateau_steps=plateaus,
        non_absorbed=_non_absorbed(grid),
    )


@dataclass
class SweepResult:
    spec: ExperimentSpec
    strategies: tuple
    fractions: tuple
    mean_rho_r: dict  # (strategy, fraction) -> mean
    std_rho_r: dict
    non_absorbed: int

    def curve(self, strategy: str) -> np.ndarray:
        return np.array([self.mean_rho_r[(strategy, f)] for f in self.fractions])

    def write_csv(self, path) -> None:
        rows = (
            f"{strat},{float(frac)!r},{float(self.mean_rho_r[(strat, frac)])!r},"
            f"{float(self.std_rho_r[(strat, frac)])!r}"
            for strat in self.strategies
            for frac in self.fractions
        )
        _write_csv(path, self.spec, "strategy,fraction,mean_rho_r,std_rho_r", rows)


def omega_ratio_sweep(
    spec: ExperimentSpec, strategies, fractions, jobs: int = 1
) -> SweepResult:
    """Mean final recovered fraction against the silenced-node fraction.

    Uses the single (lambda, beta_u) pair from the spec grids.
    """
    strategies = tuple(strategies)
    fractions = tuple(fractions)
    lam, beta = spec.lambdas[0], spec.betas[0]
    keys = [(strat, frac) for strat in strategies for frac in fractions]
    cells = [(OmegaSpec(strategy=s, fraction=f, seed=spec.omega.seed), lam, beta) for s, f in keys]
    grid = _run_grid(spec, _KIND_SWEEP, cells, jobs)
    stats = [average_replications([t.final_rho_r for t in trajs]) for trajs in grid]
    return SweepResult(
        spec=spec,
        strategies=strategies,
        fractions=fractions,
        mean_rho_r={k: m for k, (m, _) in zip(keys, stats)},
        std_rho_r={k: sd for k, (_, sd) in zip(keys, stats)},
        non_absorbed=_non_absorbed(grid),
    )

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
from .dynamics import DynamicsParams, Trajectory, run_to_absorption
from .errors import InvalidArgumentError
from .graph import MultiplexNetwork, build_multiplex, generate_ba, generate_ws
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


def _build_network(spec: ExperimentSpec, kind: int, cell: int, rep: int) -> MultiplexNetwork:
    key = (kind, cell, rep if spec.fresh_networks else 0)
    return build_multiplex(
        generate_ba(spec.n, spec.ba_m, seed=_seed_rng(spec.master_seed, *key, _NS_BA)),
        generate_ws(spec.n, spec.ws_k, spec.ws_p, seed=_seed_rng(spec.master_seed, *key, _NS_WS)),
    )


def _resolve_omega(spec: ExperimentSpec, omega: OmegaSpec, net, kind, cell, rep):
    if omega.strategy == "random":
        rep_key = rep if spec.fresh_networks else 0
        omega = replace(omega, seed=_seed_int(spec.master_seed, kind, cell, rep_key, _NS_OMEGA))
    return select_omega(omega, net.awareness_layer)


def _run_one(args) -> Trajectory:
    spec, omega, lam, beta_u, kind, cell, rep = args
    net = _build_network(spec, kind, cell, rep)
    omega_set = _resolve_omega(spec, omega, net, kind, cell, rep)
    rng = _seed_rng(spec.master_seed, kind, cell, rep, _NS_DYNAMICS)
    return run_to_absorption(
        net, omega_set, spec.params(lam, beta_u), rng, tail_window=spec.tail_window
    )


def _run_one_summary(args):
    traj = _run_one(args)
    return traj.final_rho_r, traj.mean_tail_rho_a, traj.absorbed


def _map_tasks(fn, tasks, jobs: int):
    if jobs <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, tasks, chunksize=1))


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


@dataclass
class HeatmapResult:
    spec: ExperimentSpec
    lambdas: np.ndarray
    betas: np.ndarray
    mean_rho_r: np.ndarray  # shape (len(lambdas), len(betas))
    std_rho_r: np.ndarray
    non_absorbed: int

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(f"# muxepi v{__version__} spec={self.spec.serialize()}\n")
            fh.write("lambda,beta_u,mean_rho_r,std_rho_r,replications\n")
            for i, lam in enumerate(self.lambdas):
                for j, beta in enumerate(self.betas):
                    fh.write(
                        f"{float(lam)!r},{float(beta)!r},{float(self.mean_rho_r[i, j])!r},"
                        f"{float(self.std_rho_r[i, j])!r},{self.spec.replications}\n"
                    )


def heatmap_experiment(spec: ExperimentSpec, jobs: int = 1) -> HeatmapResult:
    """Mean final recovered fraction over the (lambda, beta_u) grid."""
    tasks = []
    for i, lam in enumerate(spec.lambdas):
        for j, beta in enumerate(spec.betas):
            cell = i * len(spec.betas) + j
            for rep in range(spec.replications):
                tasks.append((spec, spec.omega, lam, beta, _KIND_HEATMAP, cell, rep))
    results = _map_tasks(_run_one_summary, tasks, jobs)
    shape = (len(spec.lambdas), len(spec.betas))
    mean = np.zeros(shape)
    std = np.zeros(shape)
    non_absorbed = 0
    idx = 0
    for i in range(shape[0]):
        for j in range(shape[1]):
            cell_vals = []
            for _ in range(spec.replications):
                rho_r, _, absorbed = results[idx]
                cell_vals.append(rho_r)
                non_absorbed += not absorbed
                idx += 1
            mean[i, j], std[i, j] = average_replications(cell_vals)
    return HeatmapResult(
        spec=spec,
        lambdas=np.asarray(spec.lambdas, dtype=np.float64),
        betas=np.asarray(spec.betas, dtype=np.float64),
        mean_rho_r=mean,
        std_rho_r=std,
        non_absorbed=non_absorbed,
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
        with open(path, "w", encoding="ascii") as fh:
            fh.write(f"# muxepi v{__version__} spec={self.spec.serialize()}\n")
            fh.write("beta_u,step,rho_R,rho_A,replications\n")
            for beta in self.betas:
                rr = self.mean_rho_r[beta]
                ra = self.mean_rho_a[beta]
                for t in range(len(rr)):
                    fh.write(
                        f"{float(beta)!r},{t},{float(rr[t])!r},{float(ra[t])!r},"
                        f"{self.spec.replications}\n"
                    )


def timeseries_experiment(
    spec: ExperimentSpec, lam: float, betas, jobs: int = 1
) -> TimeseriesResult:
    """Replication-averaged rho_R(t) / rho_A(t) curves for each beta_u."""
    betas = tuple(betas)
    tasks = []
    for j, beta in enumerate(betas):
        for rep in range(spec.replications):
            tasks.append((spec, spec.omega, lam, beta, _KIND_TIMESERIES, j, rep))
    trajectories = _map_tasks(_run_one, tasks, jobs)
    mean_rr, mean_ra, finals, tails, plateaus = {}, {}, {}, {}, {}
    non_absorbed = 0
    idx = 0
    for beta in betas:
        rr_curves, ra_curves = [], []
        finals[beta], tails[beta], plateaus[beta] = [], [], []
        for _ in range(spec.replications):
            traj = trajectories[idx]
            idx += 1
            non_absorbed += not traj.absorbed
            rr = np.array([c.rho_r for c in traj.steps])
            ra = np.array([c.rho_a for c in traj.steps])
            rr_curves.append(rr)
            ra_curves.append(ra)
            finals[beta].append(traj.final_rho_r)
            tails[beta].append(traj.mean_tail_rho_a)
            plateaus[beta].append(plateau_step(rr))
        mean_rr[beta] = _pad_forward(rr_curves).mean(axis=0)
        mean_ra[beta] = _pad_forward(ra_curves).mean(axis=0)
    return TimeseriesResult(
        spec=spec,
        lam=lam,
        betas=betas,
        mean_rho_r=mean_rr,
        mean_rho_a=mean_ra,
        final_rho_r=finals,
        tail_rho_a=tails,
        plateau_steps=plateaus,
        non_absorbed=non_absorbed,
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
        with open(path, "w", encoding="ascii") as fh:
            fh.write(f"# muxepi v{__version__} spec={self.spec.serialize()}\n")
            fh.write("strategy,fraction,mean_rho_r,std_rho_r,replications\n")
            for strat in self.strategies:
                for frac in self.fractions:
                    fh.write(
                        f"{strat},{float(frac)!r},{float(self.mean_rho_r[(strat, frac)])!r},"
                        f"{float(self.std_rho_r[(strat, frac)])!r},{self.spec.replications}\n"
                    )


def omega_ratio_sweep(
    spec: ExperimentSpec, strategies, fractions, jobs: int = 1
) -> SweepResult:
    """Mean final recovered fraction against the silenced-node fraction.

    Uses the single (lambda, beta_u) pair from the spec grids.
    """
    strategies = tuple(strategies)
    fractions = tuple(fractions)
    lam = spec.lambdas[0]
    beta = spec.betas[0]
    tasks = []
    for si, strat in enumerate(strategies):
        for fi, frac in enumerate(fractions):
            if not 0.0 <= frac <= 1.0:
                raise InvalidArgumentError(f"fraction {frac} outside [0,1]")
            omega = OmegaSpec(strategy=strat, fraction=frac, seed=spec.omega.seed)
            cell = si * len(fractions) + fi
            for rep in range(spec.replications):
                tasks.append((spec, omega, lam, beta, _KIND_SWEEP, cell, rep))
    results = _map_tasks(_run_one_summary, tasks, jobs)
    mean, std = {}, {}
    non_absorbed = 0
    idx = 0
    for strat in strategies:
        for frac in fractions:
            vals = []
            for _ in range(spec.replications):
                rho_r, _, absorbed = results[idx]
                vals.append(rho_r)
                non_absorbed += not absorbed
                idx += 1
            mean[(strat, frac)], std[(strat, frac)] = average_replications(vals)
    return SweepResult(
        spec=spec,
        strategies=strategies,
        fractions=fractions,
        mean_rho_r=mean,
        std_rho_r=std,
        non_absorbed=non_absorbed,
    )

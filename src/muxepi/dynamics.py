"""Discrete-time synchronous Monte Carlo engine for the coupled process.

Per step, every node is updated from the time-t snapshot in three substeps:
awareness (inform / forget), infection using the post-awareness
susceptibility, then recovery with a same-step chance of forgetting. Silenced
(omega) nodes never hold or transmit awareness; every other infected node is
aware for as long as it stays infected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .graph import MultiplexNetwork

S, I, R = 0, 1, 2
A = 3  # column of the aware fraction in a trajectory row, next to S, I, R

__all__ = [
    "S",
    "I",
    "R",
    "A",
    "DynamicsParams",
    "StateVector",
    "Trajectory",
    "init_states",
    "mc_step",
    "run_to_absorption",
    "counts",
]


@dataclass(frozen=True)
class DynamicsParams:
    """All rates and run controls.

    The aware-state infection probability is always the derived product
    gamma * beta_u and is never set independently.
    """

    lam: float  # information transmission probability per aware neighbor
    delta: float  # awareness forgetting probability per step
    beta_u: float  # infection probability per infected neighbor, unaware
    gamma: float  # attenuation factor: beta_a = gamma * beta_u
    mu: float  # recovery probability per step
    initial_infected_fraction: float = 0.001
    max_steps: int = 100_000

    def __post_init__(self):
        for name in ("lam", "delta", "beta_u", "gamma"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise InvalidArgumentError(f"{name} must be in [0,1], got {v}")
        # mu=0 is allowed here so degenerate no-recovery chains can be stepped;
        # absorption guarantees and the threshold formula require mu > 0 and
        # enforce it at their call sites.
        if not 0.0 <= self.mu <= 1.0:
            raise InvalidArgumentError(f"mu must be in [0,1], got {self.mu}")
        if not 0.0 < self.initial_infected_fraction < 1.0:
            raise InvalidArgumentError(
                "initial_infected_fraction must be in (0,1), got "
                f"{self.initial_infected_fraction}"
            )
        if self.max_steps < 1:
            raise InvalidArgumentError(f"max_steps must be >= 1, got {self.max_steps}")

    @property
    def beta_a(self) -> float:
        return self.gamma * self.beta_u


@dataclass
class StateVector:
    """Per-node joint state at one time step. Arrays are owned by one trajectory."""

    disease: np.ndarray  # int8, values S/I/R
    aware: np.ndarray  # bool
    omega: np.ndarray  # bool, fixed for the whole run
    step: int = 0

    @property
    def node_count(self) -> int:
        return len(self.disease)

    def copy(self) -> "StateVector":
        return StateVector(self.disease.copy(), self.aware.copy(), self.omega, self.step)


@dataclass
class Trajectory:
    """Per-step fractions of one realization, plus absorption bookkeeping."""

    steps: np.ndarray  # (T, 4) float64; row t holds the S, I, R and A fractions
    absorbed: bool
    absorption_step: int | None
    tail_window: int

    @property
    def final_rho_r(self) -> float:
        return float(self.steps[-1, R])

    @property
    def mean_tail_rho_a(self) -> float:
        """Awareness fraction averaged over the post-absorption tail.

        Falls back to the last recorded value when the run never absorbed.
        """
        if self.absorbed and self.tail_window > 0:
            return float(np.mean(self.steps[-self.tail_window :, A]))
        return float(self.steps[-1, A])


def omega_mask(n: int, omega_set) -> np.ndarray:
    """Boolean mask of the silenced nodes among n; indices must lie in 0..n-1."""
    idx = np.asarray(list(omega_set), dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise InvalidArgumentError("omega_set contains out-of-range node indices")
    return np.bincount(idx, minlength=n) > 0


def init_states(
    net: MultiplexNetwork,
    omega_set,
    params: DynamicsParams,
    rng: np.random.Generator,
) -> StateVector:
    """Seed ceil(N * initial_infected_fraction) uniform infections; rest US."""
    n = net.node_count
    omega = omega_mask(n, omega_set)
    n_seed = int(np.ceil(n * params.initial_infected_fraction))
    seeds = rng.choice(n, size=n_seed, replace=False)
    disease = np.full(n, S, dtype=np.int8)
    disease[seeds] = I
    aware = (disease == I) & ~omega
    return StateVector(disease=disease, aware=aware, omega=omega, step=0)


def mc_step(
    states: StateVector,
    net: MultiplexNetwork,
    params: DynamicsParams,
    rng: np.random.Generator,
) -> StateVector:
    """One synchronous step; neighbor influences read the time-t snapshot.

    Random numbers are drawn as fixed-length arrays in a fixed order, so the
    trajectory is independent of any notional node iteration order.
    """
    n = states.node_count
    a_mat = net.awareness_layer.adjacency()
    b_mat = net.contact_layer.adjacency()
    disease = states.disease
    aware = states.aware
    omega = states.omega
    infected_t = disease == I

    # Substep 1: awareness. Each aware neighbor informs independently with
    # probability lam, so staying unaware has probability (1-lam)^(#aware).
    n_aware = a_mat @ aware.astype(np.float64)
    p_stay_unaware = (1.0 - params.lam) ** n_aware
    u_inform = rng.random(n)
    informed = ~aware & ~omega & (u_inform >= p_stay_unaware)
    u_forget = rng.random(n)
    # Infected non-omega nodes are pinned aware until they recover.
    forgets = aware & ~omega & (disease != I) & (u_forget < params.delta)
    aware_mid = (aware | informed) & ~forgets

    # Substep 2: infection at the post-awareness susceptibility.
    n_inf = b_mat @ infected_t.astype(np.float64)
    p_escape = np.where(
        aware_mid,
        (1.0 - params.beta_a) ** n_inf,
        (1.0 - params.beta_u) ** n_inf,
    )
    u_infect = rng.random(n)
    newly_infected = (disease == S) & (u_infect >= p_escape)

    # Substep 3: recovery of nodes infected at time t, then same-step forgetting.
    u_recover = rng.random(n)
    recovers = infected_t & (u_recover < params.mu)
    u_post_forget = rng.random(n)
    post_forgets = recovers & ~omega & (u_post_forget < params.delta)

    disease_next = disease.copy()
    disease_next[newly_infected] = I
    disease_next[recovers] = R
    aware_next = aware_mid.copy()
    aware_next[newly_infected & ~omega] = True
    aware_next[post_forgets] = False
    return StateVector(
        disease=disease_next, aware=aware_next, omega=omega, step=states.step + 1
    )


def counts(states: StateVector) -> np.ndarray:
    """The S, I, R and A fractions: exact integer tallies over N."""
    disease = states.disease
    tallies = [np.count_nonzero(disease == c) for c in (S, I, R)]
    return np.array([*tallies, np.count_nonzero(states.aware)]) / states.node_count


def run_to_absorption(
    net: MultiplexNetwork,
    omega_set,
    params: DynamicsParams,
    rng: np.random.Generator,
    tail_window: int = 100,
) -> Trajectory:
    """Iterate until no infected node remains (or max_steps), then keep going
    for tail_window steps so the still-fluctuating awareness fraction can be
    averaged."""
    sv = init_states(net, omega_set, params, rng)
    history = [counts(sv)]
    absorbed = False
    absorption_step = None
    for _ in range(params.max_steps):
        sv = mc_step(sv, net, params, rng)
        history.append(counts(sv))
        if not np.any(sv.disease == I):
            absorbed = True
            absorption_step = sv.step
            break
    if absorbed:
        for _ in range(tail_window):
            sv = mc_step(sv, net, params, rng)
            history.append(counts(sv))
    return Trajectory(
        steps=np.array(history),
        absorbed=absorbed,
        absorption_step=absorption_step,
        tail_window=tail_window,
    )

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
    """Per-node joint state at one time step. Arrays are owned by one trajectory.

    `aware_nbrs` counts each node's aware neighbours in the awareness layer and
    `infected_nbrs` its infected neighbours in the contact layer. `mc_step`
    counts them once when they are None and carries them from step to step.
    """

    disease: np.ndarray  # int8, values S/I/R
    aware: np.ndarray  # bool
    omega: np.ndarray  # bool, fixed for the whole run
    step: int = 0
    aware_nbrs: np.ndarray | None = None  # intp
    infected_nbrs: np.ndarray | None = None  # intp

    @property
    def node_count(self) -> int:
        return len(self.disease)


@dataclass
class Trajectory:
    """Per-step fractions of one realization, plus absorption bookkeeping."""

    steps: np.ndarray  # (T, 4) float64; row t holds the S, I, R and A fractions
    absorption_step: int | None  # None when the run hit max_steps

    @property
    def absorbed(self) -> bool:
        return self.absorption_step is not None

    @property
    def final_rho_r(self) -> float:
        return float(self.steps[-1, R])

    @property
    def mean_tail_rho_a(self) -> float:
        """Awareness fraction averaged over the rows after `absorption_step`.

        Falls back to the last recorded value when there are none.
        """
        tail = self.steps[self.absorption_step + 1 :, A] if self.absorbed else ()
        return float(np.mean(tail)) if len(tail) else float(self.steps[-1, A])


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
    infected = disease == I
    aware = infected & ~omega
    n_aware, n_inf = _neighbour_counts(net, np.concatenate((aware, infected)))
    return StateVector(disease, aware, omega, 0, n_aware, n_inf)


def _neighbours(csr, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The joined CSR rows of `nodes`, and the length of each row."""
    indptr, indices = csr
    hi = indptr[1:][nodes]
    lens = hi - indptr[nodes]
    # Entry j of the joined rows lies at its row's end, minus the joined end, plus j.
    offset = np.repeat(hi - lens.cumsum(), lens)
    return indices[offset + np.arange(len(offset))], lens


def _neighbour_counts(net: MultiplexNetwork, held: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Aware neighbours in the awareness layer and infected neighbours in the
    contact layer, from `held`: the aware then the infected mask, stacked."""
    n = net.node_count
    nbr_counts = np.bincount(_neighbours(net.stacked, held.nonzero()[0])[0], minlength=2 * n)
    return nbr_counts[:n], nbr_counts[n:]


def _powers(base, count: np.ndarray) -> np.ndarray:
    """base ** k for k = 0..max(count) along the last axis; indexed by count,
    it gives the same bits as base ** count (same power loop, same operands)."""
    return base ** np.arange(count.max(initial=0) + 1)


def mc_step(
    states: StateVector,
    net: MultiplexNetwork,
    params: DynamicsParams,
    rng: np.random.Generator,
) -> StateVector:
    """One synchronous step; neighbor influences read the time-t snapshot.

    Random numbers are drawn as fixed-length arrays in a fixed order, so the
    trajectory is independent of any notional node iteration order. The
    neighbour counts are carried over, moved only by the nodes that flipped.
    """
    n = states.node_count
    disease = states.disease
    aware = states.aware
    omega = states.omega
    infected_t = disease == I
    held = np.concatenate((aware, infected_t))  # the counted nodes, in `net.stacked` order
    n_aware, n_inf = states.aware_nbrs, states.infected_nbrs
    if n_aware is None or n_inf is None:
        n_aware, n_inf = _neighbour_counts(net, held)
    # The same values as five rng.random(n) calls in this order.
    u_inform, u_forget, u_infect, u_recover, u_post_forget = rng.random((5, n))

    # Substep 1: awareness. Each aware neighbor informs independently with
    # probability lam, so staying unaware has probability (1-lam)^(#aware).
    # Without an aware neighbour that is 1.0, which no uniform in [0, 1)
    # reaches, so only the other nodes are compared. For booleans, x > y is
    # x and not y.
    can_learn = ((n_aware > 0) > (aware | omega)).nonzero()[0]
    k = n_aware[can_learn]
    informed = can_learn[u_inform[can_learn] >= _powers(1.0 - params.lam, k)[k]]
    # Infected non-omega nodes are pinned aware until they recover.
    forgets = (aware & (u_forget < params.delta)) > (omega | infected_t)
    aware_mid = aware ^ forgets
    aware_mid[informed] = True

    # Substep 2: infection at the post-awareness susceptibility.
    # Row 0 of the table escapes at beta_u (unaware), row 1 at beta_a (aware);
    # the escape is 1.0 without an infected contact.
    exposed = ((disease == S) & (n_inf > 0)).nonzero()[0]
    k = n_inf[exposed]
    escape = _powers(np.array([[1.0 - params.beta_u], [1.0 - params.beta_a]]), k)
    p_escape = escape[aware_mid.view(np.uint8)[exposed], k]
    newly_infected = exposed[u_infect[exposed] >= p_escape]

    # Substep 3: recovery of nodes infected at time t, then same-step forgetting.
    infected = infected_t.nonzero()[0]
    recovers = infected[u_recover[infected] < params.mu]
    post_forgets = recovers[(u_post_forget[recovers] < params.delta) > omega[recovers]]

    disease_next = disease.copy()
    disease_next[newly_infected] = I
    disease_next[recovers] = R
    aware_next = aware_mid  # substep 2 has read it
    aware_next[newly_infected[~omega[newly_infected]]] = True
    aware_next[post_forgets] = False

    # One signed push over the joined neighbour lists of the nodes that
    # entered (+1) or left (-1) the aware or the infected set: it costs their
    # degree sum, not the edge count.
    held_next = np.concatenate((aware_next, disease_next == I))
    flips = (held_next != held).nonzero()[0]
    if len(flips):
        nbr_counts = np.concatenate((n_aware, n_inf))
        nbrs, lens = _neighbours(net.stacked, flips)
        np.add.at(nbr_counts, nbrs, np.repeat(np.where(held_next[flips], 1, -1), lens))
        n_aware, n_inf = nbr_counts[:n], nbr_counts[n:]
    return StateVector(disease_next, aware_next, omega, states.step + 1, n_aware, n_inf)


def counts(states: StateVector) -> np.ndarray:
    """The S, I, R and A fractions: exact integer tallies over N."""
    # S is 0, so the nonzero entries of disease are the I and R nodes.
    ever_infected = np.count_nonzero(states.disease)
    infected = np.count_nonzero(states.disease == I)
    tallies = [states.node_count - ever_infected, infected, ever_infected - infected]
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
    absorption_step = None
    end = params.max_steps
    while sv.step < end:
        sv = mc_step(sv, net, params, rng)
        history.append(counts(sv))
        if absorption_step is None and history[-1][I] == 0.0:
            absorption_step = sv.step
            end = absorption_step + tail_window
    return Trajectory(np.array(history), absorption_step)

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
        # mu=0 is allowed so degenerate no-recovery chains can be stepped; the
        # threshold formula requires mu > 0 and enforces it at its call site.
        for name in ("lam", "delta", "beta_u", "gamma", "mu"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise InvalidArgumentError(f"{name} must be in [0,1], got {v}")
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

    `mc_step` builds each of the last four fields when it is None and carries
    it from step to step.
    """

    disease: np.ndarray  # int8, values S/I/R
    aware: np.ndarray  # bool
    omega: np.ndarray  # bool, fixed for the whole run
    step: int = 0
    aware_nbrs: np.ndarray | None = None  # intp, aware neighbours in the awareness layer
    infected_nbrs: np.ndarray | None = None  # intp, infected neighbours in the contact layer
    tallies: np.ndarray | None = None  # int64, the S, I, R and aware node counts
    tables: tuple | None = None  # the run's power tables, from `_power_tables`

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
    return StateVector(disease, aware, omega, 0, n_aware, n_inf, tables=_power_tables(net, params))


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


def _power_tables(net: MultiplexNetwork, params: DynamicsParams) -> tuple:
    """(params, (1-lam)^k, [(1-beta_u)^k, (1-beta_a)^k]) for k up to the largest
    degree, which no count exceeds; entry k has the same bits at any length."""
    k = np.arange(np.diff(net.stacked[0]).max() + 1)
    escape = np.array([[1.0 - params.beta_u], [1.0 - params.beta_a]]) ** k
    return params, (1.0 - params.lam) ** k, escape


def mc_step(
    states: StateVector,
    net: MultiplexNetwork,
    params: DynamicsParams,
    rng: np.random.Generator,
) -> StateVector:
    """One synchronous step; neighbor influences read the time-t snapshot.

    Only the nodes that can change draw, in a fixed order: one uniform per
    node that can learn, the heads of N forget coins, one uniform per exposed
    susceptible, per infected and per recovering node. The neighbour counts
    and tallies are carried over, moved only by the nodes that flipped.
    """
    n = states.node_count
    disease, aware, omega = states.disease, states.aware, states.omega
    infected_t = disease == I
    held = np.concatenate((aware, infected_t))  # the counted nodes, in `net.stacked` order
    n_aware, n_inf = states.aware_nbrs, states.infected_nbrs
    if n_aware is None or n_inf is None:
        n_aware, n_inf = _neighbour_counts(net, held)
    tallies = _tallies(states) if states.tallies is None else states.tallies
    tables = states.tables
    if tables is None or tables[0] is not params:
        tables = _power_tables(net, params)
    _, stay_unaware, escape = tables

    # Substep 1: awareness. Each aware neighbor informs independently with
    # probability lam, so staying unaware has probability (1-lam)^(#aware).
    # Without an aware neighbour that is 1.0, which no uniform in [0, 1)
    # reaches, so only the other nodes draw. For booleans, x > y is x and not y.
    can_learn = ((n_aware > 0) > (aware | omega)).nonzero()[0]
    informed = can_learn[rng.random(len(can_learn)) >= stay_unaware[n_aware[can_learn]]]
    # The heads of N delta-coins are a Binomial(N, delta) count of uniform nodes.
    # Infected non-omega nodes stay aware until they recover; other aware nodes forget.
    heads = rng.choice(n, rng.binomial(n, params.delta), replace=False, shuffle=False)
    aware_mid = aware.copy()
    aware_mid[heads[aware[heads] > (omega | infected_t)[heads]]] = False
    aware_mid[informed] = True

    # Substep 2: infection at the post-awareness susceptibility.
    # Row 0 of the table escapes at beta_u (unaware), row 1 at beta_a (aware);
    # the escape is 1.0 without an infected contact.
    exposed = ((disease == S) & (n_inf > 0)).nonzero()[0]
    p_escape = escape[aware_mid.view(np.uint8)[exposed], n_inf[exposed]]
    newly_infected = exposed[rng.random(len(exposed)) >= p_escape]

    # Substep 3: recovery of nodes infected at time t, then same-step forgetting.
    infected = infected_t.nonzero()[0]
    recovers = infected[rng.random(len(infected)) < params.mu]
    post_forgets = recovers[(rng.random(len(recovers)) < params.delta) > omega[recovers]]

    disease_next = disease.copy()
    disease_next[newly_infected] = I
    disease_next[recovers] = R
    aware_next = aware_mid  # substep 2 has read it
    aware_next[newly_infected[~omega[newly_infected]]] = True
    aware_next[post_forgets] = False

    # One signed push over the joined neighbour lists of the nodes that
    # entered (+1) or left (-1) the aware or the infected set: it costs their
    # degree sum, not the edge count. The aware flips come first in `flips`.
    held_next = np.concatenate((aware_next, disease_next == I))
    flips = (held_next != held).nonzero()[0]
    signs = np.where(held_next[flips], 1, -1)
    if len(flips):
        nbr_counts = np.concatenate((n_aware, n_inf))
        nbrs, lens = _neighbours(net.stacked, flips)
        np.add.at(nbr_counts, nbrs, np.repeat(signs, lens))
        n_aware, n_inf = nbr_counts[:n], nbr_counts[n:]
    new, rec = len(newly_infected), len(recovers)
    tallies = tallies + [-new, new - rec, rec, signs[: np.searchsorted(flips, n)].sum()]
    return StateVector(
        disease_next, aware_next, omega, states.step + 1, n_aware, n_inf, tallies, tables
    )


def _tallies(states: StateVector) -> np.ndarray:
    """The S, I, R and aware node counts."""
    return np.append(np.bincount(states.disease, minlength=3), np.count_nonzero(states.aware))


def counts(states: StateVector) -> np.ndarray:
    """The S, I, R and A fractions: exact integer tallies over N."""
    return _tallies(states) / states.node_count


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
        history.append(sv.tallies / sv.node_count)  # the fractions `counts` would give
        if absorption_step is None and sv.tallies[I] == 0:
            absorption_step = sv.step
            end = absorption_step + tail_window
    return Trajectory(np.array(history), absorption_step)

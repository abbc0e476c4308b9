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

from .errors import InvalidArgumentError, check_count, check_range
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
            check_range(name, getattr(self, name), 0.0, 1.0)
        if not 0.0 < self.initial_infected_fraction < 1.0:
            raise InvalidArgumentError(
                "initial_infected_fraction must be in (0,1), got "
                f"{self.initial_infected_fraction}"
            )
        check_count("max_steps", self.max_steps, 1)

    @property
    def beta_a(self) -> float:
        return self.gamma * self.beta_u


@dataclass
class StateVector:
    """Per-node joint state at one time step. Arrays are owned by one trajectory.

    `mc_step` builds each of the last three fields when it is None and carries
    it from step to step.
    """

    disease: np.ndarray  # int8, values S/I/R
    aware: np.ndarray  # bool
    omega: np.ndarray  # bool, fixed for the whole run
    step: int = 0
    aware_nbrs: np.ndarray | None = None  # intp, aware neighbours in the awareness layer
    infected_nbrs: np.ndarray | None = None  # intp, infected neighbours in the contact layer
    tallies: np.ndarray | None = None  # int64, the S, I, R and aware node counts

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
    """Read-only boolean mask of the silenced nodes among n; indices must be integers in 0..n-1."""
    idx = np.asarray(list(omega_set))
    if idx.size and idx.dtype.kind not in "iu":
        raise InvalidArgumentError(f"omega_set must hold integer node indices, got {idx.dtype}")
    idx = idx.astype(np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise InvalidArgumentError("omega_set contains out-of-range node indices")
    mask = np.bincount(idx, minlength=n) > 0
    mask.flags.writeable = False
    return mask


def init_states(
    net: MultiplexNetwork,
    omega_set,
    params: DynamicsParams,
    rng: np.random.Generator,
) -> StateVector:
    """Seed ceil(N * initial_infected_fraction) uniform infections; rest US."""
    n = net.node_count
    if n == 0:
        raise InvalidArgumentError("init_states needs at least one node, got node_count=0")
    omega = omega_mask(n, omega_set)
    n_seed = int(np.ceil(n * params.initial_infected_fraction))
    seeds = rng.choice(n, size=n_seed, replace=False)
    disease = np.full(n, S, dtype=np.int8)
    disease[seeds] = I
    return StateVector(disease, (disease == I) & ~omega, omega)


def _neighbours(csr, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The joined CSR rows of `nodes`, and the length of each row."""
    indptr, indices = csr
    hi = indptr[1:][nodes]
    lens = hi - indptr[nodes]
    # Entry j of the joined rows lies at its row's end, minus the joined end, plus j.
    offset = np.repeat(hi - lens.cumsum(), lens)
    return indices[offset + np.arange(len(offset))], lens


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
    and tallies are carried over, moved by the flips that the step's events make.
    """
    n = states.node_count
    disease, aware, omega = states.disease, states.aware, states.omega
    infected_t = disease == I
    n_aware, n_inf = states.aware_nbrs, states.infected_nbrs
    if n_aware is None or n_inf is None:  # a state from `init_states`, or built by hand
        held = np.concatenate((aware, infected_t)).nonzero()[0]
        nbr_counts = np.bincount(_neighbours(net.stacked, held)[0], minlength=2 * n)
        n_aware, n_inf = nbr_counts[:n], nbr_counts[n:]
    tallies = _tallies(states) if states.tallies is None else states.tallies

    # Substep 1: awareness. Each aware neighbor informs independently with
    # probability lam, so staying unaware has probability (1-lam)^(#aware).
    # Without an aware neighbour that is 1.0, which no uniform in [0, 1)
    # reaches, so only the other nodes draw. For booleans, x > y is x and not y.
    can_learn = ((n_aware > 0) > (aware | omega)).nonzero()[0]
    stay_unaware = (1.0 - params.lam) ** n_aware[can_learn]
    informed = can_learn[rng.random(len(can_learn)) >= stay_unaware]
    # The heads of N delta-coins are a Binomial(N, delta) count of uniform nodes.
    # Infected non-omega nodes stay aware until they recover; other aware nodes forget.
    heads = rng.choice(n, rng.binomial(n, params.delta), replace=False, shuffle=False)
    forgets = heads[aware[heads] > (omega[heads] | infected_t[heads])]
    aware_mid = aware.copy()
    aware_mid[forgets] = False
    aware_mid[informed] = True

    # Substep 2: infection at the post-awareness susceptibility, escaping each
    # infected contact at beta_a if aware, else beta_u; the escape is 1.0
    # without an infected contact.
    exposed = ((disease == S) & (n_inf > 0)).nonzero()[0]
    base = np.where(aware_mid[exposed], 1.0 - params.beta_a, 1.0 - params.beta_u)
    p_escape = base ** n_inf[exposed]
    newly_infected = exposed[rng.random(len(exposed)) >= p_escape]

    # Substep 3: recovery of nodes infected at time t, then same-step forgetting;
    # a silenced node is never aware, so its forgetting changes nothing.
    infected = infected_t.nonzero()[0]
    recovers = infected[rng.random(len(infected)) < params.mu]
    post_forgets = recovers[rng.random(len(recovers)) < params.delta]

    disease_next = disease.copy()
    disease_next[newly_infected] = I
    disease_next[recovers] = R
    learns = newly_infected[~(omega[newly_infected] | aware_mid[newly_infected])]
    unlearns = post_forgets[aware_mid[post_forgets]]
    aware_next = aware_mid  # substep 2 has read it
    aware_next[learns] = True
    aware_next[unlearns] = False

    # One push over the joined neighbour lists of the nodes that entered the
    # aware or the infected set (+1), then of those that left it (-1): it costs
    # their degree sum, not the edge count. An event is a flip where it changes
    # its node, so a node that forgets and is then infected is a loss and a gain.
    gains = (informed, learns, newly_infected + n)  # the infected set sits N on in `net.stacked`
    flips = np.concatenate((*gains, forgets, unlearns, recovers + n))
    if len(flips):
        nbr_counts = np.concatenate((n_aware, n_inf))
        nbrs, lens = _neighbours(net.stacked, flips)
        split = lens[: sum(map(len, gains))].sum()
        np.add.at(nbr_counts, nbrs[:split], 1)
        np.subtract.at(nbr_counts, nbrs[split:], 1)
        n_aware, n_inf = nbr_counts[:n], nbr_counts[n:]
    new, rec = len(newly_infected), len(recovers)
    aware_gain = len(informed) + len(learns) - len(forgets) - len(unlearns)
    tallies = tallies + [-new, new - rec, rec, aware_gain]
    return StateVector(disease_next, aware_next, omega, states.step + 1, n_aware, n_inf, tallies)


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

"""Deterministic per-node probability iteration and the spectral threshold.

The joint-state marginals of every node are advanced under an independence
closure. Silenced (omega) nodes carry an extra unaware-infected component so
their distribution stays stochastic while their awareness channel is clamped
to zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .dynamics import DynamicsParams, omega_mask
from .errors import InvalidArgumentError, NonConvergenceError
from .graph import Graph, MultiplexNetwork

__all__ = [
    "MmcaState",
    "ThresholdResult",
    "init_mmca",
    "mmca_rates",
    "mmca_step",
    "mmca_run",
    "uau_steady_state",
    "build_h_matrix",
    "leading_eigenvalue",
    "epidemic_threshold",
    "write_threshold_csv",
    "write_node_csv",
    "COMPONENTS",
]

# The joint-state components of MmcaState, in the column order of mmca_states.csv.
COMPONENTS = ("p_us", "p_as", "p_ai", "p_ur", "p_ar", "p_ui")

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 100_000


@dataclass
class MmcaState:
    """Per-node probability vectors over the joint states.

    p_ui is identically zero for non-silenced nodes; silenced nodes have
    p_as = p_ai = p_ar = 0.
    """

    p_us: np.ndarray
    p_as: np.ndarray
    p_ai: np.ndarray
    p_ur: np.ndarray
    p_ar: np.ndarray
    p_ui: np.ndarray
    omega: np.ndarray  # bool mask
    step: int = 0

    @property
    def p_a(self) -> np.ndarray:
        """Marginal awareness probability."""
        return self.p_as + self.p_ai + self.p_ar

    @property
    def p_i(self) -> np.ndarray:
        """Marginal infection probability (includes unaware-infected mass)."""
        return self.p_ai + self.p_ui

    @property
    def p_r(self) -> np.ndarray:
        return self.p_ur + self.p_ar

    def component_sums(self) -> np.ndarray:
        return self.p_us + self.p_as + self.p_ai + self.p_ur + self.p_ar + self.p_ui

    def rho(self) -> dict:
        return {
            "rho_s": float(np.mean(self.p_us + self.p_as)),
            "rho_i": float(np.mean(self.p_i)),
            "rho_r": float(np.mean(self.p_r)),
            "rho_a": float(np.mean(self.p_a)),
        }


@dataclass(frozen=True)
class ThresholdResult:
    beta_c: float
    lambda_max: float
    p_a: np.ndarray


def _neighbor_product(adj: sparse.csr_matrix, factors: np.ndarray) -> np.ndarray:
    """prod_j factors[j] over each node's neighbors, as exp of summed logs."""
    zero = factors <= 0.0
    with np.errstate(divide="ignore"):
        logs = np.where(zero, 0.0, np.log(np.where(zero, 1.0, factors)))
    out = np.exp(adj @ logs)
    if zero.any():
        out[(adj @ zero.astype(np.float64)) > 0.0] = 0.0
    return out


def init_mmca(
    net: MultiplexNetwork, omega_set, params: DynamicsParams
) -> MmcaState:
    """Mirror the Monte Carlo initial condition in probability."""
    n = net.node_count
    omega = omega_mask(n, omega_set)
    f = params.initial_infected_fraction
    p_ai = np.where(omega, 0.0, f)
    p_ui = np.where(omega, f, 0.0)
    p_us = np.full(n, 1.0 - f)
    zeros = np.zeros(n)
    return MmcaState(
        p_us=p_us,
        p_as=zeros.copy(),
        p_ai=p_ai,
        p_ur=zeros.copy(),
        p_ar=zeros.copy(),
        p_ui=p_ui,
        omega=omega,
        step=0,
    )


def mmca_rates(state: MmcaState, net: MultiplexNetwork, params: DynamicsParams):
    """Per-node probabilities of not being informed (r) and of escaping
    infection while aware (q_a) or unaware (q_u), from neighbor marginals."""
    a_mat = net.awareness_layer.adjacency()
    b_mat = net.contact_layer.adjacency()
    p_a = state.p_a
    p_i = state.p_i
    r = _neighbor_product(a_mat, 1.0 - params.lam * p_a)
    q_a = _neighbor_product(b_mat, 1.0 - params.beta_a * p_i)
    q_u = _neighbor_product(b_mat, 1.0 - params.beta_u * p_i)
    return r, q_a, q_u


def mmca_step(state: MmcaState, net: MultiplexNetwork, params: DynamicsParams) -> MmcaState:
    """Advance every node's joint-state distribution by one step."""
    r, q_a, q_u = mmca_rates(state, net, params)
    delta, mu = params.delta, params.mu
    p_us, p_as, p_ai = state.p_us, state.p_as, state.p_ai
    p_ur, p_ar, p_ui = state.p_ur, state.p_ar, state.p_ui

    n_as = p_as * (1.0 - delta) * q_a + p_us * (1.0 - r) * q_a
    n_us = p_as * delta * q_u + p_us * r * q_u
    n_ai = (
        p_as * ((1.0 - delta) * (1.0 - q_a) + delta * (1.0 - q_u))
        + p_us * (r * (1.0 - q_u) + (1.0 - r) * (1.0 - q_a))
        + p_ai * (1.0 - mu)
    )
    n_ar = p_ai * (1.0 - delta) * mu + p_ar * (1.0 - delta) + p_ur * (1.0 - r)
    n_ur = p_ai * delta * mu + p_ar * delta + p_ur * r
    n_ui = np.zeros_like(p_ui)

    # Silenced nodes: awareness channel clamped, infected mass stays unaware.
    om = state.omega
    if om.any():
        o_us = p_us * q_u
        o_ui = p_us * (1.0 - q_u) + p_ui * (1.0 - mu)
        o_ur = p_ur + p_ui * mu
        n_us = np.where(om, o_us, n_us)
        n_ui = np.where(om, o_ui, n_ui)
        n_ur = np.where(om, o_ur, n_ur)
        zero = np.zeros_like(p_us)
        n_as = np.where(om, zero, n_as)
        n_ai = np.where(om, zero, n_ai)
        n_ar = np.where(om, zero, n_ar)

    return MmcaState(
        p_us=n_us,
        p_as=n_as,
        p_ai=n_ai,
        p_ur=n_ur,
        p_ar=n_ar,
        p_ui=n_ui,
        omega=om,
        step=state.step + 1,
    )


def mmca_run(
    net: MultiplexNetwork,
    omega_set,
    params: DynamicsParams,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> MmcaState:
    """Iterate to a fixed point (max-norm change < tol over all components)."""
    state = init_mmca(net, omega_set, params)
    for _ in range(max_iter):
        nxt = mmca_step(state, net, params)
        change = max(
            float(np.max(np.abs(getattr(nxt, c) - getattr(state, c))))
            for c in COMPONENTS
        )
        state = nxt
        if change < tol:
            return state
    raise NonConvergenceError(
        f"no fixed point within {max_iter} iterations", last_iterate=state, residual=change
    )


def uau_steady_state(
    net: MultiplexNetwork,
    params: DynamicsParams,
    omega_set=(),
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    init: float = 0.5,
) -> np.ndarray:
    """Disease-free awareness fixed point; silenced nodes stay at zero."""
    if tol <= 0.0:
        raise InvalidArgumentError(f"tol must be > 0, got {tol}")
    a_mat = net.awareness_layer.adjacency()
    omega = omega_mask(net.node_count, omega_set)
    p = np.where(omega, 0.0, float(init))
    for _ in range(max_iter):
        r = _neighbor_product(a_mat, 1.0 - params.lam * p)
        nxt = p * (1.0 - params.delta) + (1.0 - p) * (1.0 - r)
        nxt[omega] = 0.0
        change = float(np.max(np.abs(nxt - p)))
        p = nxt
        if change < tol:
            return p
    raise NonConvergenceError(
        f"awareness fixed point not reached within {max_iter} iterations",
        last_iterate=p,
        residual=change,
    )


def build_h_matrix(p_a: np.ndarray, contact: Graph, gamma: float) -> sparse.csr_matrix:
    """Row i of the contact adjacency scaled by 1 - (1-gamma) * p_a[i].

    Stored sparse; the zero pattern is exactly the contact adjacency.
    """
    p_a = np.asarray(p_a, dtype=np.float64)
    if np.any((p_a < 0.0) | (p_a > 1.0)):
        raise InvalidArgumentError("p_a entries must lie in [0,1]")
    factors = 1.0 - (1.0 - gamma) * p_a
    b_mat = contact.adjacency()
    h = sparse.diags(factors) @ b_mat.T
    return sparse.csr_matrix(h)


def leading_eigenvalue(
    m,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    _shifted: bool = False,
) -> float:
    """Dominant eigenvalue by power iteration with Rayleigh-quotient stopping.

    Non-negative matrices have a real dominant eigenvalue; an all-ones start
    cannot be orthogonal to the Perron vector of an irreducible one. On
    oscillation (e.g. bipartite adjacency) the iteration retries on m + I and
    subtracts the shift.
    """
    n = m.shape[0]
    if n == 0:
        raise InvalidArgumentError("empty matrix")
    v = np.full(n, 1.0 / np.sqrt(n))
    prev = None
    streak = 0
    oscillating = False
    for _ in range(max_iter):
        w = m @ v
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return 0.0
        ray = float(v @ w)
        if prev is not None and abs(ray - prev) < tol:
            streak += 1
            if streak >= 2:
                # A stable Rayleigh quotient with a large eigen-residual means
                # the iterate is flipping between two dominant eigendirections
                # (bipartite-style +/- pair), not converging.
                residual = float(np.linalg.norm(w - ray * v))
                if residual <= 1e-2 * max(1.0, abs(ray)):
                    return ray
                oscillating = True
                streak = 0
                if not _shifted:
                    break
        else:
            streak = 0
        prev = ray
        v = w / norm
    if oscillating and not _shifted:
        shifted = m + sparse.identity(n, format="csr") if sparse.issparse(m) else m + np.eye(n)
        return leading_eigenvalue(shifted, tol=tol, max_iter=max_iter, _shifted=True) - 1.0
    raise NonConvergenceError(
        f"power iteration did not converge within {max_iter} iterations",
        last_iterate=v,
        residual=abs(ray - prev) if prev is not None else None,
    )


def epidemic_threshold(
    net: MultiplexNetwork,
    params: DynamicsParams,
    omega_set=(),
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> ThresholdResult:
    """Critical unaware infection probability mu / Lambda_max(H)."""
    if not 0.0 < params.mu <= 1.0:
        raise InvalidArgumentError(f"threshold needs mu in (0,1], got {params.mu}")
    p_a = uau_steady_state(net, params, omega_set=omega_set, tol=tol, max_iter=max_iter)
    h = build_h_matrix(p_a, net.contact_layer, params.gamma)
    lam_max = leading_eigenvalue(h, tol=tol, max_iter=max_iter)
    return ThresholdResult(beta_c=params.mu / lam_max, lambda_max=lam_max, p_a=p_a)


def write_threshold_csv(result: ThresholdResult, params: DynamicsParams, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("gamma,lambda,delta,mu,lambda_max_H,beta_c\n")
        fh.write(
            f"{params.gamma!r},{params.lam!r},{params.delta!r},{params.mu!r},"
            f"{result.lambda_max!r},{result.beta_c!r}\n"
        )


def write_node_csv(path, names, columns) -> None:
    """A `node,<names>` header, then one row per node of each column's float repr."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(("node", *names)) + "\n")
        rows = zip(*(np.asarray(c, dtype=np.float64).tolist() for c in columns))
        for i, row in enumerate(rows):
            fh.write(f"{i},{','.join(map(repr, row))}\n")

"""Deterministic per-node probability iteration and the spectral threshold.

The joint-state marginals of every node are advanced under an independence
closure, the UAU-SIS MMCA of Granell, Gomez & Arenas (PRL 111, 128701, 2013)
with recovery to R. Every node takes the same update. A silenced (omega) node
is the case r = 1 (no neighbour informs it) and delta = 1 (it forgets at
once), so it is never aware and its infected mass stays unaware.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dynamics import DynamicsParams, omega_mask
from .errors import InvalidArgumentError, NonConvergenceError, check_count, check_range
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
    "COMPONENTS",
]

# The joint-state components of MmcaState, in the column order of mmca_states.csv.
COMPONENTS = ("p_us", "p_as", "p_ai", "p_ur", "p_ar", "p_ui")

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 100_000


@dataclass
class MmcaState:
    """Per-node probability vectors over the joint states.

    p_i is the infected mass of every node: aware on ordinary nodes, unaware
    on silenced ones, which also keep p_as = p_ar = 0. The p_ai and p_ui
    components split p_i by omega. `mmca_step` builds `run` when it is None
    or was built for another net, params or omega object, and carries it
    from step to step. A mask from `init_mmca` is read-only: swap in a new array.
    """

    p_us: np.ndarray
    p_as: np.ndarray
    p_i: np.ndarray
    p_ur: np.ndarray
    p_ar: np.ndarray
    omega: np.ndarray  # bool mask
    step: int = 0
    run: tuple | None = None  # the run's constants, from `_run_constants`

    @property
    def p_ai(self) -> np.ndarray:
        return np.where(self.omega, 0.0, self.p_i)

    @property
    def p_ui(self) -> np.ndarray:
        return np.where(self.omega, self.p_i, 0.0)

    @property
    def p_a(self) -> np.ndarray:
        """Marginal awareness probability."""
        return self.p_as + self.p_ai + self.p_ar

    @property
    def p_r(self) -> np.ndarray:
        return self.p_ur + self.p_ar

    def component_sums(self) -> np.ndarray:
        return self.p_us + self.p_as + self.p_i + self.p_ur + self.p_ar

    def rho(self) -> dict:
        if not len(self.p_i):  # no node to average over
            raise InvalidArgumentError("rho needs a state of at least one node")
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


def _neighbor_product(adj, factors: np.ndarray) -> np.ndarray:
    """prod_j factors[j] over each node's neighbors, as exp of summed logs.

    Factors are at most 1, so no log is +inf; a factor <= 0 has log -inf,
    which makes its rows' sums -inf and their products exp(-inf) = +0.0.
    Clamps and logs `factors` in place, so the caller must own it.
    """
    np.maximum(factors, 0.0, out=factors)
    with np.errstate(divide="ignore"):
        np.log(factors, out=factors)
    out = adj @ factors
    return np.exp(out, out=out)


def _live_awareness(net: MultiplexNetwork, omega: np.ndarray):
    """The awareness adjacency without the rows and columns of silenced nodes.

    A silenced node holds p_a = +0.0, whose log(1 - lam * p_a) = +0.0 adds
    nothing to a neighbour's sum, so dropping its column keeps every sum's
    bits; each row keeps its column order. Its empty row gives r = exp(0) = 1.
    """
    from scipy import sparse
    keep = sparse.diags(np.where(omega, 0.0, 1.0))
    live = (keep @ net.awareness_layer.adjacency() @ keep).tocsr()
    live.eliminate_zeros()  # a stored zero would give 0 * log(0) = NaN
    return live


def _run_constants(state: MmcaState, net: MultiplexNetwork, params: DynamicsParams) -> tuple:
    """(net, params, omega, live awareness matrix, delta, 1 - delta) for
    `state`'s run, with delta = 1 on silenced nodes; the state's own when it
    holds them for these objects."""
    run = state.run
    if run is None or run[0] is not net or run[1] is not params or run[2] is not state.omega:
        delta = np.where(state.omega, 1.0, params.delta)
        run = (net, params, state.omega, _live_awareness(net, state.omega), delta, 1.0 - delta)
    return run


def _check_stop(tol: float, max_iter: int) -> None:
    """An iteration's stop rule: 0 < tol < 1, and at least one iteration. A
    probability moves by at most 1 a step, so tol >= 1 stops every fixed point
    after one iteration, and Lanczos would accept any Ritz value; NaN stops nothing."""
    if not 0.0 < tol < 1.0:
        raise InvalidArgumentError(f"tol must be in (0, 1), got {tol}")
    check_count("max_iter", max_iter, 1)


def _fixed_point(step, x, arrays, tol: float, max_iter: int, what: str):
    """Apply step from x until no entry of arrays(x) moves by tol or more.

    Each test stops at the first array that still moves; a NaN change counts
    as moving, an empty array as unmoved. Only the error takes the largest
    change over all arrays, NaN if any is.
    """
    _check_stop(tol, max_iter)

    def changes():
        return (np.abs(a - b).max(initial=0.0) for a, b in zip(arrays(x), arrays(prev)))

    for _ in range(max_iter):
        prev = x  # rebound first, so no third iterate lives through the step
        x = step(prev)
        if not any(not d < tol for d in changes()):
            return x
    raise NonConvergenceError(
        f"{what} not reached within {max_iter} iterations",
        last_iterate=x,
        residual=float(np.max(list(changes()))),
    )


def init_mmca(
    net: MultiplexNetwork, omega_set, params: DynamicsParams
) -> MmcaState:
    """Mirror the Monte Carlo initial condition in probability."""
    n = net.node_count
    f = params.initial_infected_fraction
    return MmcaState(
        p_us=np.full(n, 1.0 - f),
        p_as=np.zeros(n),
        p_i=np.full(n, f),
        p_ur=np.zeros(n),
        p_ar=np.zeros(n),
        omega=omega_mask(n, omega_set),
        step=0,
    )


def mmca_rates(state: MmcaState, net: MultiplexNetwork, params: DynamicsParams):
    """Per-node probabilities of not being informed (r) and of escaping
    infection while aware (q_a) or unaware (q_u), from neighbor marginals.
    r is 1 on silenced nodes, which must hold p_as = p_ar = 0."""
    a_live = _run_constants(state, net, params)[3]
    b_mat = net.contact_layer.adjacency()
    # Each factor array is built once, in place; p_as + p_i + p_ar is p_a on
    # every column a_live keeps.
    inform = state.p_as + state.p_i
    inform += state.p_ar
    inform *= params.lam
    r = _neighbor_product(a_live, np.subtract(1.0, inform, out=inform))
    infect_a = params.beta_a * state.p_i
    q_a = _neighbor_product(b_mat, np.subtract(1.0, infect_a, out=infect_a))
    infect_u = params.beta_u * state.p_i
    q_u = _neighbor_product(b_mat, np.subtract(1.0, infect_u, out=infect_u))
    return r, q_a, q_u


def mmca_step(state: MmcaState, net: MultiplexNetwork, params: DynamicsParams) -> MmcaState:
    """Advance every node's joint-state distribution by one step.

    Silenced nodes forget at once (delta = 1); with r = 1 from mmca_rates
    they keep p_as = p_ar = 0. The state must hold that: the products of
    p_as and p_ar take the ordinary nodes' scalar delta, which is exact only
    where those components are +0.0 on silenced nodes.
    """
    run = _run_constants(state, net, params)
    if run is not state.run:
        state = replace(state, run=run)
    r, q_a, q_u = mmca_rates(state, net, params)
    delta, keep = run[4:]
    delta_s, keep_s, mu = params.delta, 1.0 - params.delta, params.mu
    p_us, p_as, p_i, p_ur, p_ar = state.p_us, state.p_as, state.p_i, state.p_ur, state.p_ar
    not_r, not_qa, not_qu = 1.0 - r, 1.0 - q_a, 1.0 - q_u

    # Each sum adds its terms left to right, in place to spare temporaries.
    n_as = p_as * keep_s * q_a
    n_as += p_us * not_r * q_a
    n_us = p_as * delta_s * q_u
    n_us += p_us * r * q_u
    n_i = p_as * (keep_s * not_qa + delta_s * not_qu)
    n_i += p_us * (r * not_qu + not_r * not_qa)
    n_i += p_i * (1.0 - mu)
    n_ar = p_i * keep * mu
    n_ar += p_ar * keep_s
    n_ar += p_ur * not_r
    n_ur = p_i * delta * mu
    n_ur += p_ar * delta_s
    n_ur += p_ur * r
    return MmcaState(
        p_us=n_us,
        p_as=n_as,
        p_i=n_i,
        p_ur=n_ur,
        p_ar=n_ar,
        omega=state.omega,
        step=state.step + 1,
        run=run,
    )


def mmca_run(
    net: MultiplexNetwork,
    omega_set,
    params: DynamicsParams,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> MmcaState:
    """Iterate until no component moves by tol or more in one step. That bounds the
    last step's change, not the distance to the fixed point, which can exceed 10x tol."""
    return _fixed_point(
        lambda s: mmca_step(s, net, params),
        init_mmca(net, omega_set, params),
        lambda s: (s.p_us, s.p_as, s.p_i, s.p_ur, s.p_ar),
        tol,
        max_iter,
        "MMCA fixed point",
    )


def uau_steady_state(
    net: MultiplexNetwork,
    params: DynamicsParams,
    omega_set=(),
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    init: float = 0.5,
) -> np.ndarray:
    """Disease-free awareness fixed point from p_a = init; silenced nodes stay at +0.0 (r = 1),
    so 1 - delta keeps them there. As in `mmca_run`, tol bounds the last step's change."""
    check_range("init", init, 0.0, 1.0)
    omega = omega_mask(net.node_count, omega_set)
    a_live = _live_awareness(net, omega)
    keep = 1.0 - params.delta

    def step(p):
        return p * keep + (1.0 - p) * (1.0 - _neighbor_product(a_live, 1.0 - params.lam * p))

    p = np.where(omega, 0.0, float(init))
    return _fixed_point(step, p, lambda p: (p,), tol, max_iter, "awareness fixed point")


def build_h_matrix(p_a: np.ndarray, contact: Graph, gamma: float):
    """Row i of the contact adjacency scaled by 1 - (1-gamma) * p_a[i].

    Stored sparse; the zero pattern is exactly the contact adjacency, which is
    symmetric, so its rows are scaled with no transpose.
    """
    from scipy import sparse
    p_a = np.asarray(p_a, dtype=np.float64)
    if np.any((p_a < 0.0) | (p_a > 1.0)):
        raise InvalidArgumentError("p_a entries must lie in [0,1]")
    return (sparse.diags(1.0 - (1.0 - gamma) * p_a) @ contact.adjacency()).tocsr()


def leading_eigenvalue(m, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER) -> float:
    """Largest eigenvalue of a sparse symmetric matrix, or the dominant one of a dense matrix.

    Sparse input runs Lanczos (J. Res. NBS 45, 1950) from the all-ones vector
    without reorthogonalisation, and stops when the top Ritz pair's residual
    beta_k * |s_k| is at most tol * |theta|. It finds the largest eigenvalue
    the start is not orthogonal to: for a non-negative matrix, the Perron
    root, also when the graph is bipartite. Dense input takes every
    eigenvalue (tol and max_iter unused); the one of largest modulus, the
    largest real part among ties, must be real.
    """
    from scipy import sparse
    n = m.shape[0]
    if n == 0 or m.shape != (n, n):
        raise InvalidArgumentError(f"need a non-empty square matrix, got shape {m.shape}")
    _check_stop(tol, max_iter)
    if not sparse.issparse(m):
        vals = np.linalg.eigvals(np.asarray(m, dtype=np.float64))
        mod = np.abs(vals)
        top = vals[mod >= mod.max() * (1.0 - 1e-12)]
        lam = top[np.argmax(top.real)]
        if lam.imag != 0.0:
            raise NonConvergenceError(f"dominant eigenvalue {lam} is not real", last_iterate=lam)
        return float(lam.real)
    if (m != m.T).nnz:
        raise InvalidArgumentError("sparse input must be symmetric")
    alphas, betas = [], []
    q_prev, q, beta = np.zeros(n), np.full(n, 1.0 / np.sqrt(n)), 0.0
    for k in range(1, max_iter + 1):
        w = m @ q - beta * q_prev
        alphas.append(float(q @ w))
        w -= alphas[-1] * q
        beta = float(np.linalg.norm(w))
        betas.append(beta)
        if k % 16 == 0 or k == n or k == max_iter or beta == 0.0:
            theta, s = np.linalg.eigh(np.diag(alphas) + np.diag(betas[:-1], -1))
            residual = beta * abs(s[-1, -1])
            if residual <= tol * abs(theta[-1]):
                return float(theta[-1])
        q_prev, q = q, w / beta
    raise NonConvergenceError(
        f"Lanczos did not converge within {max_iter} steps",
        last_iterate=float(theta[-1]),
        residual=residual,
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
    # B is symmetric 0/1, so sqrt(H o H^T) is D^1/2 B D^1/2: symmetric, same spectrum as H.
    lam_max = leading_eigenvalue(h.multiply(h.T).sqrt(), tol=tol, max_iter=max_iter)
    if lam_max <= 0.0:
        raise InvalidArgumentError("H has no positive eigenvalue, so there is no finite threshold")
    return ThresholdResult(beta_c=params.mu / lam_max, lambda_max=lam_max, p_a=p_a)

"""Independent reference implementations used only by the test suite.

These deliberately avoid the algorithms used in the package (Brandes, the
sparse Lanczos solve and the dense LAPACK eigensolver, the sparse-draw Monte
Carlo step) so agreement is meaningful. The MMCA reference step is the one
exception: it keeps the earlier six-component update, with its own branch
for silenced nodes, so the single update can be checked bit for bit.
"""

from collections import deque
from fractions import Fraction
from itertools import product

import numpy as np

from muxepi.dynamics import I, R, S, StateVector


def brute_force_betweenness(g):
    """Betweenness by explicit all-pairs shortest-path counting.

    For every source s, a BFS yields distances and path counts sigma_s; the
    number of shortest s->t paths through i is sigma_s(i) * sigma_i(t) when
    dist(s,i) + dist(i,t) == dist(s,t). Ordered pairs; exact Fractions.
    """
    n = g.node_count
    dist = np.full((n, n), -1, dtype=np.int64)
    sigma = [[Fraction(0)] * n for _ in range(n)]
    for s in range(n):
        dist[s, s] = 0
        sigma[s][s] = Fraction(1)
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in g.neighbors(v):
                w = int(w)
                if dist[s, w] < 0:
                    dist[s, w] = dist[s, v] + 1
                    queue.append(w)
                if dist[s, w] == dist[s, v] + 1:
                    sigma[s][w] += sigma[s][v]
    bc = [Fraction(0)] * n
    for i in range(n):
        for s in range(n):
            if s == i or dist[s, i] < 0:
                continue
            for t in range(n):
                if t == s or t == i or dist[s, t] < 0 or dist[i, t] < 0:
                    continue
                if dist[s, i] + dist[i, t] == dist[s, t]:
                    bc[i] += sigma[s][i] * sigma[i][t] / sigma[s][t]
    return bc


def dense_spectral_radius(matrix, rtol=1e-13, max_iter=100_000):
    """Perron root of a nonnegative irreducible matrix M by power iteration on M + I.

    Uses matrix-vector products only, so it shares no LAPACK routine with the
    package's dense path. For any positive x the Collatz-Wielandt bounds
    min_i (Mx)_i / x_i <= rho(M) <= max_i (Mx)_i / x_i hold; the shift by I
    keeps the iteration from cycling on periodic M, and it stops when the two
    bounds meet.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if (m < 0).any():
        raise ValueError("the Perron oracle needs a nonnegative matrix")
    x = np.ones(len(m))
    for _ in range(max_iter):
        y = m @ x
        ratios = y / x
        lo, hi = ratios.min(), ratios.max()
        if hi - lo <= rtol * hi:
            return float((lo + hi) / 2)
        x = y + x
        x /= x.max()
    raise RuntimeError(f"Collatz-Wielandt bounds still {hi - lo:.2e} apart")


def has_edge(g, i, j):
    """Whether j is among node i's neighbours, by a plain scan of its row."""
    return j in g.neighbors(i).tolist()


def read_omega_set(path):
    """The sorted node indices of a file `write_omega_set` wrote, one per line."""
    with open(path, encoding="ascii") as fh:
        return sorted(int(line) for line in fh if line.strip())


def random_graph(n, p, rng):
    """Erdos-Renyi edge list for oracle comparisons."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return edges


# --- reference generators ----------------------------------------------------
#
# One scalar draw at a time, with Python sets for adjacency: the RNG call
# sequence the package generators must reproduce. Both return the sorted
# canonical (i, j), i < j, edge list.


def reference_ba(n, m, rng):
    """Barabasi-Albert growth from an m-clique, sampling degree-proportionally."""
    edges = []
    repeated = []
    for i in range(m):
        for j in range(i + 1, m):
            edges.append((i, j))
            repeated.append(i)
            repeated.append(j)
    for v in range(m, n):
        chosen = set()
        if repeated:
            while len(chosen) < m:
                chosen.add(repeated[int(rng.integers(len(repeated)))])
        else:
            while len(chosen) < m:
                chosen.add(int(rng.integers(v)))
        for t in sorted(chosen):
            edges.append((t, v))
            repeated.append(t)
            repeated.append(v)
    return sorted(set(edges))


def reference_ws(n, k, p, rng):
    """Watts-Strogatz ring of k/2 neighbours per side, far endpoints rewired with prob. p."""
    adj = [set() for _ in range(n)]
    for d in range(1, k // 2 + 1):
        for i in range(n):
            j = (i + d) % n
            adj[i].add(j)
            adj[j].add(i)
    for d in range(1, k // 2 + 1):
        for i in range(n):
            if rng.random() >= p:
                continue
            if len(adj[i]) >= n - 1:
                continue
            j = (i + d) % n
            w = int(rng.integers(n))
            while w == i or w in adj[i]:
                w = int(rng.integers(n))
            adj[i].discard(j)
            adj[j].discard(i)
            adj[i].add(w)
            adj[w].add(i)
    return sorted((i, j) for i in range(n) for j in adj[i] if i < j)


def triangle_clustering(n, edges):
    """Local clustering by counting, for each node, the linked pairs among its neighbours."""
    adj = [set() for _ in range(n)]
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    out = []
    for i in range(n):
        nbrs = sorted(adj[i])
        d = len(nbrs)
        links = sum(1 for a in range(d) for b in range(a + 1, d) if nbrs[b] in adj[nbrs[a]])
        out.append(2.0 * links / (d * (d - 1)) if d >= 2 else 0.0)
    return out


# --- dense Monte Carlo step -------------------------------------------------


def dense_step(states, net, params, rng):
    """One synchronous UAU-SIR step from five uniforms per node.

    The five length-N uniform arrays are drawn in a fixed order (inform,
    forget, infect, recover, post-forget), and the neighbour counts come from
    one SpMV per layer. This was the package's step before it drew only for
    the nodes that can change; it has that step's law, so it is the
    distributional oracle of `mc_step`, and `reference_step` in the tests
    checks it node by node.
    """
    disease, aware, omega = states.disease, states.aware, states.omega
    u_inform, u_forget, u_infect, u_recover, u_post_forget = rng.random((5, len(disease)))
    infected_t = disease == I
    n_aware = net.awareness_layer.adjacency() @ aware.astype(np.float64)
    n_inf = net.contact_layer.adjacency() @ infected_t.astype(np.float64)
    informed = ~aware & ~omega & (u_inform >= (1.0 - params.lam) ** n_aware)
    forgets = aware & ~omega & ~infected_t & (u_forget < params.delta)
    aware_mid = (aware & ~forgets) | informed
    p_escape = np.where(aware_mid, 1.0 - params.beta_a, 1.0 - params.beta_u) ** n_inf
    newly_infected = (disease == S) & (u_infect >= p_escape)
    recovers = infected_t & (u_recover < params.mu)
    post_forgets = recovers & ~omega & (u_post_forget < params.delta)
    disease_next = disease.copy()
    disease_next[newly_infected] = I
    disease_next[recovers] = R
    aware_next = (aware_mid | (newly_infected & ~omega)) & ~post_forgets
    return StateVector(disease_next, aware_next, omega, states.step + 1)


# --- exact two-node joint Markov chain -------------------------------------
#
# Node states are (disease, aware) with disease in {S, I, R}; UI only exists
# for silenced nodes, which the two-node oracle does not use.

_NODE_STATES = [("S", False), ("S", True), ("I", True), ("R", False), ("R", True)]


def _node_transition(state, n_aware_nbrs, n_infected_nbrs, params):
    """Distribution over next node states from the per-step probability tree."""
    disease, aware = state
    lam, delta, mu = params.lam, params.delta, params.mu
    beta_a, beta_u = params.beta_a, params.beta_u
    out = {}

    def add(st, p):
        if p:
            out[st] = out.get(st, 0.0) + p

    if disease == "S":
        stay_unaware = (1.0 - lam) ** n_aware_nbrs
        if aware:
            branches = [(True, 1.0 - delta), (False, delta)]
        else:
            branches = [(True, 1.0 - stay_unaware), (False, stay_unaware)]
        for aware_mid, p_aw in branches:
            beta = beta_a if aware_mid else beta_u
            p_escape = (1.0 - beta) ** n_infected_nbrs
            add(("S", aware_mid), p_aw * p_escape)
            add(("I", True), p_aw * (1.0 - p_escape))
    elif disease == "I":
        add(("I", True), 1.0 - mu)
        add(("R", True), mu * (1.0 - delta))
        add(("R", False), mu * delta)
    else:
        if aware:
            add(("R", False), delta)
            add(("R", True), 1.0 - delta)
        else:
            stay_unaware = (1.0 - lam) ** n_aware_nbrs
            add(("R", True), 1.0 - stay_unaware)
            add(("R", False), stay_unaware)
    return out


def two_node_chain_marginals(params, awareness_edge, contact_edge, initial, steps):
    """Evolve the exact 25-state joint chain of a 2-node multiplex.

    initial maps a joint state ((d0,a0),(d1,a1)) to its probability. Returns a
    list per step of (p_a, p_i, p_r) arrays of length 2.
    """
    dist = dict(initial)
    history = []
    for _ in range(steps + 1):
        p_a = np.zeros(2)
        p_i = np.zeros(2)
        p_r = np.zeros(2)
        for (s0, s1), prob in dist.items():
            for k, st in enumerate((s0, s1)):
                p_a[k] += prob * st[1]
                p_i[k] += prob * (st[0] == "I")
                p_r[k] += prob * (st[0] == "R")
        history.append((p_a, p_i, p_r))
        nxt = {}
        for (s0, s1), prob in dist.items():
            if prob == 0.0:
                continue
            n_aw0 = int(awareness_edge and s1[1])
            n_aw1 = int(awareness_edge and s0[1])
            n_in0 = int(contact_edge and s1[0] == "I")
            n_in1 = int(contact_edge and s0[0] == "I")
            t0 = _node_transition(s0, n_aw0, n_in0, params)
            t1 = _node_transition(s1, n_aw1, n_in1, params)
            for (u0, p0), (u1, p1) in product(t0.items(), t1.items()):
                key = (u0, u1)
                nxt[key] = nxt.get(key, 0.0) + prob * p0 * p1
        dist = nxt
    return history


# --- six-component MMCA step with an explicit silenced branch ---------------


def _reference_neighbor_product(adj, factors):
    zero = factors <= 0.0
    with np.errstate(divide="ignore"):
        logs = np.where(zero, 0.0, np.log(np.where(zero, 1.0, factors)))
    out = np.exp(adj @ logs)
    if zero.any():
        out[(adj @ zero.astype(np.float64)) > 0.0] = 0.0
    return out


def reference_mmca_step(comps, omega, net, params):
    """One MMCA step over the six components p_us, p_as, p_ai, p_ur, p_ar, p_ui.

    comps maps each name to a length-N array; returns the same for t + 1.
    Ordinary nodes take the UAU-SIR update with p_ui = 0; silenced nodes
    then have all six components overridden: no awareness, and infected
    mass held in p_ui.
    """
    p_us, p_as, p_ai = comps["p_us"], comps["p_as"], comps["p_ai"]
    p_ur, p_ar, p_ui = comps["p_ur"], comps["p_ar"], comps["p_ui"]
    p_a = p_as + p_ai + p_ar
    p_i = p_ai + p_ui
    b_mat = net.contact_layer.adjacency()
    r = _reference_neighbor_product(net.awareness_layer.adjacency(), 1.0 - params.lam * p_a)
    q_a = _reference_neighbor_product(b_mat, 1.0 - params.beta_a * p_i)
    q_u = _reference_neighbor_product(b_mat, 1.0 - params.beta_u * p_i)
    delta, mu = params.delta, params.mu

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

    if omega.any():
        zero = np.zeros_like(p_us)
        n_us = np.where(omega, p_us * q_u, n_us)
        n_ui = np.where(omega, p_us * (1.0 - q_u) + p_ui * (1.0 - mu), n_ui)
        n_ur = np.where(omega, p_ur + p_ui * mu, n_ur)
        n_as = np.where(omega, zero, n_as)
        n_ai = np.where(omega, zero, n_ai)
        n_ar = np.where(omega, zero, n_ar)
    return {"p_us": n_us, "p_as": n_as, "p_ai": n_ai, "p_ur": n_ur, "p_ar": n_ar, "p_ui": n_ui}

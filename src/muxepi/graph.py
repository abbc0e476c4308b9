"""Network layers: generators, centrality measures, and the multiplex container.

Graphs are simple, undirected, and immutable after construction. Node indices
are contiguous 0..n-1. Generators are deterministic functions of their
parameters and seed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice

import numpy as np

from .errors import InvalidArgumentError, check_count, check_range

__all__ = [
    "Graph",
    "MultiplexNetwork",
    "generate_ba",
    "generate_ws",
    "degree_sequence",
    "betweenness",
    "clustering_coefficients",
    "write_edge_list",
    "read_edge_list",
]


class Graph:
    """Simple undirected graph stored once, as a symmetric CSR with sorted rows.

    `indptr` and `indices` are read-only; the graph is never mutated after
    __init__, so it is safe for concurrent reads. The scipy adjacency and the
    centralities are built on first use; two threads may both build one, to the same values.
    """

    def __init__(self, node_count: int, edges):
        n = self.node_count = int(check_count("node_count", node_count, 0))
        try:
            pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
        except ValueError as exc:  # rows of different lengths
            raise InvalidArgumentError(f"edges must be (i, j) pairs: {exc}") from exc
        if pairs.size and pairs.dtype.kind not in "iu":
            raise InvalidArgumentError(f"edges must hold integer node indices, got {pairs.dtype}")
        pairs = pairs.astype(np.int64, copy=False)
        if pairs.size and (pairs.ndim != 2 or pairs.shape[1] != 2):
            raise InvalidArgumentError(f"edges must be (i, j) pairs, got shape {pairs.shape}")
        i, j = pairs.reshape(-1, 2).T
        bad = (i == j) | (np.minimum(i, j) < 0) | (np.maximum(i, j) >= n)
        if bad.any():
            i, j = int(i[bad][0]), int(j[bad][0])
            if i == j:
                raise InvalidArgumentError(f"self-loop ({i},{i}) not allowed")
            raise InvalidArgumentError(f"edge ({i},{j}) out of range for {n} nodes")
        # Both directions of every edge keyed row * n + col: sorted keys give
        # sorted rows and sorted columns per row, with duplicate edges adjacent.
        keys = np.sort(np.concatenate([i * n + j, j * n + i]))
        rows, cols = np.divmod(keys[np.diff(keys, prepend=-1) != 0], n)
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=self.indptr[1:])
        self.indices = cols
        self.indptr.flags.writeable = False
        self.indices.flags.writeable = False
        self._adjacency = None
        self._centralities = {}

    @property
    def edge_count(self) -> int:
        return len(self.indices) // 2

    def edges(self):
        """Iterate canonical (i, j) pairs with i < j, sorted: the upper triangle."""
        rows = np.repeat(np.arange(self.node_count), np.diff(self.indptr))
        upper = self.indices > rows
        return zip(rows[upper].tolist(), self.indices[upper].tolist())

    def adjacency(self):
        """Symmetric 0/1 adjacency as a scipy CSR over the graph's own indptr/indices,
        built on first use and cached; scipy is loaded there, not at import."""
        if self._adjacency is None:
            from scipy import sparse
            n = self.node_count
            ones = np.ones(len(self.indices))
            self._adjacency = sparse.csr_matrix((ones, self.indices, self.indptr), shape=(n, n))
        return self._adjacency

    def centrality(self, measure: str) -> np.ndarray:
        """Per-node `degree`, `betweenness` or `clustering`: read-only float64, built once."""
        if measure not in self._centralities:
            # Looked up per call, so wrappers installed on this module's names see the calls.
            compute = dict(
                degree=degree_sequence, betweenness=betweenness, clustering=clustering_coefficients
            ).get(measure)
            if compute is None:
                raise InvalidArgumentError(f"unknown centrality {measure!r}")
            score = self._centralities[measure] = np.array(compute(self), dtype=np.float64)
            score.flags.writeable = False
        return self._centralities[measure]

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.node_count == other.node_count
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )


@dataclass(frozen=True)
class MultiplexNetwork:
    """Two layers over one node set: awareness (information) and contact (disease)."""

    awareness_layer: Graph
    contact_layer: Graph

    def __post_init__(self):
        if self.awareness_layer.node_count != self.contact_layer.node_count:
            raise InvalidArgumentError(
                "layer size mismatch: "
                f"{self.awareness_layer.node_count} != {self.contact_layer.node_count}"
            )

    @property
    def node_count(self) -> int:
        return self.awareness_layer.node_count

    @cached_property
    def stacked(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR indptr and indices of both layers as one graph on 2N nodes:
        awareness node i is node i, contact node i is node N + i."""
        a, b = self.awareness_layer, self.contact_layer
        return (
            np.concatenate((a.indptr, b.indptr[1:] + len(a.indices))),
            np.concatenate((a.indices, b.indices + self.node_count)),
        )


_BA_BLOCK = 256  # nodes whose first m draws are taken in one Generator call


def generate_ba(n: int, m: int, seed=None) -> Graph:
    """Barabasi-Albert preferential attachment graph.

    Starts from a complete graph on m nodes; each subsequent node attaches to
    m distinct existing nodes with probability proportional to current degree.
    Draws are taken in blocks but equal one `rng.integers(len(repeated))` at a
    time until m targets are distinct, and leave the Generator in that state.
    """
    check_count("m", m, 1)
    check_count("n", n, 0)
    if n < m:
        raise InvalidArgumentError(f"need n >= m, got n={n}, m={m}")
    rng = np.random.default_rng(seed)
    # One entry per edge endpoint, in (i, j) pairs, so sampling an index is
    # degree-proportional and the pairs are the edge list. Node u >= m writes
    # (t, u) for its m sorted targets t from index start(u) = m(m-1) + 2m(u-m):
    # only the targets are unknown in advance.
    clique = m * (m - 1)
    repeated = np.empty(clique + 2 * m * (n - m), dtype=np.int64)
    repeated[:clique] = [x for i in range(m) for j in range(i + 1, m) for x in (i, j)]
    repeated[clique + 1 :: 2] = np.repeat(np.arange(m, n), m)
    v = m
    if m == 1 and n > 1:
        # Node 1 takes node 0, its only choice: a one-value draw uses no randomness.
        repeated[0], v = 0, 2
    while v < n:
        start = clique + 2 * m * (np.arange(v, min(n, v + _BA_BLOCK)) - m)
        highs = np.repeat(start, m)
        saved = rng.bit_generator.state
        draws = rng.integers(0, highs).reshape(-1, m)
        block = repeated[start[0] : start[-1] + 2 * m].reshape(-1, m, 2)
        block[:, :, 0] = np.sort(repeated[draws], axis=1)
        # Rows that drew a target slot of an earlier node in this block read it
        # unwritten: redo them in order, up to the first node whose targets collide.
        pending = ((draws >= start[0]) & ((draws - clique) % 2 == 0)).any(axis=1)
        collided = (block[:, 1:, 0] == block[:, :-1, 0]).any(axis=1) & ~pending
        c = int(np.argmax(collided)) if collided.any() else len(start)
        for r in np.flatnonzero(pending[:c]).tolist():
            block[r, :, 0] = t = np.sort(repeated[draws[r]])
            if (t[1:] == t[:-1]).any():
                c = r
                break
        if c == len(start):
            v += len(start)
            continue
        # That node draws again in the one-at-a-time stream, voiding the rest of
        # the block: rewind to after its first m draws, finish it one at a time.
        rng.bit_generator.state = saved
        rng.integers(0, highs[: (c + 1) * m])
        chosen = set(block[c, :, 0].tolist())
        while len(chosen) < m:
            chosen.add(int(repeated[rng.integers(start[c])]))
        block[c, :, 0] = sorted(chosen)
        v += c + 1
    return Graph(n, repeated.reshape(-1, 2))


def generate_ws(n: int, k: int, p: float, seed=None) -> Graph:
    """Watts-Strogatz small-world graph.

    Ring lattice with k/2 neighbors per side; the far endpoint of each lattice
    edge is rewired with probability p to a uniform non-self, non-duplicate
    target. Edge count is exactly n*k/2 for every p.
    """
    check_count("n", n, 0)
    if k % 2 != 0:
        raise InvalidArgumentError(f"k must be even, got {k}")
    if k >= n:
        raise InvalidArgumentError(f"need n > k, got n={n}, k={k}")
    check_count("k", k, 2)
    check_range("p", p, 0.0, 1.0)
    rng = np.random.default_rng(seed)
    random, integers = rng.random, rng.integers
    # Edge (i, j) is the key min(i,j)*n + max(i,j).
    ring = np.arange(n, dtype=np.int64)
    lattice = [np.sort([ring, (ring + d) % n], axis=0) for d in range(1, k // 2 + 1)]
    keys = set(np.concatenate([lo * n + hi for lo, hi in lattice]).tolist())
    degree = [k] * n
    for d in range(1, k // 2 + 1):
        for i in range(n):
            if random() >= p or degree[i] >= n - 1:
                continue
            w = int(integers(n))
            while w == i or min(i, w) * n + max(i, w) in keys:
                w = int(integers(n))
            # Lattice edge (i, i+d) is still there: with n > k only this
            # step removes it. Node i keeps its degree.
            j = (i + d) % n
            keys.remove(min(i, j) * n + max(i, j))
            keys.add(min(i, w) * n + max(i, w))
            degree[j] -= 1
            degree[w] += 1
    upper = np.fromiter(keys, dtype=np.int64, count=len(keys))
    return Graph(n, np.stack(np.divmod(upper, n), axis=1))


def degree_sequence(g: Graph) -> np.ndarray:
    """Per-node neighbor counts."""
    return np.diff(g.indptr)


# Sources per block of the float betweenness: its temporaries are a few (n, 16)
# arrays, whatever the BFS depth. On BA layers at N=10^3 and 10^4, one core of a
# 2-core Xeon, 16 ran as fast as 32 or 64 with a quarter of 64's temporaries.
_BRANDES_SOURCES = 16


def betweenness(g: Graph, exact: bool = False):
    """Unnormalized betweenness centrality, ordered-pair convention.

    BC_i sums n_st^i / g_st over ordered pairs (s, t), s != t, both != i,
    counting shortest paths only; disconnected pairs contribute 0. Computed
    with Brandes' dependency accumulation: with exact=True in Fractions, one
    source at a time; else in floats over blocks of sources, one sparse product
    a BFS level each way (Buluc & Gilbert, Combinatorial BLAS, 2011), a node
    unseen while its path count is 0, and no product once every node is seen.
    """
    n = g.node_count
    if exact:
        from fractions import Fraction
        ptr, idx = g.indptr.tolist(), g.indices.tolist()
        nbrs = [idx[ptr[v] : ptr[v + 1]] for v in range(n)]
        bc = [Fraction(0)] * n
        for s in range(n):
            sigma, dist = [Fraction(0)] * n, [-1] * n
            sigma[s], dist[s] = Fraction(1), 0
            # The BFS queue: nodes are appended in order of distance from s.
            order = [s]
            for v in order:
                dv = dist[v] + 1
                for w in nbrs[v]:
                    if dist[w] < 0:
                        dist[w] = dv
                        order.append(w)
                    if dist[w] == dv:
                        sigma[w] += sigma[v]
            delta = [Fraction(0)] * n
            for w in reversed(order):
                # The shortest-path predecessors of w: its neighbours one step closer to s.
                closer = dist[w] - 1
                for v in nbrs[w]:
                    if dist[v] == closer:
                        delta[v] += (sigma[v] / sigma[w]) * (1 + delta[w])
                if w != s:
                    # Each source contributes the one-directional count; looping
                    # over every s yields the ordered-pair total.
                    bc[w] += delta[w]
        return bc
    a, bc = g.adjacency(), np.zeros(n)
    for lo in range(0, n, _BRANDES_SOURCES):
        sources = np.arange(lo, min(n, lo + _BRANDES_SOURCES))
        sigma, level = np.zeros((n, len(sources))), np.zeros((n, len(sources)), np.int32)
        sigma[sources, sources - lo] = 1.0
        # Column j is source lo + j; paths from the frontier into unseen nodes
        # are the next level's sigma.
        frontier, depth = sigma, 0
        while (unseen := sigma == 0).any() and (frontier := a @ frontier * unseen).any():
            depth += 1
            level += unseen
            sigma += frontier
        # Unreached: no level, and sigma 1, so quotients are finite and 0/1 masks multiply exactly.
        level[unseen], sigma[unseen] = -1, 1.0
        # delta_v = sigma_v * sum over successors w of (1 + delta_w) / sigma_w.
        delta = np.zeros_like(sigma)
        for d in range(depth, 1, -1):
            w = 1.0 + delta
            w /= sigma
            w *= level == d
            w = a @ w
            w *= sigma
            w *= level == d - 1
            delta += w
        bc += delta.sum(axis=1)
    return bc


# Rows of A·A that clustering_coefficients holds at once. For one N=10^4,
# m=4 BA layer, 512 rows raise peak RSS by ~4 MB, where the whole product took
# ~19 MB, at the same speed.
_CLUSTERING_ROWS = 512


def clustering_coefficients(g: Graph) -> np.ndarray:
    """Local clustering: triangle density among each node's neighbors.

    C_i = 2 * links(nbrs(i)) / (deg_i * (deg_i - 1)); zero when deg_i <= 1.
    Row i of (A·A)∘A counts, for each neighbour j, the common neighbours of
    i and j, so its sum is 2 * links(nbrs(i)).
    """
    a = g.adjacency()
    twice_links = np.zeros(g.node_count)
    for lo in range(0, g.node_count, _CLUSTERING_ROWS):
        rows = a[lo : lo + _CLUSTERING_ROWS]
        twice_links[lo : lo + _CLUSTERING_ROWS] = (rows @ a).multiply(rows).sum(axis=1).A1
    d = degree_sequence(g)
    return np.divide(twice_links, d * (d - 1), out=np.zeros(g.node_count), where=d >= 2)


# Lines that write_lines joins into one write: one call per chunk, not per
# line, with memory bounded by the chunk.
_WRITE_CHUNK = 1024


def write_lines(path, lines) -> None:
    """Stream each string of `lines` and a newline to `path` as ASCII, a chunk
    of lines a write: every output file's one writer."""
    lines = iter(lines)
    with open(path, "w", encoding="ascii") as fh:
        while chunk := list(islice(lines, _WRITE_CHUNK)):
            chunk.append("")
            fh.write("\n".join(chunk))


def write_edge_list(g: Graph, path) -> None:
    """Write the canonical edge-list text format: header `# nodes=N`, then `i j` lines."""
    write_lines(path, chain([f"# nodes={g.node_count}"], (f"{i} {j}" for i, j in g.edges())))


def read_edge_list(path) -> Graph:
    try:
        return _read_edge_text(path)
    except UnicodeDecodeError as exc:
        raise InvalidArgumentError(f"{path}: not ASCII text") from exc
    except OSError as exc:
        raise InvalidArgumentError(f"{path}: cannot read: {exc.strerror}") from exc


def _read_edge_text(path) -> Graph:
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if not header.startswith("# nodes="):
            raise InvalidArgumentError(f"{path}: missing '# nodes=<N>' header")
        count = header.split("=", 1)[1].strip()
        if not count.isdecimal():
            raise InvalidArgumentError(f"{path}: bad node count in header")
        n = int(count)
        body = fh.tell()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # no edge lines: an edge-free graph
                edges = np.loadtxt(fh, dtype=np.int64, comments="#", ndmin=2)
        except ValueError:
            pass
        else:
            if edges.size == 0 or edges.shape[1] == 2:
                return Graph(n, edges)
        # Name the first offending line; numpy's message counts rows its own way.
        fh.seek(body)
        for lineno, line in enumerate(fh, start=2):
            fields = line.split("#", 1)[0].split()
            unsigned = [f[f[0] in "+-":] for f in fields]  # drops at most one leading sign
            if fields and not (len(fields) == 2 and all(f.isdigit() for f in unsigned)):
                raise InvalidArgumentError(f"{path}:{lineno}: expected 'i j', got {line.strip()!r}")
    raise InvalidArgumentError(f"{path}: node indices must fit in int64")

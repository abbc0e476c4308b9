"""Properties of the float betweenness on small random graphs, isolated
nodes and several components included."""

import numpy as np
import pytest
from scipy.sparse.csgraph import shortest_path

from muxepi import Graph, betweenness

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given = hypothesis.given
examples = hypothesis.settings(deadline=None, max_examples=150)


@st.composite
def edge_lists(draw, max_nodes=20):
    n = draw(st.integers(0, max_nodes))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return n, edges


@examples
@given(edge_lists())
def test_nonnegative(graph):
    assert (betweenness(Graph(*graph)) >= 0.0).all()


@examples
@given(edge_lists())
def test_total_is_inner_nodes_of_shortest_paths(graph):
    # Every shortest s-t path has d(s, t) - 1 inner nodes, and each ordered
    # pair spreads one unit over its paths.
    g = Graph(*graph)
    dist = shortest_path(g.adjacency(), unweighted=True)
    connected = np.isfinite(dist) & (dist > 0)
    expected = float((dist[connected] - 1).sum())
    assert betweenness(g).sum() == pytest.approx(expected, rel=1e-12, abs=0)


@examples
@given(edge_lists(), st.randoms(use_true_random=False))
def test_invariant_under_relabelling(graph, rnd):
    n, edges = graph
    perm = list(range(n))
    rnd.shuffle(perm)
    relabelled = Graph(n, [(perm[i], perm[j]) for i, j in edges])
    bc = betweenness(Graph(n, edges))
    np.testing.assert_allclose(betweenness(relabelled)[perm], bc, rtol=1e-12, atol=0)


@examples
@given(edge_lists())
def test_agrees_with_exact(graph):
    g = Graph(*graph)
    exact = [float(x) for x in betweenness(g, exact=True)]
    np.testing.assert_allclose(betweenness(g), exact, rtol=1e-12, atol=0)

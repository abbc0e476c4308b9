import ast
import hashlib
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from muxepi import (
    Graph,
    InvalidArgumentError,
    MultiplexNetwork,
    betweenness,
    clustering_coefficients,
    degree_sequence,
    generate_ba,
    generate_ws,
    read_edge_list,
    replication_multiplex,
    write_edge_list,
)
from muxepi import graph
from oracles import (
    brute_force_betweenness,
    has_edge,
    neighbors,
    random_graph,
    reference_ba,
    reference_ws,
    triangle_clustering,
)


def complete_graph(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


class TestGraph:
    def test_rejects_self_loops(self):
        with pytest.raises(InvalidArgumentError):
            Graph(3, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidArgumentError):
            Graph(3, [(0, 3)])

    def test_nan_node_count_rejected(self):
        with pytest.raises(InvalidArgumentError, match=r"^node_count must be >= 0, got nan$"):
            Graph(float("nan"), [])

    def test_undirected_adjacency(self):
        g = Graph(3, [(0, 1)])
        assert has_edge(g, 0, 1) and has_edge(g, 1, 0)
        assert list(neighbors(g, 1)) == [0]

    def test_duplicate_edges_collapse(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1

    def test_error_names_first_offending_edge(self):
        with pytest.raises(InvalidArgumentError, match=r"edge \(1,5\) out of range"):
            Graph(3, [(0, 1), (1, 5), (2, 2)])
        with pytest.raises(InvalidArgumentError, match=r"self-loop \(2,2\)"):
            Graph(3, np.array([[0, 1], [2, 2], [1, 5]]))

    @pytest.mark.parametrize(
        "edges, shape",
        [([(0, 1, 2, 3)], r"\(1, 4\)"), ([0, 1, 2, 3], r"\(4,\)"), ([(0, 1, 2)], r"\(1, 3\)")],
        ids=["row_of_four", "flat", "row_of_three"],
    )
    def test_rejects_edge_rows_that_are_not_pairs(self, edges, shape):
        with pytest.raises(InvalidArgumentError, match=f"pairs, got shape {shape}"):
            Graph(4, edges)

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(0.5, 1)], "integer node indices, got float64"),
            (np.array([[0.0, 1.0]]), "integer node indices, got float64"),
            (np.array([[True, False]]), "integer node indices, got bool"),
            ([(0, 1), (2,)], r"must be \(i, j\) pairs: "),
        ],
        ids=["float_entry", "float_array", "bool_array", "ragged_rows"],
    )
    def test_rejects_non_integer_and_ragged_edges(self, edges, message):
        with pytest.raises(InvalidArgumentError, match=message):
            Graph(3, edges)

    def test_rejects_negative_node_count(self):
        with pytest.raises(InvalidArgumentError, match="node_count must be >= 0, got -1"):
            Graph(-1, [])

    def test_empty_edges_give_an_edge_free_graph(self):
        for edges in ([], (), np.empty(0), np.empty((0, 2)), np.empty((0, 3))):
            assert Graph(3, edges).edge_count == 0

    def test_edge_array_equals_edge_pairs(self):
        assert Graph(4, np.array([[2, 0], [0, 2], [3, 1]])) == Graph(4, [(0, 2), (1, 3)])

    def test_adjacency_matrix_symmetric(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        mat = g.adjacency().toarray()
        assert (mat == mat.T).all()
        assert mat.sum() == 2 * g.edge_count


class TestCentralityCache:
    MEASURES = {
        "degree": degree_sequence,
        "betweenness": betweenness,
        "clustering": clustering_coefficients,
    }

    @pytest.mark.parametrize("measure", sorted(MEASURES))
    def test_computed_once_and_bit_equal(self, measure):
        g = generate_ba(120, 3, seed=5)
        score = g.centrality(measure)
        assert g.centrality(measure) is score
        assert score.dtype == np.float64 and not score.flags.writeable
        expected = self.MEASURES[measure](generate_ba(120, 3, seed=5)).astype(np.float64)
        assert score.tobytes() == expected.tobytes()

    def test_unknown_measure(self):
        with pytest.raises(InvalidArgumentError, match="pagerank"):
            complete_graph(3).centrality("pagerank")


class TestGenerateBA:
    def test_n_less_than_m_rejected(self):
        with pytest.raises(InvalidArgumentError):
            generate_ba(3, 4)

    def test_zero_m_rejected(self):
        with pytest.raises(InvalidArgumentError, match=r"^m must be >= 1, got 0$"):
            generate_ba(10, 0)

    def test_nan_m_rejected(self):
        with pytest.raises(InvalidArgumentError, match=r"^m must be >= 1, got nan$"):
            generate_ba(10, float("nan"))

    def test_nan_n_rejected(self):
        with pytest.raises(InvalidArgumentError, match=r"^n must be >= 0, got nan$"):
            generate_ba(float("nan"), 4)

    def test_seed_clique_only(self):
        g = generate_ba(4, 4, seed=0)
        assert g == complete_graph(4)

    def test_edge_count(self):
        # (n - m) * m growth edges on top of the m-clique.
        g = generate_ba(500, 4, seed=1)
        assert g.edge_count == (500 - 4) * 4 + 6

    def test_deterministic(self):
        a = generate_ba(300, 4, seed=42)
        b = generate_ba(300, 4, seed=42)
        assert a == b

    def test_handshake(self):
        g = generate_ba(400, 4, seed=7)
        assert degree_sequence(g).sum() == 2 * g.edge_count

    def test_degree_distribution_slope(self):
        # CCDF slope on log-log axes near -2 (density exponent 3); band
        # frozen from a 20-graph calibration at these parameters.
        slopes = []
        for seed in range(3):
            deg = degree_sequence(generate_ba(2000, 4, seed=seed))
            ks = np.arange(8, 101)
            ccdf = np.array([(deg >= k).mean() for k in ks])
            mask = ccdf > 0
            coeffs = np.polyfit(np.log(ks[mask]), np.log(ccdf[mask]), 1)
            slopes.append(coeffs[0])
        assert all(-2.5 < s < -1.5 for s in slopes)

    def test_m_one(self):
        g = generate_ba(50, 1, seed=3)
        assert g.edge_count == 49


class TestGenerateWS:
    def test_odd_k_rejected(self):
        with pytest.raises(InvalidArgumentError):
            generate_ws(10, 3, 0.1)

    def test_k_not_below_n_rejected(self):
        with pytest.raises(InvalidArgumentError):
            generate_ws(4, 4, 0.1)

    def test_k_below_two_rejected(self):
        with pytest.raises(InvalidArgumentError, match=r"^k must be >= 2, got 0$"):
            generate_ws(10, 0, 0.1)

    def test_nan_n_rejected(self):
        with pytest.raises(InvalidArgumentError, match=r"^n must be >= 0, got nan$"):
            generate_ws(float("nan"), 4, 0.1)

    def test_bad_p_rejected(self):
        with pytest.raises(InvalidArgumentError):
            generate_ws(10, 4, 1.5)

    def test_pure_ring(self):
        g = generate_ws(10, 4, 0.0)
        assert (degree_sequence(g) == 4).all()
        assert has_edge(g, 0, 1) and has_edge(g, 0, 2) and has_edge(g, 0, 8)

    @pytest.mark.parametrize("p", [0.0, 0.1, 0.5, 1.0])
    def test_edge_count_preserved(self, p):
        g = generate_ws(200, 4, p, seed=5)
        assert g.edge_count == 200 * 4 // 2

    def test_full_rewire_min_degree(self):
        # Each node keeps its originating stubs, so degree >= k/2.
        g = generate_ws(1000, 4, 1.0, seed=8)
        assert degree_sequence(g).min() >= 2

    def test_deterministic(self):
        assert generate_ws(300, 4, 0.3, seed=9) == generate_ws(300, 4, 0.3, seed=9)


class TestGeneratorsMatchReference:
    """Same edges as the one-draw-at-a-time reference, and the same Generator state after."""

    @pytest.mark.parametrize("n", [4, 60, 3000])
    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_ba(self, m, n):
        rng, ref_rng = np.random.default_rng(100 * m + n), np.random.default_rng(100 * m + n)
        assert list(generate_ba(n, m, seed=rng).edges()) == reference_ba(n, m, ref_rng)
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("n_over_k", [1, 8, 500])
    @pytest.mark.parametrize("p", [0.0, 0.1, 1.0])
    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_ws(self, k, p, n_over_k):
        n = k + 1 if n_over_k == 1 else k * n_over_k
        rng, ref_rng = np.random.default_rng(n + k), np.random.default_rng(n + k)
        assert list(generate_ws(n, k, p, seed=rng).edges()) == reference_ws(n, k, p, ref_rng)
        assert rng.random() == ref_rng.random()


class TestDegreeSequence:
    def test_complete_graph(self):
        assert (degree_sequence(complete_graph(4)) == 3).all()

    def test_ring(self):
        assert (degree_sequence(generate_ws(10, 4, 0.0)) == 4).all()


class TestBetweenness:
    def test_path_graph(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert betweenness(g).tolist() == [0.0, 2.0, 0.0]

    def test_complete_graph(self):
        assert betweenness(complete_graph(4)).tolist() == [0.0] * 4

    def test_disconnected_pairs_contribute_zero(self):
        g = Graph(5, [(0, 1), (1, 2), (3, 4)])
        assert betweenness(g).tolist() == [0.0, 2.0, 0.0, 0.0, 0.0]

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force_exactly(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 25))
        g = Graph(n, random_graph(n, 0.15, rng))
        assert betweenness(g, exact=True) == brute_force_betweenness(g)

    @pytest.mark.parametrize(
        "g, expected",
        [(Graph(0, []), []), (Graph(1, []), [0.0]), (Graph(5, []), [0.0] * 5)],
        ids=["empty", "one_node", "edge_free"],
    )
    def test_boundary_graphs(self, g, expected):
        bc = betweenness(g)
        assert bc.dtype == np.float64
        assert bc.tolist() == expected

    def test_short_source_blocks_match_exact(self, monkeypatch):
        # Ten blocks of 7 sources, the last one short, over several components.
        rng = np.random.default_rng(8)
        g = Graph(68, random_graph(68, 0.04, rng))
        monkeypatch.setattr(graph, "_BRANDES_SOURCES", 7)
        exact = [float(x) for x in betweenness(g, exact=True)]
        np.testing.assert_allclose(betweenness(g), exact, rtol=1e-12, atol=0)

    @pytest.mark.parametrize(
        "make, digest",
        [
            (
                lambda: replication_multiplex(1000, 4, 4, 0.1, 1).awareness_layer,
                "eca9065af17029d800af8b99b34bb388b10790b590558906014dcbea30aede57",
            ),
            (
                # A 4-cycle with a chord, a lone edge, a 28-node path and three
                # isolated nodes: block 0 mixes sources whose component runs out
                # at depth 1 or 2 with path sources, and block 2 holds 5 sources.
                lambda: Graph(
                    37,
                    [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (4, 5)]
                    + [(i, i + 1) for i in range(8, 35)],
                ),
                "ab5cd5bc15bbf6b20929e9a0aacb6eff5464b5fb6ecb4abbfc6f781113f443d4",
            ),
        ],
        ids=["sweep_awareness_layer", "mixed_components"],
    )
    def test_float_bits_are_pinned(self, make, digest):
        # The sweep's rankings read these bits; a rewrite of the float path
        # must keep every product, quotient and sum in the same order.
        assert hashlib.sha256(betweenness(make()).tobytes()).hexdigest() == digest

    def test_deep_bfs_keeps_temporaries_to_a_few_blocks(self):
        # A cycle has BFS depth n/2. The float path peaks near 8 (n, 16) float
        # arrays here; a list of per-level 0/1 masks would hold about 23.
        n = 240
        g = generate_ws(n, 2, 0.0)
        exact = [float(x) for x in betweenness(g, exact=True)]
        np.testing.assert_allclose(betweenness(g), exact, rtol=1e-12, atol=0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            betweenness(g)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 12 * n * graph._BRANDES_SOURCES * 8

    @pytest.mark.parametrize(
        "make",
        [
            lambda: generate_ba(500, 3, seed=1),
            lambda: generate_ba(1000, 4, seed=2),
            lambda: generate_ws(800, 6, 0.2, seed=3),
        ],
        ids=["ba500", "ba1000", "ws800"],
    )
    def test_matches_networkx(self, make):
        nx = pytest.importorskip("networkx")
        g = make()
        h = nx.Graph()
        h.add_nodes_from(range(g.node_count))
        h.add_edges_from(g.edges())
        # networkx counts unordered pairs, so an undirected graph gets half.
        ref = nx.betweenness_centrality(h, normalized=False)
        expected = [2 * ref[i] for i in range(g.node_count)]
        np.testing.assert_allclose(betweenness(g), expected, rtol=1e-12, atol=0)


class TestClustering:
    def test_complete_graph(self):
        assert clustering_coefficients(complete_graph(4)).tolist() == [1.0] * 4

    def test_star_graph(self):
        g = Graph(6, [(0, i) for i in range(1, 6)])
        assert clustering_coefficients(g).tolist() == [0.0] * 6

    def test_ring_k4(self):
        # Each node: 3 of the 6 neighbor pairs are linked.
        assert clustering_coefficients(generate_ws(10, 4, 0.0)).tolist() == [0.5] * 10

    @pytest.mark.parametrize("density", [0.1, 0.3, 0.7])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_triangle_count_exactly(self, seed, density):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 80))
        edges = random_graph(n, density, rng)
        assert clustering_coefficients(Graph(n, edges)).tolist() == triangle_clustering(n, edges)

    def test_row_blocks_match_triangle_count_exactly(self):
        # Several row blocks, the last one short, with BA hubs in the first.
        n = 2 * graph._CLUSTERING_ROWS + 77
        g = generate_ba(n, 4, seed=5)
        assert clustering_coefficients(g).tolist() == triangle_clustering(n, list(g.edges()))

    def test_bounds(self):
        g = generate_ba(200, 3, seed=2)
        cc = clustering_coefficients(g)
        assert ((cc >= 0.0) & (cc <= 1.0)).all()


class TestMultiplex:
    def test_pairs_layers(self):
        net = MultiplexNetwork(generate_ba(100, 4, seed=0), generate_ws(100, 4, 0.1, seed=1))
        assert net.node_count == 100

    def test_size_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            MultiplexNetwork(generate_ba(100, 4, seed=0), generate_ws(99, 4, 0.1, seed=1))


class TestEdgeListIO:
    def test_round_trip(self, tmp_path):
        for layer, name in [
            (generate_ba(80, 4, seed=3), "a.edges"),
            (generate_ws(80, 4, 0.1, seed=4), "b.edges"),
        ]:
            path = tmp_path / name
            write_edge_list(layer, path)
            assert read_edge_list(path) == layer

    def test_header_format(self, tmp_path):
        path = tmp_path / "g.edges"
        write_edge_list(Graph(3, [(1, 2)]), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# nodes=3"
        assert lines[1] == "1 2"

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("0 1\n")
        with pytest.raises(InvalidArgumentError):
            read_edge_list(path)

    @pytest.mark.parametrize("line", ["1 x", "1 2 3", "7", "1.5 2", "--1 2", "+-2 1"])
    def test_malformed_edge_line_names_path_and_line(self, tmp_path, line):
        path = tmp_path / "bad.edges"
        path.write_text(f"# nodes=9\n0 1\n\n# a comment\n{line}\n2 3\n")
        expected = f"bad.edges:5: expected 'i j', got '{line}'"
        with pytest.raises(InvalidArgumentError, match=re.escape(expected)):
            read_edge_list(path)

    def test_comments_blank_lines_and_no_edges(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("# nodes=4\n\n# only comments\n")
        assert read_edge_list(path) == Graph(4, [])
        path.write_text("# nodes=4\n  2 3\n# c\n\n0 1\n")
        assert read_edge_list(path) == Graph(4, [(0, 1), (2, 3)])


def _writes(call: ast.Call) -> bool:
    """Whether `call` may write a file: `open` or `.open` without a literal read mode,
    or `.write_text`/`.write_bytes`."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    modes = [k.value for k in call.keywords if k.arg == "mode"]
    modes += call.args[1:2] if isinstance(func, ast.Name) else call.args[:1]
    if not modes:
        return False  # the default mode reads
    mode = modes[0]
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return bool(set(mode.value) & set("wax+"))
    return True  # a mode computed at run time may write


class TestWriteLines:
    def test_each_line_ends_in_one_newline(self, tmp_path):
        graph.write_lines(tmp_path / "x.txt", (str(i) for i in range(3)))
        assert (tmp_path / "x.txt").read_bytes() == b"0\n1\n2\n"

    def test_is_the_only_write_mode_open(self):
        # Every output file goes through write_lines, so the text policy is decided once.
        found = []
        for path in sorted(Path(graph.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            parents = {c: node for node in ast.walk(tree) for c in ast.iter_child_nodes(node)}
            for node in ast.walk(tree):
                if isinstance(node, ast.Call) and _writes(node):
                    scope = parents[node]
                    while not isinstance(scope, (ast.FunctionDef, ast.Module)):
                        scope = parents[scope]
                    found.append((path.name, getattr(scope, "name", None)))
        assert found == [("graph.py", "write_lines")]

    def test_only_graph_and_cli_name_it(self):
        # The library computes results; the CLI lays out each output file but the
        # edge list, which graph.py writes beside its parser.
        naming = {path.name for path in Path(graph.__file__).parent.glob("*.py")
                  for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                  if "write_lines" in (getattr(node, k, None) for k in ("id", "attr", "name"))}
        assert naming == {"graph.py", "cli.py"}

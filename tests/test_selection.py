import numpy as np
import pytest

from muxepi import (
    Graph, InvalidArgumentError, OmegaSpec, generate_ba, select_omega, write_edge_list)
from muxepi.cli import main
from oracles import read_omega_set


def star():
    return Graph(6, [(0, i) for i in range(1, 6)])


def test_spec_requires_exactly_one_size():
    with pytest.raises(InvalidArgumentError):
        OmegaSpec(strategy="random")
    with pytest.raises(InvalidArgumentError):
        OmegaSpec(strategy="random", count=5, fraction=0.1)


def test_unknown_strategy():
    with pytest.raises(InvalidArgumentError):
        OmegaSpec(strategy="pagerank_top", count=5)


def test_negative_count():
    with pytest.raises(InvalidArgumentError, match=r"^count must be >= 0, got -1$"):
        OmegaSpec(strategy="random", count=-1)


def test_nan_count():
    with pytest.raises(InvalidArgumentError, match=r"^count must be >= 0, got nan$"):
        OmegaSpec(strategy="random", count=float("nan"))


def test_fractional_count():
    with pytest.raises(InvalidArgumentError, match=r"^count must be a whole number, got 2.5$"):
        OmegaSpec(strategy="degree_top", count=2.5)


def test_bad_fraction():
    with pytest.raises(InvalidArgumentError):
        OmegaSpec(strategy="random", fraction=1.2)


def test_count_exceeding_n():
    spec = OmegaSpec(strategy="degree_top", count=10)
    with pytest.raises(InvalidArgumentError):
        select_omega(spec, star())


def test_degree_top_picks_hub():
    assert select_omega(OmegaSpec(strategy="degree_top", count=1), star()).tolist() == [0]


def test_count_zero_is_empty():
    assert len(select_omega(OmegaSpec(strategy="degree_top", count=0), star())) == 0


def test_betweenness_bottom_on_path():
    g = Graph(3, [(0, 1), (1, 2)])
    sel = select_omega(OmegaSpec(strategy="betweenness_bottom", count=2), g)
    assert sel.tolist() == [0, 2]


def test_clustering_strategies():
    # Triangle 0-1-2 plus pendant 3: the pendant has zero clustering.
    g = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    top = select_omega(OmegaSpec(strategy="clustering_top", count=2), g)
    bottom = select_omega(OmegaSpec(strategy="clustering_bottom", count=1), g)
    assert top.tolist() == [0, 1]
    assert bottom.tolist() == [3]


def test_tie_break_by_index():
    ring = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert select_omega(OmegaSpec(strategy="degree_top", count=2), ring).tolist() == [0, 1]


def test_top_bottom_degree_ordering():
    # Ties at the cut can appear in both halves, but every selected top
    # degree is at least every selected bottom degree.
    g = generate_ba(100, 3, seed=12)
    from muxepi import degree_sequence

    deg = degree_sequence(g)
    top = select_omega(OmegaSpec(strategy="degree_top", count=50), g)
    bottom = select_omega(OmegaSpec(strategy="degree_bottom", count=50), g)
    assert deg[top].min() >= deg[bottom].max()


def test_deterministic_ranking():
    # A fresh graph from the same edges, so the second set is not read from the first's cache.
    g = generate_ba(200, 4, seed=3)
    for strategy in ("degree_top", "betweenness_top", "clustering_bottom"):
        spec = OmegaSpec(strategy=strategy, fraction=0.2)
        first = select_omega(spec, g)
        second = select_omega(spec, Graph(g.node_count, list(g.edges())))
        assert first.tolist() == second.tolist()


def test_random_reproducible_and_sized():
    g = generate_ba(200, 4, seed=3)
    spec = OmegaSpec(strategy="random", count=37)
    sel = select_omega(spec, g, seed=99)
    assert len(sel) == 37 and len(set(sel.tolist())) == 37
    assert sel.tolist() == select_omega(spec, g, seed=99).tolist()


def test_fraction_resolution():
    g = generate_ba(200, 4, seed=3)
    sel = select_omega(OmegaSpec(strategy="degree_top", fraction=0.2), g)
    assert len(sel) == 40


def test_omega_set_round_trip(tmp_path):
    # degree_top on a star: the hub, then the leaves by ascending index.
    edges, out = tmp_path / "star.edges", tmp_path / "mmca"
    write_edge_list(star(), edges)
    argv = ["mmca", "--out", str(out), "--set", f"awareness_edges={edges}",
            "--set", f"contact_edges={edges}", "--set", "omega_strategy=degree_top",
            "--set", "omega_count=3"]
    assert main(argv) == 0
    path = out / "omega.txt"
    assert read_omega_set(path) == select_omega(OmegaSpec("degree_top", count=3), star()).tolist()
    assert path.read_text() == "0\n1\n2\n"

import numpy as np
import pytest

from gossipmask import (Graph, GraphGenerationError, erdos_renyi,
                        from_edge_list, is_connected, ring, to_edge_list)


def test_complete_graph_at_p_one():
    g = erdos_renyi(5, 1.0, seed=0)
    assert (g.degrees == 4).all()


def test_er_connected_and_symmetric():
    g = erdos_renyi(20, 0.5, seed=42)
    assert is_connected(g)
    assert (g.adjacency == g.adjacency.T).all()
    assert not np.diag(g.adjacency).any()


def test_er_deterministic():
    a = erdos_renyi(12, 0.4, seed=7)
    b = erdos_renyi(12, 0.4, seed=7)
    assert np.array_equal(a.adjacency, b.adjacency)


def test_er_rejects_bad_arguments():
    with pytest.raises(ValueError):
        erdos_renyi(1, 0.5, 0)
    for p in (0.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            erdos_renyi(5, p, 0)


def test_er_retry_exhaustion_reports_draws():
    with pytest.raises(GraphGenerationError, match="3 draws"):
        erdos_renyi(30, 0.01, seed=0, max_retries=3)


def test_er_edge_frequency():
    # conditioning on connectivity biases pair frequencies upward (the
    # conditioned mean sits near 0.326 here, not 0.3); 2000 draws keep the
    # per-pair noise small enough for a deterministic band check
    n, p, draws = 10, 0.3, 2000
    freq = np.zeros((n, n))
    for seed in range(draws):
        freq += erdos_renyi(n, p, seed=seed).adjacency
    freq /= draws
    iu = np.triu_indices(n, k=1)
    assert freq[iu].min() >= 0.25
    assert freq[iu].max() <= 0.35


def test_ring_triangle():
    g = ring(3)
    assert (g.degrees == 2).all()
    assert g.adjacency.sum() == 6


def test_ring_twenty():
    g = ring(20)
    assert (g.degrees == 2).all()
    assert int(g.adjacency.sum()) // 2 == 20
    assert is_connected(g)


def test_ring_rejects_small():
    with pytest.raises(ValueError):
        ring(2)


def test_is_connected_cases():
    assert is_connected(erdos_renyi(6, 1.0, 0))
    two_pairs = np.zeros((4, 4), dtype=int)
    two_pairs[0, 1] = two_pairs[1, 0] = 1
    two_pairs[2, 3] = two_pairs[3, 2] = 1
    assert not is_connected(two_pairs)
    assert is_connected(ring(7))


def test_is_connected_rejects_malformed_matrices_as_graph_does():
    for adj, message in [(np.zeros((0, 0), dtype=int), "at least one node"),
                         (np.zeros((2, 3), dtype=int), "must be square"),
                         (np.zeros(3, dtype=int), "must be square")]:
        for check in (is_connected, Graph):
            with pytest.raises(ValueError, match=message):
                check(adj)


def test_graph_invariants_enforced():
    with pytest.raises(ValueError):
        Graph(np.array([[0, 1], [0, 0]]))  # asymmetric
    with pytest.raises(ValueError):
        Graph(np.array([[1, 1], [1, 0]]))  # self loop
    with pytest.raises(ValueError):
        Graph(np.zeros((3, 3), dtype=int))  # disconnected
    with pytest.raises(ValueError):
        Graph(np.array([[0, 2], [2, 0]]))  # non-binary


def test_graph_without_nodes_rejected():
    with pytest.raises(ValueError, match="^a graph needs at least one node$"):
        Graph(np.zeros((0, 0)))


def test_graph_immutable_adjacency():
    g = ring(4)
    with pytest.raises(ValueError):
        g.adjacency[0, 0] = 1


def test_edge_list_round_trip():
    g = erdos_renyi(9, 0.5, seed=3)
    back = from_edge_list(to_edge_list(g))
    assert np.array_equal(back.adjacency, g.adjacency)


def test_edge_list_rejects_garbage():
    with pytest.raises(ValueError, match="line 1"):
        from_edge_list("0 1 2\n")
    with pytest.raises(ValueError, match="line 2"):
        from_edge_list("0 1\nx y\n")


def test_edge_list_rejects_a_self_loop_naming_its_line():
    with pytest.raises(ValueError, match="^line 2: self-loop at node 1$"):
        from_edge_list("0 1\n1 1\n1 2\n")


def test_edge_list_rejects_a_repeated_edge_naming_its_line():
    with pytest.raises(ValueError, match="^line 3: edge 0 1 repeats line 1$"):
        from_edge_list("0 1\n1 2\n0 1\n")
    # the reversed pair is the same undirected edge
    with pytest.raises(ValueError, match="^line 4: edge 2 1 repeats line 2$"):
        from_edge_list("0 1\n1 2\n\n2 1\n")

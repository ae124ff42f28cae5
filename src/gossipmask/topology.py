"""Undirected communication graphs.

Graphs are static for a whole run, symmetric, self-loop free and connected;
every constructor enforces those invariants. An edge-list text format
(one "i j" pair per line, 0-indexed) is provided for run manifests.
"""

import numpy as np

__all__ = [
    "Graph",
    "GraphGenerationError",
    "erdos_renyi",
    "ring",
    "is_connected",
    "to_edge_list",
    "from_edge_list",
]


class GraphGenerationError(Exception):
    pass


def _square(adjacency):
    """``adjacency`` as a square array of at least one node, else ValueError."""
    adj = np.asarray(adjacency)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ValueError("adjacency must be square")
    if adj.shape[0] == 0:
        raise ValueError("a graph needs at least one node")
    return adj


def is_connected(g):
    """True iff a single component spans all nodes.

    Accepts a :class:`Graph` or a raw adjacency matrix (so candidates can
    be tested before construction); a matrix that is not square or has no
    node raises ValueError, as :class:`Graph` does.
    """
    adj = _square(getattr(g, "adjacency", g))
    n = adj.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            for u in np.flatnonzero(adj[v]):
                if not seen[u]:
                    seen[u] = True
                    nxt.append(int(u))
        frontier = nxt
    return bool(seen.all())


class Graph:
    """Validated, immutable undirected graph with neighbor lists."""

    def __init__(self, adjacency):
        adj = _square(adjacency)
        if not np.isin(adj, (0, 1)).all():
            raise ValueError("adjacency entries must be 0 or 1")
        if (adj != adj.T).any():
            raise ValueError("adjacency must be symmetric")
        if np.diag(adj).any():
            raise ValueError("self-loops are not allowed")
        if not is_connected(adj):
            raise ValueError("graph must be connected")
        self.adjacency = adj.astype(np.uint8)
        self.adjacency.setflags(write=False)
        self.n = adj.shape[0]
        self.neighbors = [np.flatnonzero(self.adjacency[i]) for i in range(self.n)]
        self.degrees = np.array([len(nb) for nb in self.neighbors])

    def __repr__(self):
        return f"Graph(n={self.n}, edges={int(self.adjacency.sum()) // 2})"


def erdos_renyi(n, p, seed, max_retries=100):
    """Erdos-Renyi draw, resampled until connected.

    Each unordered pair is joined independently with probability ``p``.
    Disconnected draws are rejected and redrawn from the same stream, up to
    ``max_retries`` times.
    """
    if n < 2:
        raise ValueError("need at least 2 nodes")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"edge probability must be in (0, 1], got {p}")
    rng = np.random.default_rng(seed)
    iu = np.triu_indices(n, k=1)
    for _ in range(max_retries):
        adj = np.zeros((n, n), dtype=np.uint8)
        adj[iu] = rng.random(len(iu[0])) < p
        adj += adj.T
        if is_connected(adj):
            return Graph(adj)
    raise GraphGenerationError(
        f"no connected graph in {max_retries} draws (n={n}, p={p}, seed={seed})")


def ring(n):
    """Cycle over ``n`` nodes; every degree is 2."""
    if n < 3:
        raise ValueError("a ring needs at least 3 nodes")
    adj = np.zeros((n, n), dtype=np.uint8)
    idx = np.arange(n)
    adj[idx, (idx + 1) % n] = 1
    adj[(idx + 1) % n, idx] = 1
    return Graph(adj)


def to_edge_list(g):
    """Edge-list text, one "i j" pair per line with i < j, ascending."""
    lines = []
    for i in range(g.n):
        for j in g.neighbors[i]:
            if i < j:
                lines.append(f"{i} {j}")
    return "\n".join(lines) + "\n"


def from_edge_list(text):
    """Inverse of :func:`to_edge_list`; node count is the largest index + 1.
    A bad line, a self-loop or an edge listed twice (in either order)
    raises ValueError naming its line."""
    edges = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'i j', got '{raw}'")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer node id in '{raw}'") from None
        if i < 0 or j < 0:
            raise ValueError(f"line {lineno}: negative node id")
        if i == j:
            raise ValueError(f"line {lineno}: self-loop at node {i}")
        first = edges.setdefault((min(i, j), max(i, j)), lineno)
        if first != lineno:
            raise ValueError(f"line {lineno}: edge {i} {j} repeats line {first}")
    if not edges:
        raise ValueError("empty edge list")
    n = max(j for _, j in edges) + 1
    adj = np.zeros((n, n), dtype=np.uint8)
    for i, j in edges:
        adj[i, j] = 1
        adj[j, i] = 1
    return Graph(adj)

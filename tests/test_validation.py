"""Connectivity and structural validation."""

from collections import deque

import numpy as np
import pytest

from repro.errors import GraphStructureError, NotConnectedError
from repro.graphs import generators as G
from repro.graphs.multigraph import MultiGraph
from repro.graphs.validation import (
    connected_components,
    is_connected,
    require_connected,
    validate_graph,
)


class TestConnectivity:
    def test_zoo_connected(self, zoo_graph):
        assert is_connected(zoo_graph)

    def test_disjoint_union_disconnected(self):
        g = G.union_disjoint(G.path(3), G.cycle(4))
        assert not is_connected(g)
        labels = connected_components(g)
        assert labels.max() == 1
        assert set(labels[:3]) == {0}
        assert set(labels[3:]) == {1}

    def test_singleton_connected(self):
        assert is_connected(MultiGraph(1, [], [], []))

    def test_edgeless_multi_vertex_disconnected(self):
        assert not is_connected(MultiGraph(3, [], [], []))

    def test_isolated_vertex(self):
        g = MultiGraph(4, [0, 1], [1, 2], [1.0, 1.0])
        labels = connected_components(g)
        assert labels[3] != labels[0]

    def test_labels_in_order_of_first_appearance(self):
        # Regression: the union-find version relabelled by sorted root
        # and returned [1, 0, 0, 1] here.
        g = MultiGraph(4, [3, 2], [0, 1], [1.0, 1.0])
        labels = connected_components(g)
        assert labels.dtype == np.int64
        assert labels.tolist() == [0, 1, 1, 0]

    def test_components_matches_networkx(self, zoo_graph):
        nx = pytest.importorskip("networkx")
        from repro.graphs.conversions import to_networkx

        ours = connected_components(zoo_graph).max() + 1
        theirs = nx.number_connected_components(to_networkx(zoo_graph))
        assert ours == theirs

    def test_require_connected_raises(self):
        g = G.union_disjoint(G.path(2), G.path(2))
        with pytest.raises(NotConnectedError):
            require_connected(g)

    def test_require_connected_passes(self):
        require_connected(G.path(5))


def _bfs_labels(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Oracle: breadth-first search from each unlabelled vertex in turn."""
    adj = [[] for _ in range(n)]
    for a, b in zip(u.tolist(), v.tolist()):
        adj[a].append(b)
        adj[b].append(a)
    labels = [-1] * n
    count = 0
    for s in range(n):
        if labels[s] >= 0:
            continue
        labels[s] = count
        queue = deque([s])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if labels[y] < 0:
                    labels[y] = count
                    queue.append(y)
        count += 1
    return np.array(labels, dtype=np.int64)


def _same_partition(a: np.ndarray, b: np.ndarray) -> bool:
    """True iff the labelings induce the same vertex partition."""
    pairs = set(zip(a.tolist(), b.tolist()))
    return len(pairs) == len(set(a.tolist())) == len(set(b.tolist()))


def _first_appearance_order(labels: np.ndarray) -> bool:
    """Each new label is one more than the largest label seen before."""
    seen = np.maximum.accumulate(np.concatenate(([-1], labels[:-1])))
    return bool(np.all(labels <= seen + 1))


def _random_case(rng: np.random.Generator) -> MultiGraph:
    n = int(rng.integers(1, 80))
    m = int(rng.integers(0, 2 * n + 1)) if n > 1 else 0
    u = rng.integers(0, n, m)
    v = (u + rng.integers(1, n, m)) % n if n > 1 else u
    if m and rng.random() < 0.5:
        # Parallel copies of existing edges.
        pick = rng.integers(0, m, int(rng.integers(1, m + 1)))
        u, v = np.concatenate((u, v[pick])), np.concatenate((v, u[pick]))
    if n > 1 and rng.random() < 0.25:
        # ≥256 parallel copies of one edge: a sum of one-byte counts
        # would wrap to 0 on it.
        a, b = rng.choice(n, 2, replace=False)
        copies = int(rng.integers(256, 400))
        u = np.concatenate((u, np.full(copies, a)))
        v = np.concatenate((v, np.full(copies, b)))
    w = 10.0 ** rng.uniform(-300, 3, u.size)
    return MultiGraph(n, u, v, w)


class TestComponentsOracle:
    def test_random_graphs_match_bfs(self):
        rng = np.random.default_rng(20231)
        cases = [MultiGraph(1, [], [], []), MultiGraph(5, [], [], []),
                 MultiGraph(2, [0] * 300, [1] * 300, [1e-300] * 300)]
        cases += [_random_case(rng) for _ in range(300)]
        many = 0
        for g in cases:
            ours = connected_components(g)
            oracle = _bfs_labels(g.n, g.u, g.v)
            assert ours.shape == (g.n,)
            assert _same_partition(ours, oracle)
            assert _first_appearance_order(ours)
            many += int(ours.max()) >= 9
        assert many >= 10  # the loop reaches many-component graphs

    def test_tiny_weights_keep_the_bridge(self):
        g = G.union_disjoint(G.path(3), G.path(3))
        bridge = MultiGraph(g.n, np.concatenate((g.u, [2] * 256)),
                            np.concatenate((g.v, [3] * 256)),
                            np.concatenate((g.w, [1e-300] * 256)))
        assert is_connected(bridge)
        assert connected_components(bridge).tolist() == [0] * 6


class TestValidateGraph:
    def test_valid(self, zoo_graph):
        validate_graph(zoo_graph)

    def test_detects_in_place_corruption(self):
        g = G.path(3)
        g.w[0] = -5.0  # bypasses constructor validation
        with pytest.raises(GraphStructureError, match="non-positive"):
            validate_graph(g, connected=False)

    def test_detects_nan_corruption(self):
        g = G.path(3)
        g.w[1] = float("nan")
        with pytest.raises(GraphStructureError, match="non-finite"):
            validate_graph(g, connected=False)

    def test_detects_disconnection(self):
        g = G.union_disjoint(G.path(2), G.path(2))
        with pytest.raises(NotConnectedError):
            validate_graph(g)

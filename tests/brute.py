"""Brute-force reference implementations used as independent oracles.

Everything here works from the adjacency alone with python sets and plain
subset scans, deliberately sharing no search code with the package solvers.
"""

from __future__ import annotations

import random
from itertools import combinations

from strongdom.graphs import Graph, remove_edges


def neighbours(graph: Graph, v: int) -> list[int]:
    """Neighbours of ``v`` read bit by bit off its adjacency row."""
    return [u for u in range(graph.order) if graph.rows[v] >> u & 1]


def closed_sets(graph: Graph) -> list[set[int]]:
    return [set(neighbours(graph, v)) | {v} for v in range(graph.order)]


def brute_gamma(graph: Graph) -> int:
    closed = closed_sets(graph)
    everything = set(range(graph.order))
    for k in range(0, graph.order + 1):
        for combo in combinations(range(graph.order), k):
            covered: set[int] = set()
            for v in combo:
                covered |= closed[v]
            if covered == everything:
                return k
    raise AssertionError("unreachable")


def brute_min_dominating_sets(graph: Graph) -> list[tuple[int, ...]]:
    value = brute_gamma(graph)
    closed = closed_sets(graph)
    everything = set(range(graph.order))
    out = []
    for combo in combinations(range(graph.order), value):
        covered: set[int] = set()
        for v in combo:
            covered |= closed[v]
        if covered == everything:
            out.append(combo)
    return out


def all_dominating_sets(graph: Graph):
    """Every dominating set of every size; only sensible for tiny graphs."""
    closed = closed_sets(graph)
    everything = set(range(graph.order))
    for k in range(0, graph.order + 1):
        for combo in combinations(range(graph.order), k):
            covered: set[int] = set()
            for v in combo:
                covered |= closed[v]
            if covered == everything:
                yield combo


def distance_matrix(graph: Graph) -> list[list[float]]:
    inf = float("inf")
    dist = [[inf] * graph.order for _ in range(graph.order)]
    for src in range(graph.order):
        dist[src][src] = 0
        frontier = [src]
        d = 0
        seen = {src}
        while frontier:
            d += 1
            nxt = []
            for v in frontier:
                for u in neighbours(graph, v):
                    if u not in seen:
                        seen.add(u)
                        dist[src][u] = d
                        nxt.append(u)
            frontier = nxt
    return dist


def brute_two_packing(graph: Graph) -> int:
    dist = distance_matrix(graph)
    best = 0
    for k in range(1, graph.order + 1):
        found = False
        for combo in combinations(range(graph.order), k):
            if all(dist[a][b] > 2 for a, b in combinations(combo, 2)):
                found = True
                break
        if not found:
            break
        best = k
    return best


def brute_bondage(graph: Graph) -> int | None:
    base = brute_gamma(graph)
    edges = graph.edges()
    for k in range(1, len(edges) + 1):
        for combo in combinations(edges, k):
            if brute_gamma(remove_edges(graph, combo)) > base:
                return k
    return None


def brute_first_bondage_witness(graph: Graph) -> tuple[tuple[int, int], ...] | None:
    """Smallest, then lexicographically least bondage set by plain scanning."""
    base = brute_gamma(graph)
    edges = graph.edges()
    for k in range(1, len(edges) + 1):
        for combo in combinations(edges, k):
            if brute_gamma(remove_edges(graph, combo)) > base:
                return combo
    return None


def strong_product_edge_count(left: Graph, right: Graph) -> int:
    """Direct pair enumeration of the three adjacency clauses."""
    pairs = [(g, h) for g in range(left.order) for h in range(right.order)]
    count = 0
    for a in range(len(pairs)):
        g1, h1 = pairs[a]
        for b in range(a + 1, len(pairs)):
            g2, h2 = pairs[b]
            ge = left.has_edge(g1, g2)
            he = right.has_edge(h1, h2)
            if (g1 == g2 and he) or (ge and h1 == h2) or (ge and he):
                count += 1
    return count


def prufer_tree(seq: list[int], order: int) -> Graph:
    """Labelled tree on ``order`` vertices from a Prufer sequence."""
    assert len(seq) == order - 2
    degree = [1] * order
    for v in seq:
        degree[v] += 1
    edges = []
    import heapq

    leaves = [v for v in range(order) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    edges.append((u, w))
    return Graph.from_edges(order, edges)


def random_tree(rng: random.Random, order: int) -> Graph:
    if order == 1:
        return Graph(1, (0,))
    if order == 2:
        return Graph.from_edges(2, [(0, 1)])
    seq = [rng.randrange(order) for _ in range(order - 2)]
    return prufer_tree(seq, order)


def random_graph(rng: random.Random, order: int, p: float) -> Graph:
    edges = [
        (u, v)
        for u in range(order)
        for v in range(u + 1, order)
        if rng.random() < p
    ]
    return Graph.from_edges(order, edges)

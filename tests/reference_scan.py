"""Per-candidate reference for ``bondage.find_bondage_set_up_to``.

The same scan as the package's, written as one loop turn per candidate edge
set: every k-set of edge indices is built in full, in ``combinations`` order,
and put through the twin-prefix test and the mirror test on each of its
prefixes, then a test that it touches every pool member, then the pool test,
then a one-vertex repair of a pool member, then the exact solver.  The twin
classes and the mirror map are worked out here from the closed rows and the
adjacency.  The package skips the sets that fail any of the first three
tests in bulk, so its pool tests, solver calls and witnesses must equal
this loop's.  Each cover moves onto the last
vertices of its twin classes before it joins the pool, as the package's
does; the classes are those of the graph the cover dominates, grouped here
from ``remove_edges(graph, B).closed_rows()``.  ``ReferencePool``
shares no code with the package's pool: it builds each member's touch mask
edge by edge and runs the pool test as a domination check of every member on
the damaged graph that ``remove_edges`` builds, so the package's incident-mask
XOR, per-edge member masks and damaged closed rows are all checked against
it.  Its ``repair`` tries
every swap of one member vertex for any vertex of the graph, in the
package's order, with a domination check on the damaged graph.
"""

from __future__ import annotations

from itertools import combinations

from strongdom.domination import _cover_within, gamma_value, is_dominating
from strongdom.graphs import remove_edges


class ReferencePool:
    """A pool kept apart from the package's: member masks, each member's touch
    mask by the per-edge "exactly one endpoint in the member" test, and the
    pool test as a domination check of each member on the damaged graph."""

    def __init__(self, graph, edges):
        self.graph = graph
        self.edges = edges
        self.members = []
        self.touch = []

    def add(self, dmask):
        self.members.append(dmask)
        self.touch.append(
            sum(
                1 << e
                for e, (u, v) in enumerate(self.edges)
                if (dmask >> u & 1) != (dmask >> v & 1)
            )
        )

    def some_member_survives(self, zedges):
        damaged = remove_edges(self.graph, [self.edges[e] for e in zedges])
        return any(
            is_dominating(damaged, [v for v in range(damaged.order) if dmask >> v & 1])
            for dmask in self.members
        )

    def repair(self, zedges):
        """The first member with one vertex x swapped for a vertex z that
        dominates the damaged graph, trying members in order, then x, then z
        in increasing order; None if no swap works."""
        damaged = remove_edges(self.graph, [self.edges[e] for e in zedges])
        for dmask in self.members:
            for x in range(damaged.order):
                if not dmask >> x & 1:
                    continue
                for z in range(damaged.order):
                    swapped = dmask & ~(1 << x) | 1 << z
                    if is_dominating(damaged, [v for v in range(damaged.order) if swapped >> v & 1]):
                        return swapped
        return None


def _twin_prefix_test(graph, edges):
    """A predicate on edge-index tuples: the first edge is the least edge
    joining its pair of twin classes, and the touched members of every twin
    class are that class's first members."""
    classes = {}
    for v, row in enumerate(graph.closed_rows()):
        classes.setdefault(row, []).append(v)
    members = {v: cls for cls in classes.values() for v in cls}
    least_joining = {}
    for e, (u, v) in enumerate(edges):
        pair = frozenset((members[u][0], members[v][0]))
        least_joining.setdefault(pair, e)

    def test(combo):
        u, v = edges[combo[0]]
        if least_joining[frozenset((members[u][0], members[v][0]))] != combo[0]:
            return False
        touched = {w for e in combo for w in edges[e]}
        return all(x in touched for w in touched for x in members[w] if x < w)

    return test


def _mirror_prefix_test(graph, edges):
    """A predicate on sorted edge-index tuples: the tuple's image under the
    mirror map, sorted, is not lexicographically smaller than the tuple.

    The mirror map reverses the vertex order, then reverses the order of the
    vertices inside every closed-twin class.  If the reversal alone does not
    map every edge to an edge, the map is the identity."""
    order = graph.order
    closed = graph.closed_rows()
    classes = {}
    for v in range(order):
        classes.setdefault(closed[v], []).append(v)
    if all(graph.has_edge(order - 1 - u, order - 1 - v) for u, v in edges):
        mirror = []
        for v in range(order):
            cls = classes[closed[order - 1 - v]]
            mirror.append(cls[len(cls) - 1 - cls.index(order - 1 - v)])
    else:
        mirror = list(range(order))
    index = {edge: e for e, edge in enumerate(edges)}
    image = [index[tuple(sorted((mirror[u], mirror[v])))] for u, v in edges]

    def test(combo):
        return tuple(sorted(image[e] for e in combo)) >= combo

    return test


def _on_last_twins(dmask, damaged):
    """``dmask`` with as many vertices of each closed-twin class of the graph
    ``damaged`` as it holds, taken from the end of the sorted class."""
    classes = {}
    for v, row in enumerate(damaged.closed_rows()):
        classes.setdefault(row, []).append(v)
    moved = 0
    for cls in classes.values():
        cls = sorted(cls)
        held = len([v for v in cls if dmask >> v & 1])
        moved |= sum(1 << v for v in cls[len(cls) - held :])
    return moved


def reference_find_bondage_set_up_to(graph, max_size):
    edges = graph.edges()
    if max_size <= 0 or not edges:
        return None
    closed = graph.closed_rows()
    full = graph.full_mask
    gamma = gamma_value(graph)
    twin_prefix = _twin_prefix_test(graph, edges)
    mirror = _mirror_prefix_test(graph, edges)
    pool = ReferencePool(graph, edges)
    pool.add(_on_last_twins(_cover_within(closed, full, gamma), graph))
    n_edges = len(edges)
    bit = [1 << e for e in range(n_edges)]
    touch = pool.touch
    survives = pool.some_member_survives
    for k in range(1, min(max_size, n_edges) + 1):
        for combo in combinations(range(n_edges), k):
            if not all(twin_prefix(combo[:i]) and mirror(combo[:i]) for i in range(1, k + 1)):
                continue
            zmask = 0
            for e in combo:
                zmask |= bit[e]
            if not all(zmask & t for t in touch):
                continue
            if survives(combo):
                continue
            damaged = remove_edges(graph, [edges[e] for e in combo])
            cover = pool.repair(combo)
            if cover is None:
                cover = _cover_within(damaged.closed_rows(), full, gamma)
                if cover is None:
                    return tuple(edges[e] for e in combo)
            pool.add(_on_last_twins(cover, damaged))
    return None

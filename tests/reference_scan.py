"""Per-candidate reference for ``bondage.find_bondage_set_up_to``.

The same scan as the package's, written as one loop turn per candidate edge
set: each representative (then each plain lexicographic) set is built in
full and tested against the pool's front member before anything else.  The
package skips the sets that miss the front member in bulk, so its pool tests,
solver calls and witnesses must equal this loop's.
"""

from __future__ import annotations

from itertools import chain, combinations

from strongdom import bondage
from strongdom.domination import _cover_within, gamma_value


def reference_find_bondage_set_up_to(graph, max_size):
    edges = graph.edges()
    if max_size <= 0 or not edges:
        return None
    closed = graph.closed_rows()
    full = graph.full_mask
    gamma = gamma_value(graph)
    order, starts = bondage._twin_orbits(closed, edges)
    pool = bondage._DominatingPool(graph, edges, order)
    pool.add(_cover_within(closed, full, gamma))
    n_edges = len(edges)
    bit = [1 << e for e in range(n_edges)]
    touch = pool.touch
    survives = pool.some_member_survives
    for k in range(1, min(max_size, n_edges) + 1):
        representatives = chain.from_iterable(
            map((order[p],).__add__, combinations(order[p + 1 :], k - 1)) for p in starts
        )
        for witness_scan, candidates in enumerate(
            (representatives, combinations(range(n_edges), k))
        ):
            front_touch = touch[pool.front]
            for combo in candidates:
                zmask = 0
                for e in combo:
                    zmask |= bit[e]
                if zmask & front_touch == 0:
                    continue
                if survives(zmask, combo):
                    front_touch = touch[pool.front]
                    continue
                damaged = closed.copy()
                for e in combo:
                    u, v = edges[e]
                    damaged[u] &= ~(1 << v)
                    damaged[v] &= ~(1 << u)
                cover = _cover_within(damaged, full, gamma)
                if cover is None:
                    break
                pool.add(cover)
            else:
                break
            if witness_scan:
                return tuple(edges[e] for e in combo)
    return None

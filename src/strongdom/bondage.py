"""Exact bondage numbers by iterative-deepening edge-subset search, plus the
constructive edge sets that certify upper bounds on products.

Each size is refuted once per twin-symmetry class of edge sets.  Swapping
two closed twins (vertices with equal closed neighbourhoods) is an
automorphism, so the edges joining one pair of twin classes form an orbit;
with the edges laid out orbit by orbit, only the sets whose least edge is
the first edge of its orbit are scanned, in the spirit of isomorph rejection
(McKay, J. Algorithms 26, 1998).  In K_m x T each column lies in one twin
class.  The first size with a bondage set is scanned once more in plain
lexicographic order, so the witness is the lexicographically least one.

The search keeps a pool of minimum dominating sets of the intact graph.  Any
candidate edge set that leaves some pool member dominating cannot have raised
the domination number, so the vast majority of candidates are rejected by a
couple of integer operations; survivors are confirmed with the exact solver,
which keeps the search exhaustive and exact regardless of pool quality.

The pool grows lazily, as in the implicit hitting set loop of Chandrasekaran,
Karp, Moreno-Centeno and Vempala (SODA 2011): it starts from one minimum
dominating set, and each cover the solver finds for a refuted candidate joins
it.  Removing edges only shrinks neighbourhoods, so a dominating set of G - B
of size <= gamma(G) is a minimum dominating set of G as well.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterable, Sequence

from .domination import _cover_within, gamma_value
from .graphs import Edge, Graph, ProductIndexing, normalize_edge, remove_edges


class TimeBudgetExceeded(RuntimeError):
    """A search ran past its wall-clock deadline."""


@dataclass(frozen=True)
class BondageResult:
    value: int
    witness: tuple[Edge, ...]


def is_bondage_set(graph: Graph, edges: Iterable[tuple[int, int]]) -> bool:
    """True iff removing ``edges`` strictly raises the domination number."""
    damaged = remove_edges(graph, edges).closed_rows()
    return _cover_within(damaged, graph.full_mask, gamma_value(graph)) is None


def _deadline(budget_seconds: float | None) -> float | None:
    """Monotonic-clock deadline for a wall budget in seconds; None is unlimited."""
    if budget_seconds is None:
        return None
    if not budget_seconds > 0:
        raise ValueError(f"budget must be positive, got {budget_seconds}")
    return time.monotonic() + budget_seconds


class _DominatingPool:
    """Minimum dominating sets of the intact graph, indexed for fast damage tests.

    ``touch[i]`` is the mask (over edge indices) of edges with exactly one
    endpoint in member ``i``; only those removals can break its domination.
    A member with ``counts[w] > d`` spare dominators of ``w`` survives any
    candidate that removes at most ``d`` of them.
    """

    __slots__ = ("graph", "edges", "touch", "targets", "counts", "front")

    def __init__(self, graph: Graph, edges: Sequence[Edge]):
        self.graph = graph
        self.edges = edges
        self.touch: list[int] = []
        self.targets: list[dict[int, int]] = []
        self.counts: list[list[int]] = []
        self.front = 0

    def add(self, dmask: int) -> None:
        touch = 0
        targets: dict[int, int] = {}
        for e_index, (u, v) in enumerate(self.edges):
            u_in = dmask >> u & 1
            v_in = dmask >> v & 1
            if u_in != v_in:
                touch |= 1 << e_index
                targets[e_index] = v if u_in else u
        graph = self.graph
        counts = [0] * graph.order
        for w in range(graph.order):
            if not dmask >> w & 1:
                counts[w] = (graph.rows[w] & dmask).bit_count()
        self.touch.append(touch)
        self.targets.append(targets)
        self.counts.append(counts)

    def some_member_survives(self, zmask: int, zedges: tuple[int, ...]) -> bool:
        touch = self.touch
        if zmask & touch[self.front] == 0:
            return True
        for i in range(len(touch)):
            if zmask & touch[i] == 0:
                self.front = i
                return True
        # every member is touched; run the exact spare-dominator test
        for i in range(len(touch)):
            targets = self.targets[i]
            counts = self.counts[i]
            dec: dict[int, int] = {}
            ok = True
            for e in zedges:
                w = targets.get(e)
                if w is None:
                    continue
                d = dec.get(w, 0) + 1
                if d >= counts[w]:
                    ok = False
                    break
                dec[w] = d
            if ok:
                return True
        return False


def _twin_orbits(closed: Sequence[int], edges: Sequence[Edge]) -> tuple[list[int], list[int]]:
    """Edge indices laid out orbit by orbit, largest orbit first, and the
    position where each orbit starts; ``closed`` holds the closed rows.

    Closed twins (equal closed rows) may be swapped by an automorphism, so
    the edges joining one pair of twin classes form an orbit of the group
    those swaps generate.  The pair is keyed sorted, since an edge ``u < v``
    may meet it from either end; an unsorted key would split the orbit in
    two and scan more representatives than needed.
    """
    class_of: dict[int, int] = {}
    twin = [class_of.setdefault(row, len(class_of)) for row in closed]
    orbits: defaultdict[tuple[int, int], list[int]] = defaultdict(list)
    for e_index, (u, v) in enumerate(edges):
        cu, cv = twin[u], twin[v]
        orbits[(cu, cv) if cu < cv else (cv, cu)].append(e_index)
    order: list[int] = []
    starts: list[int] = []
    for orbit in sorted(orbits.values(), key=len, reverse=True):
        starts.append(len(order))
        order.extend(orbit)
    return order, starts


def find_bondage_set_up_to(
    graph: Graph, max_size: int, *, deadline: float | None = None
) -> tuple[Edge, ...] | None:
    """Smallest (then lexicographically least) bondage set of size <= max_size,
    or None once every size up to max_size has been refuted.

    Each size is refuted over one representative per twin-symmetry class:
    with the edges laid out orbit by orbit (``_twin_orbits``), only the sets
    whose least edge opens its orbit are scanned.  Any other set is mapped
    onto one of these by twin swaps, which preserve the domination number,
    by moving its least edge to the first edge of that edge's orbit (the
    swaps keep every edge in its own orbit, so none lands earlier).  At the
    first size where a representative raises gamma, a plain lexicographic
    scan of that size alone returns the lexicographically least witness.

    The pool only filters; the exact solver has the final word on survivors.
    ``deadline`` is a ``time.monotonic()`` instant (None: unlimited), checked
    on entry and every 2,048 sets; passing it raises ``TimeBudgetExceeded``.
    """
    monotonic = time.monotonic
    if deadline is not None and monotonic() > deadline:
        raise TimeBudgetExceeded("instance budget exhausted")
    edges = graph.edges()
    if max_size <= 0 or not edges:
        return None
    closed = graph.closed_rows()
    full = graph.full_mask
    gamma = gamma_value(graph)
    pool = _DominatingPool(graph, edges)
    pool.add(_cover_within(closed, full, gamma))
    n_edges = len(edges)
    bit = [1 << e for e in range(n_edges)]
    touch = pool.touch
    survives = pool.some_member_survives
    checked = 0
    order, starts = _twin_orbits(closed, edges)
    for k in range(1, min(max_size, n_edges) + 1):
        representatives = chain.from_iterable(
            map((order[p],).__add__, combinations(order[p + 1 :], k - 1)) for p in starts
        )
        # the plain scan runs only once a representative of this size raised gamma
        for witness_scan, candidates in enumerate(
            (representatives, combinations(range(n_edges), k))
        ):
            front_touch = touch[pool.front]
            for combo in candidates:
                checked += 1
                if deadline is not None and not checked & 2047 and monotonic() > deadline:
                    what = "representative and witness-scan" if witness_scan else "representative"
                    raise TimeBudgetExceeded(
                        f"deadline hit after {checked} {what} sets at size {k}"
                    )
                zmask = 0
                for e in combo:
                    zmask |= bit[e]
                if zmask & front_touch == 0:
                    continue
                if survives(zmask, combo):
                    front_touch = touch[pool.front]
                    continue
                # no pooled set survives; ask the exact solver
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
                break  # every candidate refuted: size k holds
            if witness_scan:
                return tuple(edges[e] for e in combo)
    return None


def bondage_number(
    graph: Graph,
    *,
    max_size: int | None = None,
    deadline: float | None = None,
) -> BondageResult:
    """Exact bondage number with a minimum witness.

    Iterative deepening over subset sizes, each refuted over twin-symmetry
    representatives; the answer size is then scanned in lexicographic order
    over the sorted edge list, so the witness is the lexicographically least
    minimum bondage set.  ``deadline`` is as in ``find_bondage_set_up_to``.
    """
    edges = graph.edges()
    if not edges:
        raise ValueError("an edgeless graph has no bondage set")
    limit = len(edges) if max_size is None else min(max_size, len(edges))
    witness = find_bondage_set_up_to(graph, limit, deadline=deadline)
    if witness is None:
        raise ValueError(f"no bondage set of size <= {limit} exists")
    return BondageResult(len(witness), witness)


def covering_matching(vertices: Sequence[int]) -> tuple[Edge, ...]:
    """Pairs of consecutive entries touching every vertex of the sequence.

    A perfect matching for an even count; for an odd count the final pair
    overlaps the last matched vertex, giving ceil(len/2) pairs in total.
    """
    verts = list(vertices)
    if len(verts) < 2:
        raise ValueError("need at least two vertices to cover")
    pairs = [normalize_edge(verts[t], verts[t + 1]) for t in range(0, len(verts) - 1, 2)]
    if len(verts) % 2:
        pairs.append(normalize_edge(verts[-2], verts[-1]))
    return tuple(pairs)


def column_cover_edges(idx: ProductIndexing, v: int) -> tuple[Edge, ...]:
    """Edges inside the column over right-factor vertex ``v`` that touch every
    vertex of the column: ceil(m/2) of them, for a left factor of order m."""
    if idx.left_order < 2:
        raise ValueError("a column cover needs a left factor with at least two vertices")
    return covering_matching(idx.column(v))


def rung_edges(idx: ProductIndexing, right: Graph, x: int, y: int) -> tuple[Edge, ...]:
    """The ``left_order`` parallel edges joining the columns over adjacent
    right-factor vertices ``x`` and ``y``."""
    if right.order != idx.right_order:
        raise ValueError("right factor does not match the indexing")
    if not right.has_edge(x, y):
        raise ValueError(f"{x}-{y} is not an edge of the right factor")
    n = idx.right_order
    return tuple(
        normalize_edge(g * n + x, g * n + y) for g in range(idx.left_order)
    )


def pendant_bondage_set(
    idx: ProductIndexing, right: Graph, s0: int, t0: int | None = None
) -> tuple[Edge, ...]:
    """Column cover over a degree-1 right vertex plus the rungs to its
    neighbour: ceil(3m/2) edges that form a bondage set of the product."""
    if right.order != idx.right_order:
        raise ValueError("right factor does not match the indexing")
    if right.degree(s0) != 1:
        raise ValueError(f"vertex {s0} has degree {right.degree(s0)}, expected 1")
    neighbor = right.neighbors(s0)[0]
    if t0 is None:
        t0 = neighbor
    elif t0 != neighbor:
        raise ValueError(f"{t0} is not the neighbour of {s0}")
    return tuple(sorted(column_cover_edges(idx, s0) + rung_edges(idx, right, s0, t0)))


def path_bondage_edges(n: int) -> tuple[Edge, ...]:
    """A minimum bondage set of the n-vertex path: the pendant edge, plus the
    next edge along when n % 3 == 1."""
    if n < 2:
        raise ValueError("a path needs at least two vertices to have a bondage set")
    if n % 3 == 1:
        return ((0, 1), (1, 2))
    return ((0, 1),)

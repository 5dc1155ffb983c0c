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
Most candidates miss the pool's front member (the member last found
untouched by a candidate) altogether, so they are skipped in bulk: each
candidate is a prefix plus a last edge, and while the prefix misses the
front member a bit scan of that member's touched edges jumps straight to
the next last edge that touches it.  Only the candidates that touch the
front member are visited.

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
from typing import Iterable, Iterator, Sequence

from .domination import TimeBudgetExceeded, _check_entry, _cover_within, gamma_value
from .graphs import Edge, Graph, ProductIndexing, normalize_edge, remove_edges


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
    ``slot_touch[i]`` is the same mask over the positions of a second edge
    layout, ``slots`` (the edge index at each position).  A member with
    ``counts[w] > d`` spare dominators of ``w`` survives any candidate that
    removes at most ``d`` of them.
    """

    __slots__ = (
        "graph", "edges", "slots", "touch", "slot_touch", "targets", "counts", "front"
    )

    def __init__(self, graph: Graph, edges: Sequence[Edge], slots: Sequence[int]):
        self.graph = graph
        self.edges = edges
        self.slots = slots
        self.touch: list[int] = []
        self.slot_touch: list[int] = []
        self.targets: list[dict[int, int]] = []
        self.counts: list[list[int]] = []
        self.front = 0

    def add(self, dmask: int) -> None:
        edges = self.edges
        touch = slot_touch = 0
        targets: dict[int, int] = {}
        for slot, e_index in enumerate(self.slots):
            u, v = edges[e_index]
            u_in = dmask >> u & 1
            v_in = dmask >> v & 1
            if u_in != v_in:
                touch |= 1 << e_index
                slot_touch |= 1 << slot
                targets[e_index] = v if u_in else u
        graph = self.graph
        counts = [0] * graph.order
        for w in range(graph.order):
            if not dmask >> w & 1:
                counts[w] = (graph.rows[w] & dmask).bit_count()
        self.touch.append(touch)
        self.slot_touch.append(slot_touch)
        self.targets.append(targets)
        self.counts.append(counts)

    def some_member_survives(self, zmask: int, zedges: tuple[int, ...]) -> bool:
        """True iff some member still dominates once the candidate's edges go;
        an untouched member becomes the front.  The scan only asks about
        candidates that touch the front member."""
        touch = self.touch
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


def _sets_touching_front(
    pool: _DominatingPool,
    slots: Sequence[int],
    firsts: Sequence[int],
    k: int,
    slot_touch: list[int],
    deadline: float | None,
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Yield ``(mask, edge indices)`` for each k-set in the scan that touches
    the pool's front member when the scan reaches it.

    The scan lays edge ``slots[q]`` at position ``q`` and runs over the
    position sets ``q1 < ... < qk`` with ``q1`` in ``firsts``, in
    lexicographic order, as a (k-1)-position prefix plus a last position.
    A set that misses the front member leaves it dominating, so it is
    refuted without a visit: while the prefix misses the front member, a
    bit scan of that member's touch mask over positions (``slot_touch``)
    jumps to the next last position that touches it.  The front is read
    afresh after every yield, since the caller's pool test may move it.
    Prefixes and visited sets both count as steps, and the deadline is
    checked at the first prefix after every 2,048 steps.
    """
    n = len(slots)
    touch = pool.touch
    edge_at = slots.__getitem__
    if k == 1:  # the empty prefix; the set's one position must be in firsts
        prefixes: Iterable[tuple[int, ...]] = [()]
        allowed = 0
        for q in firsts:
            allowed |= 1 << q
    else:  # any position after the prefix may be last
        prefixes = chain.from_iterable(
            map((p,).__add__, combinations(range(p + 1, n), k - 2)) for p in firsts
        )
        allowed = (1 << n) - 1
    front = -1
    steps = 0
    check_at = 2048
    for prefix in prefixes:
        steps += 1
        if deadline is not None and steps >= check_at:
            if time.monotonic() > deadline:
                raise TimeBudgetExceeded(f"deadline hit after {steps} scan steps at size {k}")
            check_at = steps + 2048
        pedges = tuple(map(edge_at, prefix))
        pmask = 0
        for e in pedges:
            pmask |= 1 << e
        q = prefix[-1] + 1 if prefix else 0  # the next last position
        while q < n:
            if pool.front != front:
                front = pool.front
                front_touch = touch[front]
                front_slots = slot_touch[front] & allowed
            if not pmask & front_touch:
                ahead = front_slots >> q
                if not ahead:
                    break
                q += (ahead & -ahead).bit_length() - 1
            e = slots[q]
            q += 1
            steps += 1
            yield pmask | 1 << e, pedges + (e,)


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

    Both scans skip in bulk the sets that miss the pool's front member
    (``_sets_touching_front``): that member still dominates after such a
    removal, so only the sets that touch it are visited.  The pool only
    filters; the exact solver has the final word on survivors.
    ``deadline`` is a ``time.monotonic()`` instant (None: unlimited), checked
    on entry, every 2,048 scan steps and inside each gamma and solver call;
    passing it raises ``TimeBudgetExceeded``.
    """
    _check_entry(deadline)
    edges = graph.edges()
    if max_size <= 0 or not edges:
        return None
    closed = graph.closed_rows()
    full = graph.full_mask
    gamma = gamma_value(graph, deadline=deadline)
    order, starts = _twin_orbits(closed, edges)
    pool = _DominatingPool(graph, edges, order)
    pool.add(_cover_within(closed, full, gamma, deadline))
    n_edges = len(edges)
    plain = range(n_edges)
    survives = pool.some_member_survives
    for k in range(1, min(max_size, n_edges) + 1):
        # the plain scan runs only once a representative of this size raised gamma
        for slots, firsts, slot_touch in (
            (order, starts, pool.slot_touch),
            (plain, plain, pool.touch),
        ):
            scan = _sets_touching_front(pool, slots, firsts, k, slot_touch, deadline)
            for zmask, combo in scan:
                if survives(zmask, combo):
                    continue
                # no pooled set survives; ask the exact solver
                damaged = closed.copy()
                for e in combo:
                    u, v = edges[e]
                    damaged[u] &= ~(1 << v)
                    damaged[v] &= ~(1 << u)
                cover = _cover_within(damaged, full, gamma, deadline)
                if cover is None:
                    break
                pool.add(cover)
            else:
                break  # every candidate refuted: size k holds
            if slots is plain:  # the witness scan met the least bondage set
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

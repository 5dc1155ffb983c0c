"""Exact bondage numbers by iterative-deepening edge-subset search.  The
constructive edge sets that certify the paper's upper bounds are built by
``harness.prescribed_bondage_set``.

Each size is scanned once, in lexicographic order of edge indices, over
only the leaders: the edge sets every prefix of which touches a prefix of
every closed-twin class (closed twins are vertices with equal closed
neighbourhoods; in K_m x T each column is one class), and is mapped to no
smaller set by the mirror, one fixed automorphism (on K_m x P_n the path
reflection; the identity where the vertex reversal is no automorphism).
The least member of every symmetry class of edge sets under twin swaps and
the mirror is a leader, as in orderly generation and isomorph rejection
(Read, Ann. Discrete Math. 2, 1978; McKay, J. Algorithms 26, 1998), so each
size is refuted exhaustively and the first bondage set met is the
lexicographically least of the least size.

The search keeps a pool of minimum dominating sets of the intact graph.  Any
candidate edge set that leaves some pool member dominating cannot have raised
the domination number.  Only an edge with exactly one endpoint in a member
can break its domination; as a bit mask over edges, a member's touch mask is
the XOR of its vertices' incident-edge masks.  So the scan visits only the
sets that touch every member: the sets that miss one are skipped in bulk,
as the last edges of each prefix are narrowed, as one bit mask, to the
edges that touch every member the prefix misses, and a penultimate edge is
taken only when that mask has an edge above it.  For a visited set B the
closed rows of G - B are built, and each member in turn is checked for
domination on them: the OR of its vertices' rows must hold every vertex.
A set that kills every member is tried with a one-vertex repair: a member
with one vertex swapped that dominates G - B shows that B is no bondage
set.  Only when no swap works is the exact solver asked, which keeps the
search exhaustive and exact regardless of pool quality.
The scan is a depth-first search that grows each candidate edge by edge,
popping each next edge from a bit mask of the edges that keep the prefix
touching a prefix of every twin class, and extends a prefix only while it
is a leader itself.  The last two edges are taken in one loop: a prefix
two edges short first drops in bulk the next edges that no admissible last
edge touching every member it misses can complete, then pairs each edge
left with its last edges, with no stack level for the last.

The pool grows lazily, as in the implicit hitting set loop of Chandrasekaran,
Karp, Moreno-Centeno and Vempala (SODA 2011): it starts from one minimum
dominating set, and each cover a repair or the solver finds for a refuted
candidate joins it; the repair is the cheap certificate tried ahead of the
exact oracle.  Removing edges only shrinks neighbourhoods, so a dominating
set of G - B of size <= gamma(G) is a minimum dominating set of G as well.
Before it joins, each member is moved onto the last vertices of its twin
classes in the graph it dominates; a leader touches a prefix of every
class, so it reaches those vertices last.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Sequence

from .domination import TimeBudgetExceeded, _check_entry, _cover_within, gamma_value
from .graphs import Edge, Graph, iter_bits, remove_edges


@dataclass(frozen=True)
class BondageResult:
    value: int
    witness: tuple[Edge, ...]


def is_bondage_set(
    graph: Graph,
    edges: Iterable[tuple[int, int]],
    *,
    deadline: float | None = None,
    gamma: int | None = None,
) -> bool:
    """True iff removing ``edges`` strictly raises the domination number.

    ``deadline`` and ``gamma`` are as in ``find_bondage_set_up_to``; both
    searches check the deadline.
    """
    damaged = remove_edges(graph, edges).closed_rows()
    if gamma is None:
        gamma = gamma_value(graph, deadline=deadline)
    return _cover_within(damaged, graph.full_mask, gamma, deadline) is None


class _DominatingPool:
    """Minimum dominating sets of the intact graph, indexed for the scan.

    ``members[i]`` is the tuple of member ``i``'s vertices.
    ``incident[v]`` is the mask (over edge indices) of the edges at ``v``.
    ``touch[i]`` is the mask of edges with exactly one endpoint in member
    ``i``: the XOR of its vertices' incident masks, in which an edge with
    both endpoints in the member cancels.  Only those removals can break its
    domination, so the scan yields only sets that meet every member's mask.
    ``by_edge[e]``, a mask over member indices, holds the members whose
    touch mask holds ``e``.
    """

    __slots__ = ("edges", "incident", "members", "touch", "by_edge")

    def __init__(self, graph: Graph, edges: Sequence[Edge]):
        self.edges = edges
        self.incident = [0] * graph.order
        for e, (u, v) in enumerate(edges):
            self.incident[u] |= 1 << e
            self.incident[v] |= 1 << e
        self.members: list[tuple[int, ...]] = []
        self.touch: list[int] = []
        self.by_edge = [0] * len(edges)

    def add(self, dmask: int) -> None:
        member = tuple(iter_bits(dmask))
        bit = 1 << len(self.touch)
        touch = 0
        for v in member:
            touch ^= self.incident[v]
        for e in iter_bits(touch):
            self.by_edge[e] |= bit
        self.members.append(member)
        self.touch.append(touch)

    def some_member_survives(self, damaged: Sequence[int], full: int) -> bool:
        """True iff some member dominates the graph with closed rows
        ``damaged``: the OR of its vertices' rows is ``full``."""
        for member in self.members:
            covered = 0
            for v in member:
                covered |= damaged[v]
            if covered == full:
                return True
        return False

    def repair(self, damaged: Sequence[int], full: int) -> int | None:
        """The first ``member - x + z`` that dominates the graph with closed
        rows ``damaged`` (members in index order, then ``x``, then ``z``
        increasing), or None.  It has gamma vertices, so for a candidate B
        it shows that B is no bondage set, as a solver's cover does.

        ``z`` must dominate what the member leaves undominated and what
        only ``x`` dominates; rows are symmetric, so the ``z`` that do are
        the AND of those vertices' rows, and a member whose undominated
        vertices share no row is passed over at once."""
        for member in self.members:
            rows = [damaged[v] for v in member]
            once = twice = 0  # the vertices the member dominates at least once, twice
            for row in rows:
                twice |= once & row
                once |= row
            base = -1  # the z that dominate what the member leaves undominated
            lost = full & ~once
            while lost and base:
                low = lost & -lost
                lost ^= low
                base &= damaged[low.bit_length() - 1]
            if not base:
                continue
            for x, row in zip(member, rows):
                z = base
                alone = row & ~twice  # the vertices only x dominates
                while alone and z:
                    low = alone & -alone
                    alone ^= low
                    z &= damaged[low.bit_length() - 1]
                if z:
                    return sum(1 << v for v in member) ^ (1 << x) | z & -z
        return None


def _twin_classes(rows: Sequence[int]) -> Iterable[list[int]]:
    """The closed-twin classes of the graph with closed rows ``rows``: the
    vertices with equal rows, each class in index order, and the classes in
    order of their least vertex."""
    classes: dict[int, list[int]] = {}
    for v, row in enumerate(rows):
        classes.setdefault(row, []).append(v)
    return classes.values()


def _onto_last_twins(dmask: int, rows: Sequence[int]) -> int:
    """``dmask`` with its vertices in each twin class of ``rows`` moved onto
    the class's last ones: a swap of closed twins is an automorphism."""
    moved = 0
    for members in _twin_classes(rows):
        last = len(members)
        for v in members:  # each vertex held takes the class's next from the end
            if dmask >> v & 1:
                last -= 1
                moved |= 1 << members[last]
    return moved


_Tables = tuple[int, int, list[int], list[int], list[int], list[int]]


def _scan_tables(
    closed: Sequence[int], edges: Sequence[Edge], incident: Sequence[int]
) -> _Tables:
    """The masks ``_sets_touching_pool`` walks: ``(start, reach, opens, links,
    images, prev)``.

    ``closed`` holds the closed rows and ``incident`` the pool's
    incident-edge masks; vertices with equal rows are closed twins, and
    each twin class is ordered by vertex index.  A vertex is open once its
    previous twin is touched, and a class's least vertex is open from the
    start.  An edge is admissible iff both its endpoints are open, or it
    joins an open vertex to that vertex's next twin: exactly the edges that
    keep a set touching a prefix of every class.  For the empty set,
    ``start`` holds the admissible edges, the least edge joining each pair
    of classes, and ``reach`` the edges with an open endpoint.  Touching
    ``v`` opens its next twin ``x``; ``opens[v]`` is the edges incident to
    ``x`` and ``links[v]`` the edge from ``x`` to its own next twin (0
    where there is none).  The tables are built in one pass over the
    classes, opening each least vertex in turn.

    ``prev[v]`` is the bit of ``v``'s previous twin, 0 for a class's least
    vertex.  It gives ``pres(e)``, the previous twins that must be touched
    before ``e = (x, y)`` is admissible: ``{prev(x)}`` for a link from ``x``
    to its next twin, else ``{prev(x), prev(y)}``.

    ``images[e]`` is the bit of ``g(e)``.  If the reversal ``v -> order - 1 -
    v`` is an automorphism, ``g`` follows it by reversing the order inside
    every twin class, so that it maps class prefixes onto class prefixes (on
    K_m x P_n, the path reflection); else ``g`` is the identity.
    """
    order = len(closed)
    width = f"0{order}b"
    mirrored = all(  # each closed row, bit-reversed, is the row of v's mirror
        int(format(closed[v], width)[::-1], 2) == closed[order - 1 - v]
        for v in range((order + 1) // 2)
    )
    image = list(range(order))
    opens = [0] * order
    links = [0] * order
    prev = [0] * order
    start = reach = 0
    for members in _twin_classes(closed):
        inc = [incident[v] for v in members] + [0, 0]
        lead = inc[0]
        start |= lead & reach | lead & inc[1]
        reach |= lead
        for i, v in enumerate(members):
            opens[v] = inc[i + 1]
            links[v] = inc[i + 1] & inc[i + 2]
            if i:
                prev[v] = 1 << members[i - 1]
        if mirrored:
            for v, w in zip(members, reversed(members)):
                image[v] = order - 1 - w
    images = [incident[image[u]] & incident[image[v]] for u, v in edges]
    return start, reach, opens, links, images, prev


def _sets_touching_pool(
    pool: _DominatingPool,
    tables: _Tables,
    k: int,
    deadline: float | None,
) -> Iterator[tuple[int, ...]]:
    """Yield each k-set of edge indices, in lexicographic order, every prefix
    P of which touches a prefix of every twin class and has ``g(P) >= P``,
    and which touches every member the pool holds when the scan reaches it.

    A depth-first search grows each set edge by edge in increasing index.
    Each prefix keeps the vertices it touches, its admissible edges
    (``_scan_tables``) and the edges with an open endpoint, as masks, and
    pops its next edges from the admissible mask above its last edge,
    leaving room for the edges still to come.  Touching a vertex opens its
    next twin ``x``, which makes admissible the edges from ``x`` to an open
    vertex and the edge from ``x`` to its next twin.  A prefix also keeps
    the edge mask ``fm`` of its image under ``g`` and the mask ``diff`` of
    the edges in the prefix or its image but not both.  A set and its image
    have the same size, so an edge is skipped iff the grown prefix's image
    is smaller: iff the lowest edge of the grown ``diff`` is in the grown
    ``fm``.  An equal image is never skipped.

    The last two edges are taken in one loop, with no stack level for the
    last.  A (k-2)-edge prefix keeps ``unhit``, the members it misses, and
    pops each penultimate edge ``e`` that passes the mirror test.  A set
    that misses a member leaves it dominating, so the last edge must touch
    every member in ``unhit`` that ``e`` misses: ``need``, the AND of their
    touch masks, memoised by the member mask for the whole call (a member's
    touch mask never changes once added).  If ``need`` has no edge above
    ``e``, ``e`` is passed over before its admissible edges are worked out;
    else each edge of ``need`` admissible after ``e`` that passes the
    mirror test is yielded as the last.  The pool grows only when the caller
    adds a cover, at a yield, so then ``unhit`` and the rest of ``e``'s last
    edges are narrowed by the new members the prefix misses.

    Before that loop, the penultimate edges are filtered in bulk
    (``completable``).  An edge that touches no member in ``unhit`` leaves
    the last edge to touch all of them, so that edge must lie in
    ``common``, the AND of their touch masks, above ``e`` and admissible
    after ``e``: its ``pres`` (``_scan_tables``) must lie in the vertices
    the prefix touches and the ends of ``e``.  Such an ``e`` is kept iff
    some edge of ``common`` allows it; an edge already admissible allows
    every ``e`` below it, and one not yet admissible only the ``e`` below
    it that touch what its ``pres`` still lacks.  Above the top admissible
    edge of ``common``, the pass runs only when ``common`` has fewer edges
    not yet admissible than there are edges it could drop, so that it
    costs less than the edges' own tests.  Members added later only narrow
    the last edges further, so the filter stays sound.

    Edges that pass the mirror test count as steps: the pushed ones, the
    penultimate ones and the last ones yielded; the edges the bulk filter
    drops are never popped and do not count.  The deadline is checked at
    the first pushed or penultimate step after every 2,048 steps.  At size
    1 there is no penultimate edge: each admissible edge that passes the
    mirror test and touches every member is yielded, and no step counts.
    """
    start, reach, opens, links, images, prev = tables
    edges = pool.edges
    incident = pool.incident
    touch = pool.touch
    by_edge = pool.by_edge
    if k == 1:  # no penultimate edge: every single edge that touches every member
        for e in iter_bits(start):
            image = images[e]
            d = 1 << e ^ image
            if not d & -d & image and by_edge[e] + 1 == 1 << len(touch):
                yield (e,)
        return
    n = len(edges)
    # room[j]: the edges a j-edge prefix may take next, leaving k - 1 - j to come
    room = [(1 << (n - k + 1 + j)) - 1 for j in range(k - 1)]
    levels: list[tuple[int, int, int, int, int, int]] = []
    prefix: list[int] = []
    allowed = start
    vmask = diff = fm = 0
    todo = start & room[0]
    j = 0  # edges in the prefix
    needs: dict[int, int] = {}  # a mask of members -> the AND of their touch masks
    hits: dict[int, int] = {}  # a mask of members -> the OR of their touch masks

    def missed_by(part: list[int]) -> int:
        missed = (1 << len(touch)) - 1
        for p in part:
            missed &= ~by_edge[p]
        return missed

    def needed(missed: int) -> int:
        need = -1
        for i in iter_bits(missed):
            need &= touch[i]
        needs[missed] = need
        return need

    def completable(todo: int, unhit: int, allowed: int, vmask: int) -> int:
        """``todo`` less the penultimate edges that touch no member in
        ``unhit`` and that no admissible last edge can complete."""
        if not unhit:
            return todo
        common = needs.get(unhit)
        if common is None:
            common = needed(unhit)
        free = common & allowed  # the top free edge completes every edge below it
        below = (1 << free.bit_length() - 1) - 1 if free else 0
        late = common & ~allowed & ~below
        if late.bit_count() >= todo.bit_count():  # spare lies in todo, so the pass would not run
            return todo
        hit = hits.get(unhit)
        if hit is None:
            hit = 0
            for i in iter_bits(unhit):
                hit |= touch[i]
            hits[unhit] = hit
        keep = todo & (hit | below)
        spare = todo & ~(hit | below)  # the edges the pass may drop
        if late.bit_count() >= spare.bit_count():
            return todo
        while late and spare:
            low = late & -late
            late ^= low
            ends = spare & low - 1  # the spare edges below f that touch all pres(f) lacks
            x, y = edges[low.bit_length() - 1]
            missing = (prev[x] | prev[y] & ~(1 << x)) & ~vmask  # a link: prev(y) is x
            while missing:
                bit = missing & -missing
                missing ^= bit
                ends &= incident[bit.bit_length() - 1]
            keep |= ends
            spare ^= ends
        return keep

    steps = 0
    check_at = 2048

    def past(steps: int) -> int:
        """Raise once the deadline has passed; else the step count to check at next."""
        if deadline is not None and time.monotonic() > deadline:
            raise TimeBudgetExceeded(f"deadline hit after {steps} scan steps at size {k}")
        return steps + 2048

    while True:
        if j == k - 2:  # the last two edges, in one loop
            pooled = len(touch)
            unhit = missed_by(prefix)
            todo = completable(todo, unhit, allowed, vmask)
            while todo:
                low = todo & -todo
                todo ^= low
                e = low.bit_length() - 1
                image = images[e]
                d = diff ^ low ^ image
                grown_fm = fm | image
                if d & -d & grown_fm:
                    continue
                steps += 1
                if steps >= check_at:
                    check_at = past(steps)
                missed = unhit & ~by_edge[e]
                need = needs.get(missed)
                if need is None:
                    need = needed(missed)
                need = need >> e + 1 << e + 1
                if not need:  # no last edge touches every member missed
                    continue
                u, v = edges[e]
                last, grown_reach = allowed, reach
                if not vmask >> u & 1:
                    last |= opens[u] & grown_reach | links[u]
                    grown_reach |= opens[u]
                if not vmask >> v & 1:
                    last |= opens[v] & grown_reach | links[v]
                last &= need
                while last:
                    low = last & -last
                    last ^= low
                    image = images[low.bit_length() - 1]
                    d_last = d ^ low ^ image
                    if d_last & -d_last & (grown_fm | image):
                        continue
                    steps += 1
                    yield (*prefix, e, low.bit_length() - 1)
                    if pooled != len(touch):  # narrow by the new members the prefix misses
                        new = missed_by(prefix) >> pooled << pooled
                        pooled = len(touch)
                        unhit |= new
                        for i in iter_bits(new & ~by_edge[e]):
                            last &= touch[i]
        elif todo:
            low = todo & -todo
            todo ^= low
            e = low.bit_length() - 1
            image = images[e]
            d = diff ^ low ^ image
            if d & -d & (fm | image):
                continue
            steps += 1
            if steps >= check_at:
                check_at = past(steps)
            levels.append((todo, allowed, reach, vmask, diff, fm))
            u, v = edges[e]
            if not vmask >> u & 1:
                allowed |= opens[u] & reach | links[u]
                reach |= opens[u]
            if not vmask >> v & 1:
                allowed |= opens[v] & reach | links[v]
                reach |= opens[v]
            vmask |= 1 << u | 1 << v
            diff = d
            fm |= image
            prefix.append(e)
            j += 1
            todo = allowed >> e + 1 << e + 1 & room[j]
            continue
        if not j:
            return
        j -= 1
        prefix.pop()
        todo, allowed, reach, vmask, diff, fm = levels.pop()


def find_bondage_set_up_to(
    graph: Graph, k: int, *, deadline: float | None = None, gamma: int | None = None
) -> tuple[Edge, ...] | None:
    """Smallest (then lexicographically least) bondage set of size <= k, or
    None once every size up to k has been refuted.

    The sizes are scanned in turn, each in lexicographic order of edge
    indices, over the leaders (``_sets_touching_pool``): the sets every
    prefix P of which touches a prefix of every closed-twin class and has
    ``g(P) >= P`` for the mirror ``g`` (``_scan_tables``).  Twin swaps and
    ``g`` are automorphisms, which preserve the domination number of G - B,
    so it is enough to scan the least set of every symmetry class, and that
    set is a leader.  Squeezing a set's touched members of each class onto
    the class prefix, in their own order, lowers some vertex and raises
    none: every edge maps to an edge no later, and one to an earlier edge,
    so the image is lexicographically smaller; the least set therefore
    touches a prefix of every class.  Its prefixes pass both tests too: if
    any fixed edge permutation h (a twin swap, or ``g``) maps a prefix P of
    a set B to a smaller set, let x be the least edge of h(P) or P but not
    both; it lies in h(P), every edge of B below x lies in P and so in h(B),
    and x is not in B, so h(B) < B.  As the least bondage set of a size is
    the least of its class, the first bondage set met is the witness.

    The scan skips in bulk the sets that miss some pool member, which still
    dominates after such a removal, so only the sets that touch every member
    are visited.  Each visited set B gets the closed rows of G - B, on which
    ``_DominatingPool.some_member_survives`` checks each member for
    domination.  The pool only filters.  A set B that kills every member
    first gets ``_DominatingPool.repair`` on the same rows: a member with
    one vertex swapped that dominates G - B has gamma vertices, so B is no
    bondage set.  When no swap works, the exact solver has the final word,
    so a bondage set is always confirmed by the solver and the scan stays
    exhaustive.  Each member sits on the last vertices of its twin classes:
    the first on those of G, and a repaired member or solver cover for a
    candidate B on those of G - B.  Swapping closed twins of G - B is an
    automorphism of G - B, so the moved cover still dominates G - B; of size
    gamma, it is a minimum dominating set of G, it survives B as the unmoved
    cover does, and it is new, since B killed every older member.  A leader
    touches a class's last vertex only after all of its twins, so members
    placed there are killed late and the solver is asked less often.

    ``deadline`` is a ``time.monotonic()`` instant (None: unlimited),
    checked on entry, every 2,048 scan steps (the edges that pass the
    mirror test, pushed, penultimate or last; ``_sets_touching_pool``) and
    inside each gamma and solver call; passing it raises
    ``TimeBudgetExceeded``.  ``gamma``, the domination number of
    ``graph``, is computed when not given.
    """
    _check_entry(deadline, "bondage scan")
    edges = graph.edges()
    if k <= 0 or not edges:
        return None
    closed = graph.closed_rows()
    full = graph.full_mask
    if gamma is None:
        gamma = gamma_value(graph, deadline=deadline)
    pool = _DominatingPool(graph, edges)
    tables = _scan_tables(closed, edges, pool.incident)
    pool.add(_onto_last_twins(_cover_within(closed, full, gamma, deadline), closed))
    survives = pool.some_member_survives
    scan = chain.from_iterable(
        _sets_touching_pool(pool, tables, size, deadline)
        for size in range(1, min(k, len(edges)) + 1)
    )
    for combo in scan:
        damaged = closed.copy()
        for e in combo:
            u, v = edges[e]
            damaged[u] &= ~(1 << v)
            damaged[v] &= ~(1 << u)
        if survives(damaged, full):
            continue
        cover = pool.repair(damaged, full)
        if cover is None:  # no one-vertex swap of a member works; ask the exact solver
            cover = _cover_within(damaged, full, gamma, deadline)
            if cover is None:
                return tuple(edges[e] for e in combo)
        pool.add(_onto_last_twins(cover, damaged))
    return None


def bondage_number(graph: Graph, *, deadline: float | None = None) -> BondageResult:
    """Exact bondage number with a minimum witness.

    Iterative deepening over subset sizes in one lexicographic scan of the
    sorted edge list (``find_bondage_set_up_to``), so the witness is the
    lexicographically least minimum bondage set.  The scan may run up to
    every edge, and removing every edge raises gamma to the order, so a
    graph with an edge always has one.  ``deadline`` is as in
    ``find_bondage_set_up_to``.
    """
    edges = graph.edges()
    if not edges:
        raise ValueError("an edgeless graph has no bondage set")
    witness = find_bondage_set_up_to(graph, len(edges), deadline=deadline)
    if witness is None:
        raise AssertionError("no bondage set among all edge sets")
    return BondageResult(len(witness), witness)

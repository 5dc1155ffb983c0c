"""Exact minimum domination.

One bounded cover search, ``_cover_within``, answers every exact domination
question: ``gamma_value`` runs it downward from the greedy cover size, and the
bondage scan runs it at gamma on each damaged graph.  It branches on the
least-coverable uncovered vertex, read off width classes (vertex masks by
closed-row popcount, narrowest first) built once per call, and tests each
child inline, so a child that completes the cover, or a failed last pick,
costs no call.  One pruned lexicographic search, ``_covers_in_lex_order``,
yields the lexicographically least witness.

Both searches take an optional ``deadline`` (a ``time.monotonic()`` instant,
None for unlimited), checked on entry and then every 1,024 branching nodes of
the cover search or every 1,024 nodes of the lexicographic search, and by
the greedy pass between picks once it has scanned 1,024 rows since its last
check; passing it raises ``TimeBudgetExceeded``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .graphs import Graph

class TimeBudgetExceeded(RuntimeError):
    """A search ran past its wall-clock deadline."""


def _check_entry(deadline: float | None, search: str) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise TimeBudgetExceeded(f"deadline hit on entry to the {search}")


def _deadline(budget_seconds: float | None) -> float | None:
    """Monotonic-clock deadline for a wall budget in seconds; None is unlimited."""
    if budget_seconds is None:
        return None
    if not budget_seconds > 0:
        raise ValueError(f"budget must be positive, got {budget_seconds}")
    return time.monotonic() + budget_seconds


@dataclass(frozen=True)
class GammaResult:
    value: int
    witness: tuple[int, ...]


def is_dominating(graph: Graph, vertices: Iterable[int]) -> bool:
    """True iff every vertex of the graph is in the set or adjacent to a member."""
    closed = graph.closed_rows()
    covered = 0
    for v in set(vertices):
        if not 0 <= v < graph.order:
            raise ValueError(f"vertex {v} out of range")
        covered |= closed[v]
    return covered == graph.full_mask


def _greedy_cover_size(closed: Sequence[int], full: int, deadline: float | None = None) -> int:
    covered = count = scanned = 0
    while covered != full:
        if deadline is not None and scanned >= 1024:
            if time.monotonic() > deadline:
                raise TimeBudgetExceeded(f"deadline hit after {count} greedy picks")
            scanned = 0
        scanned += len(closed)
        best_gain, best = -1, 0
        for row in closed:
            gain = (row & ~covered).bit_count()
            if gain > best_gain:
                best_gain, best = gain, row
        covered |= best
        count += 1
    return count


def _cover_within(
    closed: Sequence[int], full: int, limit: int, deadline: float | None = None
) -> int | None:
    """Mask of a dominating set of size <= limit, or None if there is none.

    Branches over the closed neighbourhood of the least-coverable uncovered
    vertex (fewest closed neighbours, least index on ties): any dominating
    set must contain one of them, so the search is complete.  The vertices
    are grouped once per call into masks by closed-row width, narrowest
    first, so the branching vertex is the lowest uncovered bit of the first
    class that meets the uncovered set.  Each child is tested before it is
    searched: one that completes the cover returns at once, and on the last
    pick no call is made for one that does not.  The deadline is checked
    every 1,024 branching nodes.  The mask can be 0 (the empty graph), so
    callers test ``is None``.
    """
    _check_entry(deadline, "cover search")
    if limit >= len(closed):
        return full
    if not full:
        return 0
    if limit <= 0:
        return None
    by_width: dict[int, int] = {}
    for v, row in enumerate(closed):
        width = row.bit_count()
        by_width[width] = by_width.get(width, 0) | 1 << v
    classes = [by_width[width] for width in sorted(by_width)]
    nodes = 0

    def rec(covered: int, remaining: int) -> int | None:
        # covered != full and remaining >= 1: a branching node
        nonlocal nodes
        if deadline is not None:
            nodes += 1
            if not nodes & 1023 and time.monotonic() > deadline:
                raise TimeBudgetExceeded(f"deadline hit after {nodes} cover-search nodes")
        uncovered = full & ~covered
        for members in classes:
            hit = members & uncovered
            if hit:
                break
        candidates = closed[(hit & -hit).bit_length() - 1]
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            after = covered | closed[low.bit_length() - 1]
            if after == full:
                return low
            if remaining > 1:
                got = rec(after, remaining - 1)
                if got is not None:
                    return got | low
        return None

    return rec(0, limit)


def gamma_value(graph: Graph, *, deadline: float | None = None) -> int:
    """Exact domination number without witness construction (the fast path).

    Starts from the greedy cover size and asks the bounded cover search for
    a smaller cover until it finds none.
    """
    if graph.order == 0:
        raise ValueError("domination number needs at least one vertex")
    closed, full = graph.closed_rows(), graph.full_mask
    best = _greedy_cover_size(closed, full, deadline)
    while (cover := _cover_within(closed, full, best - 1, deadline)) is not None:
        best = cover.bit_count()
    return best


def _covers_in_lex_order(
    closed: Sequence[int], full: int, size: int, deadline: float | None = None
) -> Iterator[tuple[int, ...]]:
    """Every dominating set of exactly ``size`` vertices, in lexicographic order.

    Depth-first search that adds vertices in increasing order and visits
    children in increasing order, so each set is a sorted tuple and the sets
    come out in the order of a plain subset scan over that size.  A branch
    is cut only when no completion exists: some uncovered vertex has no
    closed neighbour at or above the next index, or the uncovered vertices
    outnumber what the remaining picks can cover at best.
    """
    _check_entry(deadline, "witness search")
    order = len(closed)
    nodes = 0
    reach = [0] * (order + 1)  # reach[i]: OR of closed[i:]
    widest = [0] * (order + 1)  # widest[i]: most bits of any closed[j], j >= i
    acc = wide = 0
    for i in range(order - 1, -1, -1):
        row = closed[i]
        acc |= row
        if row.bit_count() > wide:
            wide = row.bit_count()
        reach[i], widest[i] = acc, wide

    def rec(
        start: int, covered: int, chosen: tuple[int, ...]
    ) -> Iterator[tuple[int, ...]]:
        nonlocal nodes
        if deadline is not None:
            nodes += 1
            if not nodes & 1023 and time.monotonic() > deadline:
                raise TimeBudgetExceeded(f"deadline hit after {nodes} witness-search nodes")
        remaining = size - len(chosen)
        uncovered = full & ~covered
        if remaining == 0:
            if not uncovered:
                yield chosen
            return
        # uncovered lies inside reach[start]: reach[0] is full, and the loop keeps it so
        if uncovered.bit_count() > remaining * widest[start]:
            return
        for v in range(start, order - remaining + 1):
            yield from rec(v + 1, covered | closed[v], chosen + (v,))
            if uncovered & ~reach[v + 1]:
                return

    return rec(0, 0, ())


def domination_number(graph: Graph, *, deadline: float | None = None) -> GammaResult:
    """Exact domination number with the lexicographically least minimum witness.

    The value comes from the bounded cover search run downward from the
    greedy size; the witness is the first set of that size the pruned
    lexicographic search yields.
    """
    value = gamma_value(graph, deadline=deadline)
    covers = _covers_in_lex_order(graph.closed_rows(), graph.full_mask, value, deadline)
    witness = next(covers, None)
    if witness is None:
        raise AssertionError("no witness found at the exact domination number")
    return GammaResult(value, witness)


"""Node-by-node reference for ``domination._cover_within``.

The same bounded cover search as the package's, written with a per-node
scan for the branching vertex and one call per child, leaves included.  The
package picks the branching vertex from width classes built once per call
and tests each child before searching it, so the mask it returns, or None,
must equal this search's at every limit.
"""

from __future__ import annotations

from typing import Sequence

from strongdom.graphs import iter_bits


def _pick_uncovered(closed: Sequence[int], uncovered: int) -> int:
    """Uncovered vertex with the fewest closed-neighbourhood candidates."""
    best, best_width = -1, 1 << 62
    while uncovered:
        low = uncovered & -uncovered
        w = low.bit_length() - 1
        uncovered ^= low
        width = closed[w].bit_count()
        if width < best_width:
            best, best_width = w, width
    return best


def reference_cover_within(closed: Sequence[int], full: int, limit: int) -> int | None:
    """Mask of a dominating set of size <= limit, or None if there is none."""
    if limit >= len(closed):
        return full

    def rec(covered: int, remaining: int) -> int | None:
        if covered == full:
            return 0
        if remaining == 0:
            return None
        v = _pick_uncovered(closed, full & ~covered)
        for u in iter_bits(closed[v]):
            got = rec(covered | closed[u], remaining - 1)
            if got is not None:
                return got | 1 << u
        return None

    return rec(0, max(limit, 0))

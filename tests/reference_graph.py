"""Reference constructions for ``graphs.Graph`` and ``graphs.strong_product``.

``check_rows`` is the row check that ``Graph`` made before its symmetry test
visited each edge once: the range and self-loop bit of every row first, then
symmetry pair by pair, rows in order and each row's bits lowest first.  So
the first error it raises is the one ``Graph`` must raise, word for word.
``reference_strong_product`` builds the product from its definition, one
pair of vertices at a time, and ``reference_edges`` lists edges by testing
every pair.
"""

from __future__ import annotations

from typing import Sequence


def check_rows(order: int, rows: Sequence[int]) -> None:
    """Raise the ``ValueError`` that ``Graph(order, rows)`` must raise, if any."""
    if order < 0:
        raise ValueError("order must be non-negative")
    if len(rows) != order:
        raise ValueError("adjacency needs exactly one bit row per vertex")
    width = (1 << order) - 1
    for v, row in enumerate(rows):
        if row & ~width:
            raise ValueError(f"row {v} has bits outside 0..{order - 1}")
        if row >> v & 1:
            raise ValueError(f"self-loop at vertex {v}")
    for v, row in enumerate(rows):
        for u in range(order):
            if row >> u & 1 and not rows[u] >> v & 1:
                raise ValueError(f"adjacency not symmetric at {u}-{v}")


def reference_strong_product(left: Sequence[int], right: Sequence[int]) -> tuple[int, ...]:
    """Rows of the strong product of two row tuples, (g, h) at g * len(right) + h.

    (g1, h1) ~ (g2, h2) iff they differ and each coordinate pair is equal or
    adjacent in its factor.
    """
    n = len(right)

    def near(rows: Sequence[int], a: int, b: int) -> bool:
        return a == b or bool(rows[a] >> b & 1)

    out = []
    for g1 in range(len(left)):
        for h1 in range(n):
            row = 0
            for g2 in range(len(left)):
                for h2 in range(n):
                    if (g1, h1) != (g2, h2) and near(left, g1, g2) and near(right, h1, h2):
                        row |= 1 << (g2 * n + h2)
            out.append(row)
    return tuple(out)


def reference_edges(rows: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """Every pair u < v whose bit is set in row u, in (u, v) order."""
    order = len(rows)
    return tuple((u, v) for u in range(order) for v in range(u + 1, order) if rows[u] >> v & 1)

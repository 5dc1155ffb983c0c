"""Bit-row graphs, graph families, strong products, and the edge-list text format.

Vertices are 0-based ints everywhere.  A graph is an immutable value whose
``rows[v]`` is the neighbour bitmask of vertex ``v``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

Edge = tuple[int, int]


def iter_bits(mask: int) -> Iterator[int]:
    """Set bit positions of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def normalize_edge(u: int, v: int) -> Edge:
    if u == v:
        raise ValueError(f"self-loop {u}-{v} is not an edge")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices ``0..order-1`` with bit-row adjacency.

    Immutable after construction; every operation in this module returns a
    fresh value, so graphs can be shared freely between threads or processes.

    Construction checks every row's range and self-loop bit, then symmetry,
    visiting each edge once: row v tests each bit u above v against row u and
    records v in ``mirrored[u]``, so row v's bits below v must equal
    ``mirrored[v]``.  The first asymmetric pair in row order is reported.
    """

    order: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.order < 0:
            raise ValueError("order must be non-negative")
        rows = self.rows
        if len(rows) != self.order:
            raise ValueError("adjacency needs exactly one bit row per vertex")
        width = (1 << self.order) - 1
        for v, row in enumerate(rows):
            if row & ~width:
                raise ValueError(f"row {v} has bits outside 0..{self.order - 1}")
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
        mirrored = [0] * self.order  # mirrored[u]: the rows v < u that hold u, each checked
        bit = 1
        for v, row in enumerate(rows):
            # row v's bits below v that no earlier row mirrors (each one is
            # asymmetric), then its bits above v, each tested against its row
            rest = ((row & (bit - 1)) ^ mirrored[v]) | (row & -bit)
            while rest:
                low = rest & -rest
                u = low.bit_length() - 1
                if not rows[u] & bit:
                    raise ValueError(f"adjacency not symmetric at {u}-{v}")
                mirrored[u] |= bit
                rest ^= low
            bit <<= 1

    @classmethod
    def from_edges(cls, order: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * order
        for u, v in edges:
            u, v = normalize_edge(u, v)
            if not 0 <= u < order or v >= order:
                raise ValueError(f"edge {u}-{v} out of range for order {order}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(order, tuple(rows))

    @property
    def full_mask(self) -> int:
        return (1 << self.order) - 1

    def closed_rows(self) -> list[int]:
        """Closed-neighbourhood masks, ``rows[v] | {v}``."""
        return [row | (1 << v) for v, row in enumerate(self.rows)]

    def has_edge(self, u: int, v: int) -> bool:
        return u != v and bool(self.rows[u] >> v & 1)

    def edges(self) -> tuple[Edge, ...]:
        """All edges as (u, v) with u < v, sorted by (min endpoint, max endpoint)."""
        out: list[Edge] = []
        for u, row in enumerate(self.rows):
            above = row >> (u + 1) << (u + 1)
            while above:
                low = above & -above
                out.append((u, low.bit_length() - 1))
                above ^= low
        return tuple(out)


def complete_graph(m: int) -> Graph:
    """All-pairs graph on ``m`` vertices."""
    if m < 1:
        raise ValueError("a complete graph needs at least one vertex")
    full = (1 << m) - 1
    return Graph(m, tuple(full ^ (1 << v) for v in range(m)))


def path_graph(n: int) -> Graph:
    """Path 0-1-...-(n-1)."""
    if n < 1:
        raise ValueError("a path needs at least one vertex")
    full = (1 << n) - 1
    return Graph(n, tuple(0b101 << v >> 1 & full for v in range(n)))  # bits v - 1, v + 1


@dataclass(frozen=True)
class StarlikeSpec:
    """Branch lengths of a tree whose centre removal leaves disjoint paths.

    Labelling: the centre is vertex 0; branch ``i`` (1-based, declaration
    order) occupies the next ``branches[i-1]`` indices, nearest-to-centre
    vertex first.
    """

    branches: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "branches", tuple(int(b) for b in self.branches))
        if not self.branches:
            raise ValueError("a starlike tree needs at least one branch")
        if any(b < 1 for b in self.branches):
            raise ValueError("branch lengths must be positive")

    @property
    def branch_count(self) -> int:
        return len(self.branches)

    @property
    def order(self) -> int:
        return 1 + sum(self.branches)

    @property
    def center(self) -> int:
        return 0

    def branch_vertices(self, i: int) -> tuple[int, ...]:
        """Vertices of branch ``i`` (1-based), nearest to the centre first."""
        if not 1 <= i <= self.branch_count:
            raise ValueError(f"branch index {i} out of range 1..{self.branch_count}")
        start = 1 + sum(self.branches[: i - 1])
        return tuple(range(start, start + self.branches[i - 1]))

    def label(self) -> str:
        return "S(" + ",".join(map(str, self.branches)) + ")"


def starlike_tree(spec: StarlikeSpec) -> Graph:
    """Tree realising ``spec`` under its documented labelling."""
    edges: list[Edge] = []
    for i in range(1, spec.branch_count + 1):
        verts = spec.branch_vertices(i)
        edges.append((0, verts[0]))
        edges.extend(zip(verts, verts[1:]))
    return Graph.from_edges(spec.order, edges)


@dataclass(frozen=True)
class ProductIndexing:
    """Row-major bijection (g, h) <-> g * right_order + h for a product graph.

    The flat layout makes the column over each right-factor vertex a
    fixed-stride set, cheap to materialise.
    """

    left_order: int
    right_order: int

    def __post_init__(self) -> None:
        if self.left_order < 1 or self.right_order < 1:
            raise ValueError("both factors need at least one vertex")

    @property
    def order(self) -> int:
        return self.left_order * self.right_order

    def flat(self, g: int, h: int) -> int:
        if not 0 <= g < self.left_order or not 0 <= h < self.right_order:
            raise ValueError(f"pair ({g}, {h}) out of range")
        return g * self.right_order + h

    def pair(self, v: int) -> tuple[int, int]:
        if not 0 <= v < self.order:
            raise ValueError(f"flat index {v} out of range")
        return divmod(v, self.right_order)

    def column(self, h: int) -> tuple[int, ...]:
        """All product vertices over right-factor vertex ``h``."""
        if not 0 <= h < self.right_order:
            raise ValueError(f"right-factor vertex {h} out of range")
        return tuple(g * self.right_order + h for g in range(self.left_order))


def strong_product(left: Graph, right: Graph) -> tuple[Graph, ProductIndexing]:
    """Product graph in which closed neighbourhoods multiply.

    (g1, h1) ~ (g2, h2) iff the coordinates are equal or adjacent in their
    factors, and the two vertices are distinct.  Returns the graph together
    with the indexing used to lay out the vertex pairs.

    The closed row of (g, h) is right's closed row of h times the mask with
    bit g2 * n for each g2 in g's closed row.  Left vertices with equal closed
    rows share that block of n rows, built once (K_m has one); each vertex
    then clears its own bit.
    """
    if left.order == 0 or right.order == 0:
        raise ValueError("strong product needs non-empty factors")
    idx = ProductIndexing(left.order, right.order)
    n = right.order
    right_closed = right.closed_rows()
    blocks: dict[int, list[int]] = {}
    rows: list[int] = []
    own = 1  # bit g * n + h of the vertex whose row comes next
    for g_closed in left.closed_rows():
        block = blocks.get(g_closed)
        if block is None:
            slots = sum(1 << g2 * n for g2 in iter_bits(g_closed))
            block = blocks[g_closed] = [closed * slots for closed in right_closed]
        for closed in block:
            rows.append(closed ^ own)
            own <<= 1
    return Graph(idx.order, tuple(rows)), idx


def remove_edges(graph: Graph, removed: Iterable[tuple[int, int]]) -> Graph:
    """Copy of ``graph`` without the given edges; rejects non-edges."""
    rows = list(graph.rows)
    seen: set[Edge] = set()
    for u, v in removed:
        e = normalize_edge(u, v)
        if not graph.has_edge(*e):
            raise ValueError(f"{e[0]}-{e[1]} is not an edge of the graph")
        if e in seen:
            continue
        seen.add(e)
        rows[e[0]] &= ~(1 << e[1])
        rows[e[1]] &= ~(1 << e[0])
    return Graph(graph.order, tuple(rows))


class GraphTextError(ValueError):
    """Malformed graph text; carries the 1-based offending line number."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def parse_graph_text(text: str) -> Graph:
    """Parse the edge-list text format.

    Line 1 is the vertex count; every further non-blank line is "u v" with
    0-based endpoints.  Lines starting with "#" are ignored.  Self-loops,
    duplicate edges (in either orientation), out-of-range endpoints and
    malformed lines are rejected with the line number.
    """
    order: int | None = None
    seen: set[Edge] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if order is None:
            try:
                order = int(line)
            except ValueError:
                raise GraphTextError(line_no, f"expected vertex count, got {raw!r}") from None
            if order < 0:
                raise GraphTextError(line_no, "vertex count must be non-negative")
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphTextError(line_no, f"expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphTextError(line_no, f"endpoints must be integers, got {raw!r}") from None
        if u == v:
            raise GraphTextError(line_no, f"self-loop {u} {v}")
        if not (0 <= u < order and 0 <= v < order):
            raise GraphTextError(line_no, f"endpoint out of range 0..{order - 1}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise GraphTextError(line_no, f"duplicate edge {u} {v}")
        seen.add(e)
    if order is None:
        raise GraphTextError(1, "missing vertex count line")
    return Graph.from_edges(order, sorted(seen))


def render_graph_text(graph: Graph) -> str:
    lines = [str(graph.order)]
    lines.extend(f"{u} {v}" for u, v in graph.edges())
    return "\n".join(lines) + "\n"


def parse_graph_file(path: str) -> Graph:
    """Read a graph from a text-format file; diagnostics carry line numbers."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph_text(fh.read())

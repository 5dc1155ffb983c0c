import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongdom.graphs import (
    Graph,
    GraphTextError,
    StarlikeSpec,
    complete_graph,
    parse_graph_text,
    path_graph,
    remove_edges,
    render_graph_text,
    starlike_tree,
    strong_product,
)

from brute import strong_product_edge_count
from reference_graph import check_rows, reference_edges, reference_strong_product


@st.composite
def graphs(draw, min_order=1, max_order=6):
    order = draw(st.integers(min_order, max_order))
    possible = [(u, v) for u in range(order) for v in range(u + 1, order)]
    if possible:
        edges = draw(st.lists(st.sampled_from(possible), unique=True))
    else:
        edges = []
    return Graph.from_edges(order, edges)


def degrees(g: Graph) -> list[int]:
    return [row.bit_count() for row in g.rows]


def test_complete_graph_examples():
    assert len(complete_graph(1).edges()) == 0
    assert len(complete_graph(4).edges()) == 6
    assert degrees(complete_graph(5)) == [4] * 5
    with pytest.raises(ValueError):
        complete_graph(0)


def test_path_graph_examples():
    assert len(path_graph(1).edges()) == 0
    assert len(path_graph(2).edges()) == 1
    assert degrees(path_graph(5)) == [1, 2, 2, 2, 1]
    with pytest.raises(ValueError):
        path_graph(0)


# (order, rows, the exact message of the ValueError)
INVALID_ROWS = [
    (-1, (), "order must be non-negative"),
    (2, (0b10,), "adjacency needs exactly one bit row per vertex"),
    (2, (0b01, 0b10), "self-loop at vertex 0"),
    (1, (0b10,), "row 0 has bits outside 0..0"),
    (2, (0b10, 0b00), "adjacency not symmetric at 1-0"),
    # a bit below the diagonal with no mirror above it
    (2, (0b00, 0b01), "adjacency not symmetric at 0-1"),
    # in one row, the unmirrored bit below v comes before the one above
    (4, (0b0000, 0b0000, 0b1001, 0b0000), "adjacency not symmetric at 0-2"),
    (3, (0b110, 0b101, 0b001), "adjacency not symmetric at 2-1"),
    # every row's range and self-loop bit is checked before any symmetry
    (3, (0b010, 0b000, 0b1000), "row 2 has bits outside 0..2"),
    (3, (0b010, 0b000, 0b100), "self-loop at vertex 2"),
]


def test_graph_validation():
    for order, rows, message in INVALID_ROWS:
        with pytest.raises(ValueError) as err:
            Graph(order, rows)
        assert str(err.value) == message, (order, rows)


@st.composite
def row_tuples(draw, max_order=8):
    """A symmetric row tuple with a few bits flipped, set on the diagonal or
    set past the last vertex, so that every check of ``Graph`` can fire."""
    order = draw(st.integers(0, max_order))
    rows = [0] * order
    for u in range(order):
        for v in range(u + 1, order):
            if draw(st.booleans()):
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    if order:
        vertex = st.integers(0, order - 1)
        kinds = st.sampled_from("fffso")  # flip an off-diagonal bit, self-loop, out of range
        for kind, v in draw(st.lists(st.tuples(kinds, vertex), max_size=3)):
            if kind == "s":
                rows[v] |= 1 << v
            elif kind == "o":
                rows[v] |= 1 << (order + draw(st.integers(0, 2)))
            elif order > 1:
                rows[v] ^= 1 << (v + draw(st.integers(1, order - 1))) % order
    return order, tuple(rows)


def _outcome(build, order, rows):
    try:
        build(order, rows)
    except ValueError as err:
        return str(err)
    return None


@given(row_tuples())
@settings(max_examples=400)
def test_graph_checks_rows_like_the_reference(case):
    order, rows = case
    assert _outcome(Graph, order, rows) == _outcome(check_rows, order, rows)


@given(graphs(min_order=0, max_order=9))
def test_edges_match_the_reference(g):
    assert g.edges() == reference_edges(g.rows)


@st.composite
def twin_factors(draw):
    """A non-complete graph in which some vertices are closed twins: classes
    0 and 1 of a quotient graph are never adjacent, and each class of 1 to 3
    vertices is a clique joined to every vertex of each adjacent class."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    pairs = [(a, b) for b in range(2, len(sizes)) for a in range(b)]  # all but (0, 1)
    joined = set(draw(st.lists(st.sampled_from(pairs), unique=True))) if pairs else set()
    cls = [c for c, size in enumerate(sizes) for _ in range(size)]
    edges = [
        (u, v)
        for u in range(len(cls))
        for v in range(u + 1, len(cls))
        if cls[u] == cls[v] or (cls[u], cls[v]) in joined
    ]
    perm = draw(st.permutations(range(len(cls))))
    return Graph.from_edges(len(cls), [(perm[u], perm[v]) for u, v in edges])


@given(twin_factors(), graphs(max_order=5))
@settings(max_examples=150)
def test_strong_product_matches_the_definition(left, right):
    prod, _ = strong_product(left, right)
    assert prod.rows == reference_strong_product(left.rows, right.rows)


def test_starlike_spec_labels():
    spec = StarlikeSpec((2, 3, 1))
    assert spec.order == 7
    assert spec.branch_vertices(1) == (1, 2)
    assert spec.branch_vertices(2) == (3, 4, 5)
    assert spec.branch_vertices(3) == (6,)
    for i in (0, 4):
        with pytest.raises(ValueError):
            spec.branch_vertices(i)
    with pytest.raises(ValueError):
        StarlikeSpec(())
    with pytest.raises(ValueError):
        StarlikeSpec((2, 0))


def test_star_graph_examples():
    # a star is the starlike tree whose branches all have length 1:
    # centre 0 joined to leaves 1..k
    s3 = starlike_tree(StarlikeSpec((1, 1, 1)))
    assert s3.rows == Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]).rows
    assert degrees(s3) == [3, 1, 1, 1]
    # the star with two leaves is a 3-path centred on the hub
    s2 = starlike_tree(StarlikeSpec((1, 1)))
    assert len(s2.edges()) == 2
    assert degrees(s2) == [2, 1, 1]


def test_starlike_tree_examples():
    # S(2,2) is a 5-path with the centre in the middle
    s22 = starlike_tree(StarlikeSpec((2, 2)))
    expected = Graph.from_edges(5, [(0, 1), (1, 2), (0, 3), (3, 4)])
    assert s22.rows == expected.rows
    assert sorted(degrees(s22)) == [1, 1, 2, 2, 2]

    s33 = starlike_tree(StarlikeSpec((3, 3)))
    assert s33.order == 7
    assert len(s33.edges()) == 6
    assert degrees(s33)[0] == 2


@given(st.lists(st.integers(1, 4), min_size=1, max_size=4))
def test_starlike_tree_invariants(branches):
    spec = StarlikeSpec(tuple(branches))
    tree = starlike_tree(spec)
    assert tree.order == 1 + sum(branches)
    assert len(tree.edges()) == sum(branches)
    assert all(d <= 2 for d in degrees(tree)[1:])


def test_strong_product_unit_factor():
    for h in (path_graph(5), starlike_tree(StarlikeSpec((1, 1, 1))), complete_graph(4)):
        prod, _ = strong_product(complete_graph(1), h)
        assert prod.rows == h.rows


def test_strong_product_with_single_edge_is_complete():
    for m in (1, 2, 3, 4):
        prod, _ = strong_product(complete_graph(m), path_graph(2))
        assert prod.rows == complete_graph(2 * m).rows


def test_strong_product_k3_p4_edge_count():
    left, right = complete_graph(3), path_graph(4)
    prod, _ = strong_product(left, right)
    assert strong_product_edge_count(left, right) == 39
    assert len(prod.edges()) == 39


@given(graphs(), graphs())
@settings(max_examples=60)
def test_strong_product_degree_law_and_edge_count(left, right):
    prod, idx = strong_product(left, right)
    assert prod.order == left.order * right.order
    for g in range(left.order):
        for h in range(right.order):
            dg, dh = left.rows[g].bit_count(), right.rows[h].bit_count()
            assert prod.rows[idx.flat(g, h)].bit_count() == dg + dh + dg * dh
    assert len(prod.edges()) == strong_product_edge_count(left, right)


def test_strong_product_rejects_empty_factor():
    with pytest.raises(ValueError):
        strong_product(Graph(0, ()), path_graph(2))


def test_column_members():
    _, idx = strong_product(complete_graph(3), path_graph(4))
    assert idx.column(0) == (0, 4, 8)
    assert all(idx.pair(v)[1] == 2 for v in idx.column(2))


def test_remove_edges():
    g = complete_graph(3)
    assert remove_edges(g, []).rows == g.rows
    bare = remove_edges(g, g.edges())
    assert len(bare.edges()) == 0
    assert len(g.edges()) == 3  # input untouched

    p3 = path_graph(3)
    cut = remove_edges(p3, [(0, 1)])
    assert cut.rows[0].bit_count() == 0
    assert cut.has_edge(1, 2)
    with pytest.raises(ValueError):
        remove_edges(p3, [(0, 2)])


def test_induced_block_is_complete():
    prod, idx = strong_product(complete_graph(3), path_graph(4))
    column = idx.column(1)
    assert all(prod.has_edge(u, v) for u in column for v in column if u != v)


def test_parse_graph_text_examples():
    assert parse_graph_text("3\n0 1\n1 2\n").rows == path_graph(3).rows
    lonely = parse_graph_text("2\n")
    assert lonely.order == 2 and len(lonely.edges()) == 0
    commented = parse_graph_text("# header\n3\n# middle\n0 1\n")
    assert len(commented.edges()) == 1


@pytest.mark.parametrize(
    "text, line_no",
    [
        ("3\n0 0\n", 2),
        ("3\n0 1\n1 0\n", 3),
        ("3\n0 9\n", 2),
        ("3\nx y\n", 2),
        ("3\n0 1 2\n", 2),
        ("nope\n", 1),
        ("", 1),
    ],
)
def test_parse_graph_text_errors(text, line_no):
    with pytest.raises(GraphTextError) as err:
        parse_graph_text(text)
    assert err.value.line_no == line_no


@given(graphs(min_order=1, max_order=8))
def test_graph_text_round_trip(g):
    assert parse_graph_text(render_graph_text(g)).rows == g.rows


def test_large_graph_capacity():
    # bit rows must scale to at least 128 vertices
    prod, idx = strong_product(complete_graph(8), path_graph(16))
    assert prod.order == 128
    assert prod.rows[idx.flat(3, 8)].bit_count() == 7 + 2 + 14
    assert len(prod.edges()) == strong_product_edge_count(complete_graph(8), path_graph(16))

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongdom.domination import (
    TimeBudgetExceeded,
    _cover_within,
    _covers_in_lex_order,
    domination_number,
    gamma_value,
    is_dominating,
)
from strongdom.graphs import (
    Graph,
    StarlikeSpec,
    complete_graph,
    iter_bits,
    path_graph,
    remove_edges,
    starlike_tree,
    strong_product,
)

from brute import (
    brute_gamma,
    brute_min_dominating_sets,
    brute_two_packing,
    random_graph,
    random_tree,
)
import random

from reference_cover import reference_cover_within
from test_bondage import graphs_with_planted_twins
from ticking_clock import ticking_time


@st.composite
def graphs(draw, min_order=1, max_order=8):
    order = draw(st.integers(min_order, max_order))
    possible = [(u, v) for u in range(order) for v in range(u + 1, order)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True)) if possible else []
    return Graph.from_edges(order, edges)


def test_is_dominating_basics():
    g = path_graph(4)
    assert is_dominating(g, range(4))
    assert not is_dominating(g, [])
    assert is_dominating(g, [1, 3])
    assert not is_dominating(g, [0])
    with pytest.raises(ValueError):
        is_dominating(g, [7])


def test_middle_column_dominates_product():
    prod, idx = strong_product(complete_graph(3), path_graph(3))
    for g in range(3):
        assert is_dominating(prod, [idx.flat(g, 1)])


def test_gamma_path_values():
    for n in range(1, 16):
        assert gamma_value(path_graph(n)) == (n + 2) // 3


def test_gamma_examples():
    assert domination_number(path_graph(4)).value == 2
    assert domination_number(complete_graph(5)) .value == 1
    prod, _ = strong_product(complete_graph(3), path_graph(7))
    assert domination_number(prod).value == 3


def test_witness_dominates_and_is_lex_least():
    star = starlike_tree(StarlikeSpec((1,) * 4))
    for g in (path_graph(7), star, strong_product(complete_graph(2), path_graph(4))[0]):
        result = domination_number(g)
        assert is_dominating(g, result.witness)
        assert result.witness == min(brute_min_dominating_sets(g))


def test_empty_graph_rejected():
    with pytest.raises(ValueError):
        gamma_value(Graph(0, ()))


def min_dominating_sets(g):
    """Every minimum dominating set, from the witness search run to the end."""
    return list(_covers_in_lex_order(g.closed_rows(), g.full_mask, gamma_value(g)))


def test_enumerate_examples():
    assert min_dominating_sets(path_graph(3)) == [(1,)]
    assert min_dominating_sets(complete_graph(3)) == [(0,), (1,), (2,)]
    prod, idx = strong_product(complete_graph(2), path_graph(3))
    middle = sorted((idx.flat(g, 1),) for g in range(2))
    assert min_dominating_sets(prod) == middle


@given(graphs())
@settings(max_examples=80)
def test_solver_matches_brute_force(g):
    value = gamma_value(g)
    assert value == brute_gamma(g)
    cover = _cover_within(g.closed_rows(), g.full_mask, value)
    assert cover is not None and cover.bit_count() <= value
    assert is_dominating(g, iter_bits(cover))
    assert _cover_within(g.closed_rows(), g.full_mask, value - 1) is None


def _assert_cover_matches_reference(g):
    closed, full = g.closed_rows(), g.full_mask
    for limit in range(-1, g.order + 2):
        assert _cover_within(closed, full, limit) == reference_cover_within(closed, full, limit)


@given(st.integers(0, 12), st.floats(0, 1), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_cover_search_matches_reference_on_random_graphs(order, p, rng):
    _assert_cover_matches_reference(random_graph(rng, order, p))


@given(graphs_with_planted_twins())
@settings(max_examples=40, deadline=None)
def test_cover_search_matches_reference_on_planted_twins(g):
    _assert_cover_matches_reference(g)


@st.composite
def damaged_km_pn(draw):
    """K_m x P_n with one or two edges removed: the bondage solver's graphs."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    prod, _ = strong_product(complete_graph(m), path_graph(n))
    edges = prod.edges()
    if not edges:
        return prod
    removed = draw(st.lists(st.sampled_from(edges), min_size=1, max_size=2, unique=True))
    return remove_edges(prod, removed)


@given(damaged_km_pn())
@settings(max_examples=40, deadline=None)
def test_cover_search_matches_reference_on_damaged_products(g):
    _assert_cover_matches_reference(g)


@given(graphs(max_order=7))
@settings(max_examples=40)
def test_enumeration_matches_brute_force(g):
    got = min_dominating_sets(g)
    assert got == brute_min_dominating_sets(g)
    assert domination_number(g).witness == got[0]


@given(graphs(max_order=12))
@settings(max_examples=40)
def test_witness_matches_brute_force(g):
    assert domination_number(g).witness == brute_min_dominating_sets(g)[0]


def test_enumeration_at_orders_24_and_27():
    for n, order in ((8, 24), (9, 27)):
        prod, _ = strong_product(complete_graph(3), path_graph(n))
        assert prod.order == order
        assert min_dominating_sets(prod) == brute_min_dominating_sets(prod)


def test_witness_search_at_order_180():
    # gamma_value is still slow at this order, so call the search directly
    prod, _ = strong_product(complete_graph(3), path_graph(60))
    covers = _covers_in_lex_order(prod.closed_rows(), prod.full_mask, 20)
    assert next(covers) == tuple(range(1, 60, 3))


def test_tree_packing_equals_gamma_sample():
    rng = random.Random(7)
    for _ in range(60):
        tree = random_tree(rng, rng.randint(1, 9))
        assert brute_two_packing(tree) == gamma_value(tree)


def test_product_law_sample():
    rng = random.Random(11)
    for _ in range(15):
        g = random_graph(rng, rng.randint(1, 5), rng.random())
        t = random_tree(rng, rng.randint(1, 4))
        prod, _ = strong_product(g, t)
        assert gamma_value(prod) == gamma_value(g) * gamma_value(t)


def test_passed_deadline_stops_the_cover_search_on_entry():
    g = path_graph(3)
    with pytest.raises(TimeBudgetExceeded, match="on entry to the cover search$"):
        _cover_within(g.closed_rows(), g.full_mask, 1, time.monotonic() - 1)


def test_deadline_stops_the_greedy_pass_between_picks():
    # K_2 x P_512 has 1,024 vertices, so the greedy pass reads the clock
    # before each pick after the first; read 2 is past the deadline
    prod, _ = strong_product(complete_graph(2), path_graph(512))
    with ticking_time() as clock:
        with pytest.raises(TimeBudgetExceeded, match="^deadline hit after 2 greedy picks$"):
            gamma_value(prod, deadline=1)
    assert clock.ticks == 2


def test_deadline_stops_the_cover_search_inside():
    # refuting a cover of size 9 on the 6 x 6 grid (gamma 10) reads the clock
    # 28 times: once on entry, then every 1,024 branching nodes
    grid = Graph.from_edges(
        36,
        [(v, v + 1) for v in range(36) if v % 6 < 5] + [(v, v + 6) for v in range(30)],
    )
    message = "^deadline hit after 10240 cover-search nodes$"
    with ticking_time() as clock:
        with pytest.raises(TimeBudgetExceeded, match=message):
            _cover_within(grid.closed_rows(), grid.full_mask, 9, 10)
    assert clock.ticks == 11

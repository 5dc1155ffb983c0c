import time
from itertools import combinations
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from strongdom import bondage, domination
from strongdom.bondage import (
    TimeBudgetExceeded,
    _DominatingPool,
    _scan_tables,
    bondage_number,
    find_bondage_set_up_to,
    is_bondage_set,
)
from strongdom.domination import _cover_within, _covers_in_lex_order, gamma_value
from strongdom.formulas import bondage_complete, bondage_km_pn, bondage_path
from strongdom.graphs import (
    Graph,
    complete_graph,
    iter_bits,
    path_graph,
    remove_edges,
    strong_product,
)

from brute import brute_bondage, brute_first_bondage_witness, brute_gamma
import reference_scan
from reference_scan import (
    ReferencePool,
    _mirror_prefix_test,
    _twin_prefix_test,
    reference_find_bondage_set_up_to,
)
from ticking_clock import ticking_time


@st.composite
def graphs_with_planted_twins(draw):
    """Strong products K_m x G, or random graphs with closed-twin copies of
    some vertices, at most six vertices so the plain-scan oracle stays quick."""
    if draw(st.booleans()):
        m = draw(st.sampled_from([2, 3]))
        order = draw(st.integers(1, 6 // m))
        possible = [(u, v) for u in range(order) for v in range(u + 1, order)]
        edges = draw(st.lists(st.sampled_from(possible), unique=True)) if possible else []
        return strong_product(complete_graph(m), Graph.from_edges(order, edges))[0]
    order = draw(st.integers(2, 4))
    possible = [(u, v) for u in range(order) for v in range(u + 1, order)]
    edges = set(draw(st.lists(st.sampled_from(possible), unique=True)))
    for twin in range(order, order + draw(st.integers(1, 6 - order))):
        src = draw(st.integers(0, twin - 1))
        edges |= {(v, twin) for u, v in edges if u == src}
        edges |= {(u, twin) for u, v in edges if v == src}
        edges.add((src, twin))
    return Graph.from_edges(twin + 1, sorted(edges))


@st.composite
def mirrored_graphs(draw):
    """Graphs whose edges are closed under the reversal v -> order - 1 - v: a
    random base graph closed under its own reversal, with each vertex blown
    up into a clique of one or two closed twins, mirror vertices alike.
    Some get one vertex pair toggled, which mostly breaks the symmetry."""
    base = draw(st.integers(2, 5))
    half = draw(st.lists(st.integers(1, 2), min_size=(base + 1) // 2, max_size=(base + 1) // 2))
    copies = half + half[: base // 2][::-1]
    assume(sum(copies) <= 7)
    first = [sum(copies[:v]) for v in range(base)]
    blown = [range(first[v], first[v] + copies[v]) for v in range(base)]
    order = sum(copies)
    possible = [(u, v) for u in range(base) for v in range(u + 1, base)]
    joined = {(u, v) for u, v in draw(st.lists(st.sampled_from(possible), unique=True))}
    joined |= {(base - 1 - v, base - 1 - u) for u, v in joined}
    edges = {(x, y) for u, v in joined for x in blown[u] for y in blown[v]}
    edges |= {pair for cls in blown for pair in combinations(cls, 2)}
    if draw(st.booleans()):
        edges ^= {draw(st.sampled_from(list(combinations(range(order), 2))))}
    return Graph.from_edges(order, sorted(edges or {(0, order - 1)}))


@st.composite
def small_graphs_with_edges(draw):
    order = draw(st.integers(2, 5))
    possible = [(u, v) for u in range(order) for v in range(u + 1, order)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True, min_size=1, max_size=6))
    return Graph.from_edges(order, edges)


def test_is_bondage_set_basics():
    g = path_graph(4)
    assert not is_bondage_set(g, [])
    assert is_bondage_set(complete_graph(2), [(0, 1)])
    with pytest.raises(ValueError):
        is_bondage_set(g, [(0, 2)])

    prod, _ = strong_product(complete_graph(2), path_graph(3))
    assert is_bondage_set(prod, [(1, 4)])


def test_bondage_examples():
    assert bondage_number(path_graph(4)).value == 2
    assert bondage_number(complete_graph(4)).value == 2
    prod, _ = strong_product(complete_graph(2), path_graph(3))
    assert bondage_number(prod).value == 1


def test_bondage_witness_soundness():
    for g in (
        path_graph(5),
        complete_graph(5),
        strong_product(complete_graph(2), path_graph(4))[0],
    ):
        result = bondage_number(g)
        assert is_bondage_set(g, result.witness)
        assert find_bondage_set_up_to(g, result.value - 1) is None


def test_bondage_witness_is_lex_least():
    for g in (path_graph(4), path_graph(7), complete_graph(4), complete_graph(5)):
        assert bondage_number(g).witness == brute_first_bondage_witness(g)


def test_bondage_of_edgeless_graph_rejected():
    with pytest.raises(ValueError):
        bondage_number(path_graph(1))


def test_exhaustive_no_bondage_examples():
    prod25, _ = strong_product(complete_graph(2), path_graph(5))
    assert find_bondage_set_up_to(prod25, 0) is None
    assert find_bondage_set_up_to(prod25, 1) is None
    prod24, _ = strong_product(complete_graph(2), path_graph(4))
    assert find_bondage_set_up_to(prod24, 2) is None
    assert find_bondage_set_up_to(prod24, 3) is not None


def test_doubled_complete_graphs():
    for m in (1, 2, 3):
        assert bondage_number(complete_graph(2 * m)).value == m


def test_solver_matches_imported_values():
    for m in range(2, 7):
        assert bondage_number(complete_graph(m)).value == bondage_complete(m)
    for n in range(2, 11):
        assert bondage_number(path_graph(n)).value == bondage_path(n)


@given(small_graphs_with_edges())
@settings(max_examples=25, deadline=None)
def test_bondage_matches_brute_force(g):
    expected = brute_bondage(g)
    assert bondage_number(g).value == expected
    assert find_bondage_set_up_to(g, expected - 1) is None


def test_passed_deadline_stops_the_search_on_entry():
    with pytest.raises(TimeBudgetExceeded):
        find_bondage_set_up_to(path_graph(3), 1, deadline=time.monotonic() - 1)


def test_pool_filter_rejections_are_sound():
    """Any candidate the pool rejects must leave gamma unchanged."""
    prod, _ = strong_product(complete_graph(3), path_graph(3))
    edges = prod.edges()
    gamma = gamma_value(prod)
    pool = _DominatingPool(prod, edges)
    for dset in _covers_in_lex_order(prod.closed_rows(), prod.full_mask, gamma):
        pool.add(sum(1 << v for v in dset))
    rejected = 0
    for k in (1, 2):  # 27 + 351 edge sets
        for combo in combinations(range(len(edges)), k):
            damaged = remove_edges(prod, [edges[e] for e in combo])
            if pool.some_member_survives(damaged.closed_rows(), prod.full_mask):
                rejected += 1
                assert gamma_value(damaged) == gamma, combo
    assert rejected


@st.composite
def damaged_pools(draw):
    """A graph and pool members gathered as the scan gathers them: covers of
    size gamma of copies with a few edges removed, each moved onto the last
    twins of the damaged copy's classes.  Damage leaves vertices with spare
    dominators in some members, so some candidates leave a member
    dominating and some kill every member.  One or two minimum
    dominating sets that hold an edge, which the scan's covers seldom do,
    join whenever the graph has any: the touch mask must omit that edge.
    Few small graphs have such sets, and among K_m x P_n with n <= 6 only
    n = 4 does, so that length is drawn in half of the products."""
    if draw(st.booleans()):
        g = draw(graphs_with_planted_twins())
    else:
        m, n = draw(st.integers(1, 4)), 4 if draw(st.booleans()) else draw(st.integers(2, 6))
        g = strong_product(complete_graph(m), path_graph(n))[0]
    edges = g.edges()
    gamma = gamma_value(g)
    closed = g.closed_rows()
    members = [bondage._onto_last_twins(_cover_within(closed, g.full_mask, gamma), closed)]
    cuts = st.lists(st.sampled_from(edges), max_size=3, unique=True)
    for cut in draw(st.lists(cuts, max_size=8)):
        damaged = remove_edges(g, cut).closed_rows()
        cover = _cover_within(damaged, g.full_mask, gamma)
        if cover is not None:
            members.append(bondage._onto_last_twins(cover, damaged))
    masks = [sum(1 << v for v in d) for d in _covers_in_lex_order(closed, g.full_mask, gamma)]
    inner = [d for d in masks if any(d >> u & 1 and d >> v & 1 for u, v in edges)]
    if inner:
        members += draw(st.lists(st.sampled_from(inner), min_size=1, max_size=2))
    return g, members


@given(damaged_pools(), st.data())
@settings(max_examples=60, deadline=None)
def test_member_masks_match_per_member_pool_test(pooled, data):
    g, members = pooled
    edges = g.edges()
    pool = _DominatingPool(g, edges)
    reference = ReferencePool(g, edges)
    for dmask in members:
        pool.add(dmask)
        reference.add(dmask)
    assert pool.touch == reference.touch
    # every candidate touches every member, as each set the scan yields does,
    # so no member survives untouched and the damaged rows decide
    hits = st.tuples(*(st.sampled_from(list(iter_bits(t))) for t in reference.touch if t))
    extra = st.lists(st.sampled_from(range(len(edges))), max_size=5)
    for hit, more in data.draw(st.lists(st.tuples(hits, extra), min_size=1, max_size=20)):
        zedges = tuple(sorted(set(hit) | set(more)))
        damaged = remove_edges(g, [edges[e] for e in zedges]).closed_rows()
        survives = pool.some_member_survives(damaged, g.full_mask)
        assert survives == reference.some_member_survives(zedges)


@given(damaged_pools(), st.data())
@settings(max_examples=60, deadline=None)
def test_repair_is_a_minimum_dominating_set_of_the_damaged_graph(pooled, data):
    # candidates touch every member, as the sets the scan yields do; on small
    # graphs the least bondage set joins them, which no swap may repair
    g, members = pooled
    edges = g.edges()
    assume(edges)
    gamma = gamma_value(g)
    pool = _DominatingPool(g, edges)
    for dmask in members:
        pool.add(dmask)
    hits = st.tuples(*(st.sampled_from(list(iter_bits(t))) for t in pool.touch if t))
    extra = st.lists(st.sampled_from(range(len(edges))), max_size=5)
    candidates = [
        tuple(set(hit) | set(more))
        for hit, more in data.draw(st.lists(st.tuples(hits, extra), min_size=1, max_size=10))
    ]
    if g.order <= 6:
        candidates.append(tuple(edges.index(edge) for edge in brute_first_bondage_witness(g)))
    for zedges in candidates:
        damaged = remove_edges(g, [edges[e] for e in zedges])
        repaired = pool.repair(damaged.closed_rows(), g.full_mask)
        if brute_gamma(damaged) > gamma:
            assert repaired is None
        elif repaired is not None:
            assert repaired.bit_count() == gamma
            assert domination.is_dominating(damaged, list(iter_bits(repaired)))


def test_solver_confirms_the_witness_that_no_repair_refutes():
    # km-pn(3,4), searched in full: b = 5; the witness kills every member and
    # no swap repairs it, so the last solver call is on it and finds no cover
    prod, _ = strong_product(complete_graph(3), path_graph(4))
    calls = []
    cover_within = bondage._cover_within

    def counted(*args):
        cover = cover_within(*args)
        calls.append((list(args[0]), cover))
        return cover

    with patch.object(bondage, "_cover_within", counted):
        result = bondage_number(prod)
    assert result.value == bondage_km_pn(3, 4)
    assert calls[-1] == (remove_edges(prod, result.witness).closed_rows(), None)


def test_repairs_answer_the_refutation_of_km_pn_3_10():
    # b = 5; every candidate up to size 4 that kills the pool is refuted by a
    # one-vertex swap, so the solver runs once, for the first member
    prod, _ = strong_product(complete_graph(3), path_graph(10))
    solver = []
    cover_within = bondage._cover_within

    def counted(*args):
        solver.append(args)
        return cover_within(*args)

    with patch.object(bondage, "_cover_within", counted):
        assert find_bondage_set_up_to(prod, 4) is None
    assert len(solver) == 1


def test_bondage_search_at_order_26():
    prod, _ = strong_product(complete_graph(2), path_graph(13))
    assert prod.order == 26
    assert find_bondage_set_up_to(prod, 2) is None
    assert bondage_number(prod).value == 3


@given(graphs_with_planted_twins())
@example(Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (2, 3)]))  # orbit {02, 03} leads
@settings(max_examples=40, deadline=None)
def test_twin_orbit_scan_matches_brute_force(g):
    witness = brute_first_bondage_witness(g)
    b = len(witness)
    assert find_bondage_set_up_to(g, b - 1) is None
    assert find_bondage_set_up_to(g, b) == witness
    assert find_bondage_set_up_to(g, b + 1) == witness


@given(mirrored_graphs())
@example(strong_product(complete_graph(2), path_graph(3))[0])  # the mirror swaps two columns
@example(Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (3, 4)]))  # reversal is no automorphism
@settings(max_examples=60, deadline=None)
def test_mirror_prune_keeps_the_least_witness(g):
    witness = brute_first_bondage_witness(g)
    assert bondage_number(g).witness == witness
    assert find_bondage_set_up_to(g, len(witness) - 1) is None


def test_first_admissible_edges_join_both_orientations_of_a_class_pair():
    # 0 and 5 are closed twins, as are 1 and 2; (0, 3) and (3, 5) join the
    # same pair of classes from opposite ends, and only the earlier one is
    # admissible before 0 is touched
    g = Graph.from_edges(6, [(0, 3), (0, 5), (3, 5), (1, 2), (3, 4)])
    edges = g.edges()
    start = _scan_tables(g.closed_rows(), edges, _DominatingPool(g, edges).incident)[0]
    firsts = [edges[e] for e in range(len(edges)) if start >> e & 1]
    assert firsts == [(0, 3), (0, 5), (1, 2), (3, 4)]
    assert find_bondage_set_up_to(g, len(edges)) == brute_first_bondage_witness(g)


def test_km_pn_first_admissible_edges_are_one_per_column_pair():
    prod, idx = strong_product(complete_graph(3), path_graph(4))
    edges = prod.edges()
    start = _scan_tables(prod.closed_rows(), edges, _DominatingPool(prod, edges).incident)[0]
    leads = [e for e in range(len(edges)) if start >> e & 1]
    assert leads == [0, 1, 5, 7, 12, 14, 20]
    columns = [tuple(sorted(idx.pair(w)[1] for w in edges[e])) for e in leads]
    assert sorted(columns) == [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 3), (3, 3)]


def test_frontier_refutation_of_k12():
    # K_6 x P_2 is K_12, whose edges form one orbit: b = 6, refuted at 5.  It
    # is one twin class, so the first member moves to vertex 11, which no
    # leader of at most 5 edges touches: the solver runs once, for that
    # member, and no set is pool tested
    prod, _ = strong_product(complete_graph(6), path_graph(2))
    solver = []
    cover_within = bondage._cover_within

    def counted(*args):
        solver.append(args)
        return cover_within(*args)

    with patch.object(bondage, "_cover_within", counted):
        witness, log = _recorded_scan(find_bondage_set_up_to, prod, 5)
    assert witness is None
    assert len(solver) == 1
    assert log == [1 << 11]


def _brute_sets_touching(graph, touches, k):
    """Every k-set of edge indices, in ``combinations`` order, every prefix
    of which passes the twin-prefix and mirror tests of ``reference_scan``,
    and which meets every edge mask in ``touches``.  Only prefixes that pass
    are extended."""
    n_edges = len(graph.edges())
    twin_prefix = _twin_prefix_test(graph, graph.edges())
    mirror = _mirror_prefix_test(graph, graph.edges())
    found = []

    def grow(combo):
        if len(combo) == k:
            mask = sum(1 << e for e in combo)
            if all(mask & touch for touch in touches):
                found.append(combo)
            return
        for e in range(combo[-1] + 1 if combo else 0, n_edges):
            if twin_prefix((*combo, e)) and mirror((*combo, e)):
                grow((*combo, e))

    grow(())
    return found


def _assert_scan_is_brute_force(graph, members, sizes):
    """With the pool holding ``members`` (a cover of the graph if None), the
    scan must yield exactly the sets the brute-force filter keeps, in its
    order."""
    edges = graph.edges()
    closed = graph.closed_rows()
    if members is None:
        members = [_cover_within(closed, graph.full_mask, gamma_value(graph))]
    pool = _DominatingPool(graph, edges)
    for dmask in members:
        pool.add(dmask)
    tables = _scan_tables(closed, edges, pool.incident)
    for k in sizes:
        scanned = list(bondage._sets_touching_pool(pool, tables, k, None))
        assert scanned == _brute_sets_touching(graph, pool.touch, k), k


@pytest.mark.parametrize("m, n", [(6, 2), (3, 5)])
def test_depth_first_scan_matches_brute_force_filter(m, n):
    prod, _ = strong_product(complete_graph(m), path_graph(n))
    _assert_scan_is_brute_force(prod, None, range(1, 6))


def test_scan_matches_brute_force_filter_with_the_pool_of_a_full_search():
    # the members a full search of K_3 x P_5 adds: (k-2)-edge prefixes miss two
    # or more of them, so the bulk filter of penultimate edges drops edges
    prod, _ = strong_product(complete_graph(3), path_graph(5))
    _, log = _recorded_scan(find_bondage_set_up_to, prod, len(prod.edges()))
    members = [entry for entry in log if isinstance(entry, int)]
    assert len(members) == 4
    _assert_scan_is_brute_force(prod, members, range(1, 6))


@given(graphs_with_planted_twins())
@settings(max_examples=40, deadline=None)
def test_depth_first_scan_matches_brute_force_filter_on_planted_twins(g):
    _assert_scan_is_brute_force(g, None, range(1, min(5, len(g.edges())) + 1))


@given(damaged_pools())
@settings(max_examples=40, deadline=None)
def test_scan_meets_every_member_of_a_damaged_pool(pooled):
    g, members = pooled
    _assert_scan_is_brute_force(g, members, range(1, min(4, len(g.edges())) + 1))


def _recorded_scan(search, graph, size):
    """The search's answer, and its pool tests (the candidate's damaged
    closed rows as a tuple, result, pool size) and pool additions in order.
    Both the package's pool, which is passed the rows, and the reference's
    per-member pool, which is passed the candidate's edges and whose rows
    are built here by ``remove_edges``, record."""
    log = []

    def recording(pool_class, rows):
        class RecordingPool(pool_class):
            def add(self, dmask):
                log.append(dmask)
                super().add(dmask)

            def some_member_survives(self, *candidate):
                result = super().some_member_survives(*candidate)
                log.append((rows(self, *candidate), result, len(self.touch)))
                return result

        return RecordingPool

    package_pool = recording(bondage._DominatingPool, lambda pool, damaged, full: tuple(damaged))
    reference_pool = recording(
        reference_scan.ReferencePool,
        lambda pool, zedges: tuple(
            remove_edges(pool.graph, [pool.edges[e] for e in zedges]).closed_rows()
        ),
    )
    with patch.object(bondage, "_DominatingPool", package_pool), patch.object(
        reference_scan, "ReferencePool", reference_pool
    ):
        return search(graph, size), log


@given(graphs_with_planted_twins())
@example(strong_product(complete_graph(3), path_graph(4))[0])  # b = 5
@example(strong_product(complete_graph(2), path_graph(7))[0])  # b = 3
@settings(max_examples=40, deadline=None)
def test_bulk_skip_matches_per_candidate_scan(g):
    size = len(g.edges())
    expected = _recorded_scan(reference_find_bondage_set_up_to, g, size)
    assert _recorded_scan(find_bondage_set_up_to, g, size) == expected


@given(graphs_with_planted_twins())
@example(strong_product(complete_graph(3), path_graph(4))[0])  # b = 5
@example(strong_product(complete_graph(2), path_graph(7))[0])  # b = 3
@settings(max_examples=40, deadline=None)
def test_each_member_is_a_minimum_dominating_set_of_its_damaged_graph(g):
    # a member moved by twin classes the damage has split may stop dominating
    edges = g.edges()
    gamma = gamma_value(g)
    _, log = _recorded_scan(find_bondage_set_up_to, g, len(edges))
    candidate = []  # the first member covers the intact graph
    for entry in log:
        if isinstance(entry, tuple):  # the edges the candidate's rows lack
            candidate = [(u, v) for u, v in edges if not entry[0][u] >> v & 1]
            continue
        damaged = remove_edges(g, candidate)
        assert entry.bit_count() == gamma
        assert domination.is_dominating(damaged, list(iter_bits(entry)))


@pytest.mark.parametrize("m, n", [(3, 4), (2, 5), (4, 5)])
def test_no_edge_set_is_pool_tested_twice(m, n):
    prod, _ = strong_product(complete_graph(m), path_graph(n))
    witness, log = _recorded_scan(find_bondage_set_up_to, prod, len(prod.edges()))
    assert len(witness) == bondage_km_pn(m, n)
    tested = [entry[0] for entry in log if isinstance(entry, tuple)]
    assert len(set(tested)) == len(tested)


def test_deadline_fires_inside_a_long_refutation():
    # km-pn(5,7) has b = 8; refuting sizes up to 7 reads the clock 262 times,
    # and reads 27 to 262 are scan-step checks at size 7
    prod, _ = strong_product(complete_graph(5), path_graph(7))
    with ticking_time() as clock:
        with pytest.raises(TimeBudgetExceeded, match=r"after \d+ scan steps at size 7$"):
            find_bondage_set_up_to(prod, 7, deadline=80)
    assert clock.ticks == 81


def test_deadline_fires_inside_the_scan_at_a_fixed_tick():
    # km-pn(4,10) reads the clock 8 times to refute sizes up to 5; read 4 is
    # the last entry check (the scan's, gamma's, the first member's cover and
    # one solver call), and reads 5 to 8 are scan-step checks at size 5
    prod, _ = strong_product(complete_graph(4), path_graph(10))
    with ticking_time() as clock:
        with pytest.raises(TimeBudgetExceeded, match=r"after \d+ scan steps at size 5$"):
            find_bondage_set_up_to(prod, 5, deadline=6)
    assert clock.ticks == 7


@pytest.mark.parametrize(
    "search, name",
    [
        (lambda: find_bondage_set_up_to(path_graph(3), 1, deadline=0), "bondage scan"),
        # gamma of P_3 reads the clock once, in its one cover search
        (lambda: domination.domination_number(path_graph(3), deadline=1), "witness search"),
    ],
)
def test_entry_check_names_the_search(search, name):
    with ticking_time():
        with pytest.raises(TimeBudgetExceeded, match=f"on entry to the {name}$"):
            search()

"""Acceptance suite: every criterion runs end to end at exact integer
tolerance and prints one pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time

from strongdom.domination import gamma_value, is_dominating
from strongdom.formulas import (
    bondage_complete,
    bondage_km_pn,
    bondage_km_starlike,
    bondage_path,
    gamma_path,
    gamma_starlike,
    starlike_canonical_dominating_set,
)
from strongdom.graphs import (
    StarlikeSpec,
    complete_graph,
    path_graph,
    remove_edges,
    starlike_tree,
    strong_product,
)
from strongdom.harness import (
    InstanceSpec,
    km_pn_instances,
    mds_structure_entries,
    starlike_branch_multisets,
    sweep,
)

from brute import brute_two_packing, random_graph, random_tree
from strongdom.bondage import bondage_number


def _report(name: str, failures: list) -> None:
    status = "PASS" if not failures else f"FAIL ({len(failures)} problems)"
    print(f"[acceptance] {name}: {status}")
    assert not failures, failures[:10]


def test_criterion_1_product_bondage_sweep():
    """b(K_m x P_n) two-sided for m in 1..3, n in 2..7, plus m=4, n in {2,3,5,6}."""
    start = time.monotonic()
    instances = km_pn_instances([1, 2, 3], range(2, 8)) + km_pn_instances(
        [4], [2, 3, 5, 6]
    )
    report = sweep(instances, "bondage")
    failures = [
        (e.instance.label(), e.formula_value, e.computed_value, e.note)
        for e in report.entries
        if e.skipped or not e.match
    ]
    elapsed = time.monotonic() - start
    witness_methods = {
        e.method for e in report.entries if e.instance.m and e.instance.m >= 1
    }
    assert witness_methods == {"witness+refutation"}
    assert len(report.entries) == 22
    if elapsed >= 900:
        failures.append(("runtime", elapsed))
    _report(f"1 product bondage sweep ({elapsed:.1f}s)", failures)


def test_criterion_2_gamma_sweep():
    """gamma(K_m x P_n) = ceil(n/3) for m in 1..5, n in 1..9."""
    start = time.monotonic()
    report = sweep(km_pn_instances(range(1, 6), range(1, 10)), "gamma")
    failures = [
        (e.instance.label(), e.formula_value, e.computed_value)
        for e in report.entries
        if e.skipped or not e.match
    ]
    elapsed = time.monotonic() - start
    assert len(report.entries) == 45
    if elapsed >= 60:
        failures.append(("runtime", elapsed))
    _report(f"2 gamma sweep ({elapsed:.1f}s)", failures)


def test_criterion_3_starlike_domination():
    """Formula, solver, and canonical set agree on every starlike spec with
    2..4 branches of length 1..5."""
    start = time.monotonic()
    failures = []
    specs = starlike_branch_multisets([2, 3, 4], range(1, 6))
    for branches in specs:
        spec = StarlikeSpec(branches)
        tree = starlike_tree(spec)
        want = gamma_starlike(spec)
        got = gamma_value(tree)
        canonical = starlike_canonical_dominating_set(spec)
        if got != want:
            failures.append((branches, "solver", got, want))
        if len(canonical) != want or not is_dominating(tree, canonical):
            failures.append((branches, "canonical", canonical, want))
    elapsed = time.monotonic() - start
    assert len(specs) == 120  # all multisets in the stated ranges
    if elapsed >= 60:
        failures.append(("runtime", elapsed))
    _report(f"3 starlike domination, {len(specs)} specs ({elapsed:.1f}s)", failures)


def test_criterion_4_starlike_bondage():
    """Two-sided b(K_m x S) for the six theorem instances, plus path consistency."""
    start = time.monotonic()
    cases = [
        (2, (1, 1)),
        (2, (1, 1, 1)),
        (3, (1, 1)),
        (2, (2, 2)),
        (3, (2, 2)),
        (2, (3, 3)),
    ]
    instances = [InstanceSpec("km-starlike", m=m, branches=b) for m, b in cases]
    report = sweep(instances, "bondage")
    failures = [
        (e.instance.label(), e.formula_value, e.computed_value, e.note)
        for e in report.entries
        if e.skipped or not e.match or e.method != "witness+refutation"
    ]
    for m, branches in cases:
        if len(branches) == 2:
            a, b = branches
            if bondage_km_starlike(m, StarlikeSpec(branches)) != bondage_km_pn(
                m, a + b + 1
            ):
                failures.append(("path-consistency", m, branches))
    elapsed = time.monotonic() - start
    if elapsed >= 600:
        failures.append(("runtime", elapsed))
    _report(f"4 starlike bondage ({elapsed:.1f}s)", failures)


def test_criterion_5_mds_structure():
    """Column-structure audit of every minimum dominating set, m in 1..3, n in 2..6."""
    start = time.monotonic()
    failures = []
    for m in (1, 2, 3):
        for n in range(2, 7):
            for e in mds_structure_entries(m, n):
                if not e.match:
                    failures.append((m, n, e.quantity, e.witness[:3]))
    elapsed = time.monotonic() - start
    if elapsed >= 120:
        failures.append(("runtime", elapsed))
    _report(f"5 MDS structure suite ({elapsed:.1f}s)", failures)


def test_criterion_6_imported_propositions():
    """Solver reproduces the classical values and identities."""
    start = time.monotonic()
    failures = []
    for m in range(2, 7):
        got = bondage_number(complete_graph(m)).value
        if got != bondage_complete(m):
            failures.append(("complete", m, got))
    for n in range(2, 11):
        got = bondage_number(path_graph(n)).value
        if got != bondage_path(n):
            failures.append(("path-bondage", n, got))
    for n in range(1, 16):
        if gamma_value(path_graph(n)) != gamma_path(n):
            failures.append(("path-gamma", n))

    rng = random.Random(2024)
    trials = 0
    while trials < 500:
        tree = random_tree(rng, rng.randint(1, 9))
        trials += 1
        if brute_two_packing(tree) != gamma_value(tree):
            failures.append(("tree-packing", tree.edges()))
    for branches in starlike_branch_multisets([1, 2, 3, 4], range(1, 8)):
        if sum(branches) > 8:
            continue
        tree = starlike_tree(StarlikeSpec(branches))
        if brute_two_packing(tree) != gamma_value(tree):
            failures.append(("starlike-packing", branches))

    pairs = 0
    while pairs < 100:
        g = random_graph(rng, rng.randint(1, 6), rng.random())
        t = random_tree(rng, rng.randint(1, 5))
        pairs += 1
        prod, _ = strong_product(g, t)
        if gamma_value(prod) != gamma_value(g) * gamma_value(t):
            failures.append(("product-law", g.edges(), t.edges()))
    elapsed = time.monotonic() - start
    _report(f"6 imported propositions ({elapsed:.1f}s)", failures)


def _random_constrained_removal(rng, interior, excluded, bound):
    """Random edge set meeting the interior region fewer than ``bound`` times."""
    take_interior = rng.sample(interior, rng.randrange(min(bound, len(interior) + 1)))
    take_excluded = [e for e in excluded if rng.random() < 0.4]
    return take_interior + take_excluded


def test_criterion_7_block_lemma_trials():
    """Randomised damage below the threshold never breaks single-vertex domination."""
    start = time.monotonic()
    rng = random.Random(99)
    failures = []

    # three-column blocks
    for _ in range(1000):
        m = rng.choice((2, 3, 4))
        bound = (m + 1) // 2
        block, _ = strong_product(complete_graph(m), path_graph(3))
        n = 3
        interior = [e for e in block.edges() if not (e[0] % n == e[1] % n and e[0] % n in (0, 2))]
        excluded = [e for e in block.edges() if e[0] % n == e[1] % n and e[0] % n in (0, 2)]
        removal = _random_constrained_removal(rng, interior, excluded, bound)
        if gamma_value(remove_edges(block, removal)) != 1:
            failures.append(("three-column", m, removal))

    # two-column blocks, either end excluded
    for _ in range(1000):
        m = rng.choice((2, 3, 4))
        bound = (m + 1) // 2
        block, _ = strong_product(complete_graph(m), path_graph(2))
        n = 2
        keep_col = rng.choice((0, 1))
        interior = [
            e
            for e in block.edges()
            if not (e[0] % n == e[1] % n and e[0] % n != keep_col)
        ]
        excluded = [
            e for e in block.edges() if e[0] % n == e[1] % n and e[0] % n != keep_col
        ]
        removal = _random_constrained_removal(rng, interior, excluded, bound)
        if gamma_value(remove_edges(block, removal)) != 1:
            failures.append(("two-column", m, removal))

    # complete graph with a star
    for _ in range(1000):
        m = rng.choice((2, 3, 4))
        leaves = rng.choice((1, 2, 3))
        bound = (m + 1) // 2
        block, idx = strong_product(complete_graph(m), starlike_tree(StarlikeSpec((1,) * leaves)))
        n = leaves + 1
        # leaf columns are the non-centre right vertices; their internal edges are exempt
        interior = [
            e for e in block.edges() if not (e[0] % n == e[1] % n and e[0] % n != 0)
        ]
        excluded = [
            e for e in block.edges() if e[0] % n == e[1] % n and e[0] % n != 0
        ]
        removal = _random_constrained_removal(rng, interior, excluded, bound)
        if gamma_value(remove_edges(block, removal)) != 1:
            failures.append(("star", m, leaves, removal))

    elapsed = time.monotonic() - start
    _report(f"7 block-lemma property trials ({elapsed:.1f}s)", failures)


def test_criterion_7b_doubled_complete_invariant():
    """Two adjacent columns form a doubled complete graph with bondage m."""
    failures = []
    for m in (1, 2, 3, 4):
        got = bondage_number(complete_graph(2 * m)).value
        if got != m:
            failures.append((m, got))
    _report("7b doubled-complete bondage", failures)


def test_criterion_8_determinism():
    """Byte-identical reports, any job count, with lexicographically least witnesses."""
    import json

    from strongdom.harness import emit_report

    from brute import brute_first_bondage_witness

    start = time.monotonic()
    instances = km_pn_instances([1, 2], range(2, 6))
    runs = [
        sweep(instances, "both", jobs=1),
        sweep(instances, "both", jobs=1),
        sweep(instances, "both", jobs=3),
    ]

    def strip(report):
        payload = json.loads(emit_report(report, "json"))
        payload.pop("total_elapsed_ms")
        for e in payload["entries"]:
            e.pop("elapsed_ms")
        return payload

    failures = []
    base = strip(runs[0])
    for other in runs[1:]:
        if strip(other) != base:
            failures.append("report drift")

    # witnesses returned by the full search are the lexicographically least
    for m, n in ((1, 4), (2, 2), (2, 3)):
        prod, _ = strong_product(complete_graph(m), path_graph(n))
        if bondage_number(prod).witness != brute_first_bondage_witness(prod):
            failures.append(("witness", m, n))
    elapsed = time.monotonic() - start
    _report(f"8 determinism ({elapsed:.1f}s)", failures)

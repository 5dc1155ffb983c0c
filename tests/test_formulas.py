from itertools import permutations

import pytest

from strongdom.domination import is_dominating
from strongdom.formulas import (
    bondage_complete,
    bondage_km_pn,
    bondage_km_starlike,
    bondage_path,
    gamma_km_pn,
    gamma_path,
    gamma_starlike,
    starlike_canonical_dominating_set,
)
from strongdom.graphs import StarlikeSpec, starlike_tree
from strongdom.harness import starlike_branch_multisets


def test_gamma_path():
    assert gamma_path(1) == 1
    assert gamma_path(4) == 2
    assert gamma_path(9) == 3
    with pytest.raises(ValueError):
        gamma_path(0)


def test_gamma_km_pn():
    assert gamma_km_pn(3, 7) == 3
    assert gamma_km_pn(5, 3) == 1
    for n in range(1, 10):
        assert gamma_km_pn(1, n) == gamma_path(n)
    with pytest.raises(ValueError):
        gamma_km_pn(0, 3)


def test_bondage_complete():
    assert bondage_complete(2) == 1
    assert bondage_complete(4) == 2
    assert bondage_complete(7) == 4
    with pytest.raises(ValueError):
        bondage_complete(1)


def test_bondage_path():
    assert bondage_path(4) == 2
    assert bondage_path(6) == 1
    assert bondage_path(2) == 1
    with pytest.raises(ValueError):
        bondage_path(1)


def test_bondage_km_pn():
    assert bondage_km_pn(4, 2) == 4
    assert bondage_km_pn(3, 4) == 5
    assert bondage_km_pn(2, 3) == 1
    for n in range(2, 12):
        assert bondage_km_pn(1, n) == bondage_path(n)
    with pytest.raises(ValueError):
        bondage_km_pn(2, 1)


def test_gamma_starlike_examples():
    assert gamma_starlike(StarlikeSpec((1, 1, 1))) == 1
    assert gamma_starlike(StarlikeSpec((2, 2))) == 2
    assert gamma_starlike(StarlikeSpec((3, 3))) == 3


def test_gamma_starlike_matches_path_identity():
    for a in range(1, 6):
        for b in range(1, 6):
            assert gamma_starlike(StarlikeSpec((a, b))) == gamma_path(a + b + 1)


def test_canonical_dominating_set_examples():
    assert starlike_canonical_dominating_set(StarlikeSpec((1, 1, 1))) == (0,)
    assert starlike_canonical_dominating_set(StarlikeSpec((2, 2))) == (1, 3)
    assert starlike_canonical_dominating_set(StarlikeSpec((3, 3))) == (0, 2, 5)


def test_canonical_dominating_set_everywhere():
    for branches in starlike_branch_multisets([1, 2, 3, 4], range(1, 7)):
        spec = StarlikeSpec(branches)
        tree = starlike_tree(spec)
        chosen = starlike_canonical_dominating_set(spec)
        assert len(chosen) == gamma_starlike(spec)
        assert is_dominating(tree, chosen)


def test_canonical_set_is_branch_order_invariant_in_size():
    for perm in permutations((1, 2, 3)):
        spec = StarlikeSpec(perm)
        assert len(starlike_canonical_dominating_set(spec)) == gamma_starlike(spec)
        assert is_dominating(starlike_tree(spec), starlike_canonical_dominating_set(spec))


def test_bondage_km_starlike_examples():
    assert bondage_km_starlike(2, StarlikeSpec((1, 1))) == 1
    assert bondage_km_starlike(3, StarlikeSpec((2, 2))) == 3
    assert bondage_km_starlike(2, StarlikeSpec((3, 3))) == 3


def test_bondage_km_starlike_consistency_with_paths():
    for m in (1, 2, 3, 4):
        for a in range(1, 5):
            for b in range(1, 5):
                if a % 3 != b % 3:
                    continue
                assert bondage_km_starlike(m, StarlikeSpec((a, b))) == bondage_km_pn(
                    m, a + b + 1
                )


def test_bondage_km_starlike_refusals():
    with pytest.raises(ValueError, match="not uniform"):
        bondage_km_starlike(2, StarlikeSpec((1, 2)))
    with pytest.raises(ValueError):
        bondage_km_starlike(2, StarlikeSpec((3,)))

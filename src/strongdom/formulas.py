"""Closed-form domination and bondage values for the graph families the
toolkit verifies, as pure integer functions with explicit domain guards.

Everything here is exact integer arithmetic; the residue of a length mod 3
is always derived on the spot, never stored.
"""

from __future__ import annotations

from .graphs import StarlikeSpec


def _ceil3(n: int) -> int:
    return (n + 2) // 3


def gamma_path(n: int) -> int:
    """Domination number of the n-vertex path: ceil(n/3)."""
    if n < 1:
        raise ValueError("a path needs at least one vertex")
    return _ceil3(n)


def gamma_km_pn(m: int, n: int) -> int:
    """Domination number of (complete graph of order m) x (path of order n)
    under the strong product: ceil(n/3), independent of m."""
    if m < 1 or n < 1:
        raise ValueError("both factors need at least one vertex")
    return _ceil3(n)


def bondage_complete(m: int) -> int:
    """Bondage number of the complete graph: ceil(m/2), for m >= 2."""
    if m < 2:
        raise ValueError("a complete graph needs m >= 2 to have a bondage set")
    return (m + 1) // 2


def bondage_path(n: int) -> int:
    """Bondage number of the n-vertex path: 2 when n = 1 (mod 3), else 1."""
    if n < 2:
        raise ValueError("a path needs n >= 2 to have a bondage set")
    return 2 if n % 3 == 1 else 1


def bondage_km_pn(m: int, n: int) -> int:
    """Bondage number of the strong product of a complete graph with a path.

    ceil(m/2), m, or ceil(3m/2) as n is 0, 2, or 1 (mod 3).  For m = 1 the
    arithmetic collapses to the plain path values.
    """
    if m < 1:
        raise ValueError("the complete factor needs at least one vertex")
    if n < 2:
        raise ValueError("the path factor needs n >= 2 to have a bondage set")
    r = n % 3
    if r == 0:
        return (m + 1) // 2
    if r == 2:
        return m
    return (3 * m + 1) // 2


def gamma_starlike(spec: StarlikeSpec) -> int:
    """Domination number of the starlike tree.

    Sum of ceil(n_i/3) over the branches, minus (ones - 1) when some branch
    length is 1 (mod 3), plus 1 when every branch length is 0 (mod 3).
    """
    residues = [b % 3 for b in spec.branches]
    ones, twos = residues.count(1), residues.count(2)
    total = sum(_ceil3(b) for b in spec.branches)
    if ones:
        return total - (ones - 1)
    if twos:
        return total
    return total + 1


def starlike_canonical_dominating_set(spec: StarlikeSpec) -> tuple[int, ...]:
    """A closed-form minimum dominating set matching ``gamma_starlike``.

    Every third vertex along each branch, with the starting phase set by the
    branch residue (positions 3, 1, 2 for residues 1, 2, 0), plus the centre
    unless some residue-2 branch already covers it.
    """
    residues = [b % 3 for b in spec.branches]
    chosen: list[int] = []
    if residues.count(1) or not residues.count(2):
        chosen.append(spec.center)
    for i in range(1, spec.branch_count + 1):
        start = {1: 3, 2: 1, 0: 2}[spec.branches[i - 1] % 3]
        chosen.extend(spec.branch_vertices(i)[start - 1 :: 3])
    return tuple(sorted(chosen))


def bondage_km_starlike(m: int, spec: StarlikeSpec) -> int:
    """Bondage number of the strong product of a complete graph with a
    starlike tree whose branch lengths all share one residue mod 3.

    ceil(m/2), m, or ceil(3m/2) as the common residue is 1, 2, or 0.
    """
    if m < 1:
        raise ValueError("the complete factor needs at least one vertex")
    if spec.branch_count < 2:
        raise ValueError(
            "need at least two branches; a single branch degenerates to a path"
        )
    residues = {b % 3 for b in spec.branches}
    if len(residues) != 1:
        raise ValueError(
            f"branch residues {sorted(residues)} are not uniform; no formula applies"
        )
    r = residues.pop()
    if r == 1:
        return (m + 1) // 2
    if r == 2:
        return m
    return (3 * m + 1) // 2


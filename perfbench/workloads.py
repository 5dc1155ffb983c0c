"""Workloads, known answers and logical counts for the strongdom benchmark.

Everything in this module is independent of the program under test: the
instance lists, the paper's closed forms (written out here again rather
than imported from ``strongdom.formulas``), and the counts that are fixed
by the input alone, such as the number of edge subsets a bondage
refutation must rule out.  ``run.py`` turns each case into a call into
strongdom and checks the answer against ``fixture.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb

# Verdict kinds: two-sided verification through ``verify_instance``
# ("gamma", "bondage"), the minimum-dominating-set structure audit ("mds"),
# and the starlike-tree domination check of scripts/run_verification.py
# ("starlike-gamma").
VERIFY_KINDS = ("gamma", "bondage")
MDS_CHECKS = (
    "mds:column-multiplicity",
    "mds:end-pair",
    "mds:prefix-suffix-bound",
    "mds:forbidden-columns",
)


@dataclass(frozen=True)
class Case:
    """One verdict: a quantity on one graph instance."""

    kind: str
    family: str  # "km-pn", "km-starlike" or "starlike" (the bare tree)
    m: int = 1
    n: int = 0
    branches: tuple[int, ...] = ()

    @property
    def instance(self) -> str:
        if self.family == "km-pn":
            return f"km-pn-{self.m}-{self.n}"
        tail = ".".join(map(str, self.branches))
        if self.family == "km-starlike":
            return f"km-starlike-{self.m}-{tail}"
        return f"starlike-{tail}"

    @property
    def key(self) -> str:
        return f"{self.kind}:{self.instance}"

    @property
    def tree_order(self) -> int:
        """Order of the right factor (a path or a starlike tree)."""
        return self.n if self.family == "km-pn" else 1 + sum(self.branches)

    @property
    def order(self) -> int:
        return self.m * self.tree_order

    @property
    def edges(self) -> int:
        """|E(K_m x T)| for a tree T: C(m,2) per column, m^2 per tree edge."""
        t = self.tree_order
        return t * comb(self.m, 2) + (t - 1) * self.m * self.m

    @property
    def builds_product(self) -> bool:
        return self.family != "starlike"


def _ceil3(x: int) -> int:
    return (x + 2) // 3


def theorem_value(case: Case) -> int:
    """The paper's value for the verdict: gamma, the bondage number, or 0
    violations for a structure audit."""
    if case.kind == "mds":
        return 0
    if case.kind == "gamma":
        return _ceil3(case.n)  # gamma(K_m x P_n) = ceil(n/3)
    if case.kind == "starlike-gamma":
        ones = sum(1 for b in case.branches if b % 3 == 1)
        twos = sum(1 for b in case.branches if b % 3 == 2)
        total = sum(_ceil3(b) for b in case.branches)
        if ones:
            return total - (ones - 1)
        return total if twos else total + 1
    if case.kind != "bondage":
        raise ValueError(f"unknown verdict kind {case.kind!r}")
    m = case.m
    half, full, three_halves = (m + 1) // 2, m, (3 * m + 1) // 2
    if case.family == "km-pn":
        # b(K_m x P_n) = ceil(m/2), ceil(3m/2), m for n = 0, 1, 2 (mod 3)
        return (half, three_halves, full)[case.n % 3]
    (residue,) = {b % 3 for b in case.branches}
    # uniform starlike residue 0, 1, 2 gives ceil(3m/2), ceil(m/2), m
    return (three_halves, half, full)[residue]


def refuted_candidates(case: Case, value: int) -> int:
    """Subsets a verdict must rule out: every edge subset smaller than the
    bondage number, or every vertex subset smaller than gamma.  Fixed by
    the input, whatever the search prunes."""
    if case.kind == "bondage":
        return sum(comb(case.edges, k) for k in range(value))
    if case.kind in ("gamma", "starlike-gamma"):
        size = case.order if case.kind == "gamma" else case.tree_order
        return sum(comb(size, k) for k in range(value))
    return 0


def lex_rank(order: int, subset) -> int:
    """Rank of a sorted k-subset of range(order) in lexicographic order,
    by the combinatorial number system."""
    k = len(subset)
    return comb(order, k) - 1 - sum(comb(order - 1 - c, k - i) for i, c in enumerate(subset))


def _battery_cases() -> list[Case]:
    """The verdicts of scripts/run_verification.py without --quick, in its order."""
    cases = [Case("bondage", "km-pn", m, n) for m in (1, 2, 3) for n in range(2, 8)]
    cases += [Case("bondage", "km-pn", 4, n) for n in (2, 3, 5, 6)]
    cases += [Case("gamma", "km-pn", m, n) for m in range(1, 6) for n in range(1, 10)]
    cases += [
        Case("bondage", "km-starlike", m, branches=b)
        for m, b in [
            (2, (1, 1)),
            (2, (1, 1, 1)),
            (3, (1, 1)),
            (2, (2, 2)),
            (3, (2, 2)),
            (2, (3, 3)),
        ]
    ]
    cases += [Case("mds", "km-pn", m, n) for m in (1, 2, 3) for n in range(2, 7)]
    cases += [
        Case("starlike-gamma", "starlike", branches=b)
        for count in (2, 3, 4)
        for b in combinations_with_replacement(range(1, 6), count)
    ]
    return cases


@dataclass(frozen=True)
class Workload:
    name: str
    cases: tuple[Case, ...]
    budget_seconds: float | None  # passed to verify_instance
    limit_seconds: float  # the benchmark's own wall limit per verdict


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "battery",
            tuple(_battery_cases()),
            None,
            20.0,
        ),
        Workload(
            "bondage-frontier",
            (
                Case("bondage", "km-pn", 3, 10),
                Case("bondage", "km-pn", 6, 2),
                Case("bondage", "km-pn", 5, 5),
            ),
            40.0,
            45.0,
        ),
        Workload(
            "gamma-ladder",
            (
                Case("gamma", "km-pn", 3, 18),
                Case("gamma", "km-pn", 3, 19),
                Case("gamma", "km-pn", 4, 17),
                Case("gamma", "km-pn", 5, 15),
            ),
            30.0,
            30.0,
        ),
    )
}

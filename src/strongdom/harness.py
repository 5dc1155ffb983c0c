"""Verification harness: instance descriptions, two-sided checks against the
closed-form values, structural audits of minimum dominating sets, sweeps with
optional parallelism, and machine-readable reports.

``verify_instance`` is the only code that turns a verdict into a report
entry: a pass, a fail, a skipped entry when the budget runs out, or an error
entry (method ``error``) for any other failure, so a sweep never aborts on
one bad instance.  A wall budget becomes one monotonic deadline there, and
the gamma and bondage searches check that deadline as they go.

Every generated family is built as K_m x T, a path being K_1 x P_n and a
complete graph K_m x P_1, so one recipe over the product's columns
(``prescribed_bondage_set``) gives each family's constructive bondage set.
Two-sided bondage verification means: that edge set is confirmed to raise
the domination number (upper bound), and an exhaustive scan refutes every
edge subset one smaller (lower bound).  Full search at the answer size is
usually far costlier than refutation one below it, so the two-sided route
is the default whenever a formula applies.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, combinations_with_replacement
from math import comb, prod
from typing import Iterable, Iterator, Sequence

from ._version import __version__
from .bondage import bondage_number, find_bondage_set_up_to, is_bondage_set
from .domination import TimeBudgetExceeded, _deadline, domination_number, gamma_value
from .formulas import (
    bondage_complete,
    bondage_km_pn,
    bondage_km_starlike,
    gamma_km_pn,
    gamma_starlike,
)
from .graphs import (
    Edge,
    Graph,
    ProductIndexing,
    StarlikeSpec,
    complete_graph,
    parse_graph_file,
    path_graph,
    starlike_tree,
    strong_product,
)

# the parameters each family takes; any other parameter is an error
_PARAMETERS = {
    "km-pn": ("m", "n"),
    "km-starlike": ("m", "branches"),
    "path": ("n",),
    "complete": ("m",),
    "file": ("path",),
}
# every parameter a family takes is required; how a missing one is named
_NEEDS = {"m": "m >= 1", "n": "n >= 1", "branches": "a branch list", "path": "a path"}
FAMILIES = tuple(_PARAMETERS)
QUANTITIES = ("gamma", "bondage")


@dataclass(frozen=True)
class InstanceSpec:
    """One graph instance a sweep can verify, named by family and parameters."""

    family: str
    m: int | None = None
    n: int | None = None
    branches: tuple[int, ...] | None = None
    path: str | None = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        taken = _PARAMETERS[self.family]
        stray = [name for name in _NEEDS if name not in taken and getattr(self, name) is not None]
        if stray:
            raise ValueError(
                f"{self.family} takes only {' and '.join(taken)}, not {', '.join(stray)}"
            )
        if self.branches is not None:
            object.__setattr__(self, "branches", StarlikeSpec(self.branches).branches)
        for name in taken:
            value = getattr(self, name)
            if not value or name in ("m", "n") and value < 1:
                raise ValueError(f"{self.family} needs {' and '.join(_NEEDS[p] for p in taken)}")

    def sort_key(self):
        return (self.family, self.m or 0, self.n or 0, self.branches or (), self.path or "")

    def label(self) -> str:
        if self.family == "file":
            return f"file({self.path})"
        shown = {"branches": ",".join(map(str, self.branches or ()))}
        args = ",".join(f"{p}={shown.get(p, getattr(self, p))}" for p in _PARAMETERS[self.family])
        return f"{self.family}({args})"

    def as_dict(self) -> dict:
        params = {name: getattr(self, name) for name in _PARAMETERS[self.family]}
        return {"family": self.family, **params}


def _product_shape(spec: InstanceSpec) -> tuple[int, int, StarlikeSpec | None]:
    """(m, order of T, T's starlike layout or None for a path) of the K_m x T
    a generated spec names: a path is K_1 x P_n, a complete graph K_m x P_1."""
    if spec.family == "km-starlike":
        star = StarlikeSpec(spec.branches)
        return spec.m, star.order, star
    return spec.m or 1, spec.n or 1, None


def build_instance(spec: InstanceSpec) -> Graph:
    """The instance's graph: the parsed file, or K_m x T per ``_product_shape``."""
    if spec.family == "file":
        return parse_graph_file(spec.path)
    m, t, star = _product_shape(spec)
    right = path_graph(t) if star is None else starlike_tree(star)
    return strong_product(complete_graph(m), right)[0]


def formula_value(spec: InstanceSpec, quantity: str) -> int | None:
    """Closed-form value for the instance, or None when no formula applies.
    Paths and complete graphs take the K_m x P_n formulas."""
    if quantity not in QUANTITIES:
        raise ValueError(f"unknown quantity {quantity!r}")
    if spec.family == "file":
        return None
    m, t, star = _product_shape(spec)
    if star is not None:
        if quantity == "gamma":
            return gamma_starlike(star)
        try:
            return bondage_km_starlike(m, star)
        except ValueError:
            return None
    if quantity == "gamma":
        return gamma_km_pn(m, t)
    if t == 1:
        return bondage_complete(m) if m >= 2 else None
    return bondage_km_pn(m, t)


def prescribed_bondage_set(spec: InstanceSpec) -> tuple[Edge, ...] | None:
    """The family's constructive bondage set certifying the upper bound.

    One recipe over the columns of K_m x T: ``cover(h)`` touches every vertex
    of column h with ceil(m/2) edges inside it (consecutive pairs, the last
    overlapping when m is odd), and ``rungs(x, y)`` joins columns x and y
    with m parallel edges.  On K_m x P_t with m, t >= 2 the set is cover(1),
    rungs(0, 1), or both at the pendant column 0, as t is 0, 2 or 1 (mod 3);
    K_m x P_1 takes cover(0), and K_1 x P_t the path's end edge, plus the
    next one when t is 1 (mod 3).  A starlike product whose branch lengths
    share the residue 1, 2 or 0 takes the cover of its centre, the rungs at
    the end of branch 1 (vertices 1..n1), or both at that end.  None means
    no recipe applies (file graphs, mixed starlike residues, or a
    single-vertex left factor on a starlike product) and the caller should
    fall back to full search.
    """
    if spec.family == "file":
        return None
    m, t, star = _product_shape(spec)
    idx = ProductIndexing(m, t)

    def cover(h: int) -> tuple[Edge, ...]:
        col = idx.column(h)
        pairs = tuple(col[i : i + 2] for i in range(0, m - 1, 2))
        return pairs + (col[-2:],) if m % 2 else pairs

    def rungs(x: int, y: int) -> tuple[Edge, ...]:
        return tuple(zip(idx.column(x), idx.column(y)))

    if star is not None:
        if m < 2 or star.branch_count < 2 or len({b % 3 for b in star.branches}) != 1:
            return None
        n1 = star.branches[0]
        r = n1 % 3
        if r == 1:
            return cover(star.center)
        if r == 2:
            return rungs(n1 - 1, n1)
        return tuple(sorted(cover(n1) + rungs(n1 - 1, n1)))
    if t == 1:
        return cover(0) if m >= 2 else None
    if m == 1:
        return ((0, 1), (1, 2)) if t % 3 == 1 else ((0, 1),)
    r = t % 3
    if r == 0:
        return cover(1)
    if r == 2:
        return rungs(0, 1)
    return tuple(sorted(cover(0) + rungs(0, 1)))


@dataclass(frozen=True)
class ReportEntry:
    instance: InstanceSpec
    quantity: str
    formula_value: int | None
    computed_value: int | None
    method: str
    match: bool
    skipped: bool
    note: str
    elapsed_ms: float
    witness: object

    def as_dict(self) -> dict:
        return {
            "instance": self.instance.as_dict(),
            "quantity": self.quantity,
            "formula_value": "n/a" if self.formula_value is None else self.formula_value,
            "computed_value": "n/a" if self.computed_value is None else self.computed_value,
            "method": self.method,
            "match": self.match,
            "skipped": self.skipped,
            "note": self.note,
            "elapsed_ms": round(self.elapsed_ms, 3),
            "witness": self.witness,
        }


@dataclass(frozen=True)
class Report:
    config: dict
    entries: tuple[ReportEntry, ...]
    total_elapsed_ms: float

    @property
    def passed(self) -> int:
        return sum(1 for e in self.entries if not e.skipped and e.match)

    @property
    def failed(self) -> int:
        return sum(1 for e in self.entries if not e.skipped and not e.match)

    @property
    def skipped(self) -> int:
        return sum(1 for e in self.entries if e.skipped)

    def as_dict(self) -> dict:
        return {
            "tool": "strongdom",
            "version": __version__,
            "config": self.config,
            "entries": [e.as_dict() for e in self.entries],
            "summary": {"pass": self.passed, "fail": self.failed, "skipped": self.skipped},
            "total_elapsed_ms": round(self.total_elapsed_ms, 3),
        }


def verify_instance(
    spec: InstanceSpec,
    quantity: str,
    *,
    full_search: bool = False,
    budget_seconds: float | None = None,
) -> ReportEntry:
    """One verified quantity on one instance, always as a report entry.

    gamma: exact solver against the formula.  bondage with a formula: the
    constructive witness must raise gamma and the exhaustive refutation one
    below the formula must hold; without a formula (or with --full-search)
    the full exact search runs instead.  A budget overrun yields a skipped
    entry, never a silent pass; any other failure yields an error entry
    that keeps the formula value and the time spent.  Only the arguments
    themselves (an unknown quantity, a budget <= 0) raise.  The budget's
    clock starts before the product is built, but only a search reads it.
    """
    if quantity not in QUANTITIES:
        raise ValueError(f"unknown quantity {quantity!r}")
    deadline = _deadline(budget_seconds)
    start = time.monotonic()
    formula = computed = witness = None
    method, note, match, skipped = "exact-search", "", False, False
    try:
        formula = formula_value(spec, quantity)
        graph = build_instance(spec)
        if quantity == "gamma":
            result = domination_number(graph, deadline=deadline)
            computed, witness = result.value, result.witness
        else:
            if not any(graph.rows):
                raise ValueError(f"{spec.label()} has no edges; bondage is undefined")
            prescribed = None if full_search or formula is None else prescribed_bondage_set(spec)
            if prescribed is not None:
                method = "witness+refutation"
                gamma = gamma_value(graph, deadline=deadline)  # once, for both sides
                upper_ok = len(prescribed) == formula and is_bondage_set(
                    graph, prescribed, deadline=deadline, gamma=gamma
                )
                counterexample = find_bondage_set_up_to(
                    graph, formula - 1, deadline=deadline, gamma=gamma
                )
                if counterexample is not None:
                    computed, witness = len(counterexample), counterexample
                    note = "refutation failed: a smaller bondage set exists"
                elif upper_ok:
                    computed, witness = formula, prescribed
                else:
                    note = "constructive witness failed to raise gamma"
            if computed is None:
                res = bondage_number(graph, deadline=deadline)
                computed, witness = res.value, res.witness
        match = not note and (formula is None or computed == formula)
    except TimeBudgetExceeded as exc:
        skipped, note = True, f"skipped: {exc}"
    except Exception as exc:  # one bad instance must not abort a sweep
        method, note = "error", f"{type(exc).__name__}: {exc}"
    return ReportEntry(
        instance=spec,
        quantity=quantity,
        formula_value=formula,
        computed_value=computed,
        method=method,
        match=match,
        skipped=skipped,
        note=note,
        elapsed_ms=(time.monotonic() - start) * 1000.0,
        witness=witness,
    )


def sweep(
    instances: Sequence[InstanceSpec],
    quantity: str = "both",
    *,
    jobs: int = 1,
    full_search: bool = False,
    budget_seconds: float | None = None,
) -> Report:
    """Verify every instance in the range; one entry per (instance, quantity).

    Entry order is sorted by instance parameters, identical for any job
    count: workers only parallelise the independent per-instance work.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    specs = sorted(set(instances), key=InstanceSpec.sort_key)
    if not specs:
        raise ValueError("empty sweep range")
    if quantity == "both":
        quantities: tuple[str, ...] = QUANTITIES
    elif quantity in QUANTITIES:
        quantities = (quantity,)
    else:
        raise ValueError(f"unknown quantity {quantity!r}")
    tasks = [(spec, q) for spec in specs for q in quantities]
    verify = partial(verify_instance, full_search=full_search, budget_seconds=budget_seconds)
    start = time.monotonic()
    if jobs == 1:
        entries = [verify(spec, q) for spec, q in tasks]
    else:
        import multiprocessing  # only worker pools need it; keeps serial runs lean

        with multiprocessing.Pool(processes=jobs) as pool:
            entries = pool.starmap(verify, tasks)
    total_ms = (time.monotonic() - start) * 1000.0
    config = {"quantity": quantity, "full_search": full_search, "budget_seconds": budget_seconds}
    return Report(config, tuple(entries), total_ms)


def km_pn_instances(ms: Iterable[int], ns: Iterable[int]) -> list[InstanceSpec]:
    return [InstanceSpec("km-pn", m=m, n=n) for m in ms for n in ns]


def starlike_branch_multisets(
    branch_counts: Iterable[int], lengths: Iterable[int]
) -> list[tuple[int, ...]]:
    """All branch-length multisets with the given counts, as sorted tuples."""
    pool = sorted(set(lengths))
    return [
        combo
        for count in branch_counts
        for combo in combinations_with_replacement(pool, count)
    ]


# the structure lemmas mds_structure_entries audits, in report order
_MDS_CHECKS = (
    "mds:column-multiplicity",
    "mds:end-pair",
    "mds:prefix-suffix-bound",
    "mds:forbidden-columns",
)


def _column_counts(m: int, n: int) -> Iterator[list[int]]:
    """Yield the column-count vectors of the minimum dominating sets of
    K_m x P_n, in lexicographic order, one at a time.  A vertex is adjacent
    to its whole column and both neighbouring ones, so a set dominates iff
    every column has an occupied column within distance 1; each vector
    stands for prod C(m, c_j) sets.  Depth-first search over the columns,
    0 <= c_j <= m, at sizes 1, 2, ...: the first size with a vector is
    gamma, and the search stops after it.  A prefix is cut once a column
    has no occupied column within distance 1, or when 3 * left is less than
    the columns still to be dominated.  The search keeps an explicit stack
    over one shared prefix, so its depth is not bounded by the recursion
    limit.
    """
    for size in range(1, n + 1):  # one vertex in every column dominates
        found = False
        counts: list[int] = []  # the prefix; column j = len(counts) is next
        # per open column: the next count to try, the vertices left and the
        # reach, the first column that no occupied column dominates yet
        stack = [[0, size, 0]]
        while stack:
            top = stack[-1]
            c, left, reach = top
            j = len(counts)
            if c > min(m, left):
                stack.pop()
                if counts:
                    counts.pop()
                continue
            top[0] = c + 1
            after = min(j + 2, n) if c else reach
            if after < j or 3 * (left - c) < n - after:
                continue
            if j + 1 < n:
                counts.append(c)
                stack.append([0, left - c, after])
            elif left == c and after == n:
                found = True
                yield counts + [c]
        if found:
            return
    raise AssertionError(f"no dominating column counts for m={m}, n={n}")


def mds_structure_entries(m: int, n: int) -> list[ReportEntry]:
    """Audit every minimum dominating set of the product of a complete graph
    with a path against the per-column structure each one must have.

    Checks, in ``_MDS_CHECKS`` order, per set D with 1-based columns: at
    most one vertex per column; exactly one over each end pendant pair; the
    prefix (suffix) of the first i (last n-j+1) columns holds at least the
    domination number of the one-shorter prefix (suffix); and the columns
    forced empty by the residue of n are empty.  They read only column
    counts, so they run once per vector of ``_column_counts``, as it is
    found.  A vector outlives its audit only in a violation record, one per
    broken check: the vector, its number of sets and the check's details
    joined by "; ".
    """
    spec = InstanceSpec("km-pn", m=m, n=n)
    start = time.monotonic()
    empty = {0: (0, 1), 1: (), 2: (0,)}[n % 3]  # residues of the columns forced empty
    forbidden_cols = [i for i in range(1, n + 1) if i % 3 in empty]
    violations: list[list[dict]] = [[], [], [], []]  # per check, in _MDS_CHECKS order
    total = 0
    for counts in _column_counts(m, n):  # each vector is audited as it is found
        sets = prod(comb(m, c) for c in counts)
        total += sets
        head = list(accumulate(counts, initial=0))  # head[i]: columns 1..i
        ends = (head[2], head[n] - head[n - 2]) if n >= 2 else (1, 1)
        bounds = []  # the first and the last i columns hold at least ceil((i - 1) / 3)
        for i in range(2, n + 1):
            if head[i] < (i + 1) // 3:
                bounds.append(f"prefix 1..{i} below {(i + 1) // 3}")
        for i in range(n - 1, 1, -1):  # the suffix of all n columns is the prefix 1..n
            if head[n] - head[n - i] < (i + 1) // 3:
                bounds.append(f"suffix {n + 1 - i}..{n} below {(i + 1) // 3}")
        failures = (  # per check, in _MDS_CHECKS order, the bounds the vector breaks
            [f"column counts {counts}"] if max(counts) > 1 else (),
            [f"end pair counts {ends[0]} and {ends[1]}"] if ends != (1, 1) else (),
            bounds,
            [f"column {i} not empty" for i in forbidden_cols if counts[i - 1]],
        )
        if any(failures):
            for found, details in zip(violations, failures):
                if details:
                    found.append({"columns": counts, "sets": sets, "detail": "; ".join(details)})
    elapsed = (time.monotonic() - start) * 1000.0
    audited = f"{total} minimum dominating sets audited"
    vacuous = "" if forbidden_cols else "; vacuous for this residue"
    return [
        ReportEntry(
            instance=spec,
            quantity=name,
            formula_value=0,
            computed_value=sum(v["sets"] for v in found),
            method="mds-enumeration",
            match=not found,
            skipped=False,
            note=audited + vacuous if name == "mds:forbidden-columns" else audited,
            elapsed_ms=elapsed,
            witness=found,
        )
        for name, found in zip(_MDS_CHECKS, violations)
    ]


def emit_report(report: Report, fmt: str = "json") -> str:
    """Serialise a report; field order is fixed and documented in the README."""
    if fmt == "json":
        return json.dumps(report.as_dict(), indent=2) + "\n"
    if fmt == "text-table":
        headers = ("instance", "quantity", "formula", "computed", "status", "method", "ms")
        rows = []
        for e in report.entries:
            status = "skip" if e.skipped else ("ok" if e.match else "FAIL")
            rows.append(
                (
                    e.instance.label(),
                    e.quantity,
                    "n/a" if e.formula_value is None else str(e.formula_value),
                    "n/a" if e.computed_value is None else str(e.computed_value),
                    status,
                    e.method,
                    f"{e.elapsed_ms:.1f}",
                )
            )
        widths = [
            max(len(headers[c]), max((len(r[c]) for r in rows), default=0))
            for c in range(len(headers))
        ]
        lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
        lines.extend("  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in rows)
        lines.append(
            f"pass={report.passed} fail={report.failed} skipped={report.skipped} "
            f"total_ms={report.total_elapsed_ms:.1f}"
        )
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")

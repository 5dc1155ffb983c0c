#!/usr/bin/env python3
"""Write perfbench/fixture.json, the benchmark's known answers.

    python3 perfbench/make_fixture.py

Values come from the paper's theorems as written in workloads.py.  Where a
witness can be derived without the program it is: the lexicographically
least minimum dominating set of K_m x P_n is that of P_n placed in the
first copy of K_m, and the number of minimum dominating sets of K_m x P_n
is m^gamma times that of P_n.  Bondage witnesses and the canonical starlike
sets are recorded from the program, after one run of every verdict has
confirmed them.  The script refuses to write a fixture the program
disagrees with.
"""

from __future__ import annotations

import json
import sys
from itertools import combinations
from pathlib import Path

from workloads import MDS_CHECKS, WORKLOADS, Case, theorem_value

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "fixture.json"


def _path_dominating_sets(n: int, size: int) -> list[tuple[int, ...]]:
    """Dominating sets of P_n of the given size, in lexicographic order."""
    return [
        s
        for s in combinations(range(n), size)
        if all(any(abs(v - u) <= 1 for u in s) for v in range(n))
    ]


def _tree_dominates(branches: tuple[int, ...], chosen) -> bool:
    """Whether ``chosen`` dominates the starlike tree: centre 0, then each
    branch's vertices in order, nearest to the centre first."""
    closed = {0: {0}}
    start = 1
    for length in branches:
        prev = 0
        for v in range(start, start + length):
            closed.setdefault(v, {v})
            closed[v].add(prev)
            closed[prev].add(v)
            prev = v
        start += length
    covered = set().union(*(closed[v] for v in chosen))
    return covered == set(closed)


def _require(ok: bool, what) -> None:
    if not ok:
        raise SystemExit(f"fixture not written: {what}")


def record(case: Case, harness, graphs, formulas, domination) -> dict:
    value = theorem_value(case)
    if case.kind == "mds":
        gamma = theorem_value(Case("gamma", "km-pn", case.m, case.n))
        sets = case.m**gamma * len(_path_dominating_sets(case.n, gamma))
        entries = harness.mds_structure_entries(case.m, case.n)
        _require([e.quantity for e in entries] == list(MDS_CHECKS), entries)
        _require(all(e.match and e.computed_value == 0 for e in entries), entries)
        _require(entries[0].note.startswith(f"{sets} minimum dominating sets audited"), entries[0].note)
        return {"value": value, "sets": sets}
    if case.kind == "starlike-gamma":
        spec = graphs.StarlikeSpec(case.branches)
        canonical = list(formulas.starlike_canonical_dominating_set(spec))
        _require(domination.gamma_value(graphs.starlike_tree(spec)) == value, case)
        _require(len(canonical) == value and _tree_dominates(case.branches, canonical), case)
        return {"value": value, "witness": canonical}
    spec = harness.InstanceSpec(case.family, m=case.m, n=case.n or None, branches=case.branches or None)
    entry = harness.verify_instance(spec, case.kind)
    _require(entry.match and not entry.skipped, entry)
    _require(entry.computed_value == value == entry.formula_value, (case, entry))
    if case.kind == "gamma":
        witness = list(_path_dominating_sets(case.n, value)[0])
        _require(list(entry.witness) == witness, (case, entry.witness, witness))
    else:
        witness = [list(e) for e in entry.witness]
    return {"value": value, "witness": witness}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from strongdom import domination, formulas, graphs, harness

    cases = {c.key: c for w in WORKLOADS.values() for c in w.cases}
    verdicts = {}
    for key in sorted(cases):
        verdicts[key] = record(cases[key], harness, graphs, formulas, domination)
        print(key, verdicts[key]["value"], flush=True)
    lines = ",\n".join(f"    {json.dumps(k)}: {json.dumps(v)}" for k, v in verdicts.items())
    OUT.write_text('{\n  "verdicts": {\n' + lines + "\n  }\n}\n", encoding="utf-8")
    print(f"wrote {len(verdicts)} verdicts to {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

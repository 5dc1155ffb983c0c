#!/usr/bin/env python3
"""Run the full verification battery and emit a report.

Covers the default ranges: the bondage sweep over products of complete
graphs with paths (m 1..3 x n 2..7 plus m 4 x n {2,3,5,6}), the gamma sweep
(m 1..5 x n 1..9), the starlike bondage instances, the starlike domination
range, and the minimum-dominating-set structure audit (m 1..3 x n 2..6).

Usage:
    python3 scripts/run_verification.py [--jobs N] [--json-out PATH]
"""

from __future__ import annotations

import argparse
import sys
import time

from strongdom.domination import gamma_value, is_dominating
from strongdom.formulas import gamma_starlike, starlike_canonical_dominating_set
from strongdom.graphs import StarlikeSpec, starlike_tree
from strongdom.harness import (
    InstanceSpec,
    Report,
    emit_report,
    km_pn_instances,
    mds_structure_entries,
    starlike_branch_multisets,
    sweep,
)

STARLIKE_BONDAGE_CASES = [
    (2, (1, 1)),
    (2, (1, 1, 1)),
    (3, (1, 1)),
    (2, (2, 2)),
    (3, (2, 2)),
    (2, (3, 3)),
]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--json-out", help="also write the JSON report here")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be at least 1, got {args.jobs}")

    start = time.monotonic()
    entries = []

    bondage_instances = km_pn_instances([1, 2, 3], range(2, 8)) + km_pn_instances(
        [4], [2, 3, 5, 6]
    )
    print(f"bondage sweep over {len(bondage_instances)} path products ...")
    entries.extend(sweep(bondage_instances, "bondage", jobs=args.jobs).entries)

    print("gamma sweep over 45 path products ...")
    entries.extend(sweep(km_pn_instances(range(1, 6), range(1, 10)), "gamma", jobs=args.jobs).entries)

    star_instances = [
        InstanceSpec("km-starlike", m=m, branches=b) for m, b in STARLIKE_BONDAGE_CASES
    ]
    print(f"bondage sweep over {len(star_instances)} starlike products ...")
    entries.extend(sweep(star_instances, "bondage", jobs=args.jobs).entries)

    print("minimum-dominating-set structure audit ...")
    for m in (1, 2, 3):
        for n in range(2, 7):
            entries.extend(mds_structure_entries(m, n))

    print("starlike domination range (120 specs) ...")
    mismatches = 0
    for branches in starlike_branch_multisets([2, 3, 4], range(1, 6)):
        spec = StarlikeSpec(branches)
        tree = starlike_tree(spec)
        want = gamma_starlike(spec)
        canonical = starlike_canonical_dominating_set(spec)
        ok = (
            gamma_value(tree) == want
            and len(canonical) == want
            and is_dominating(tree, canonical)
        )
        if not ok:
            mismatches += 1
            print(f"  MISMATCH at {spec.label()}")
    print(f"  starlike domination mismatches: {mismatches}")

    total_ms = (time.monotonic() - start) * 1000.0
    report = Report({"jobs-note": "entry order is job-independent"}, tuple(entries), total_ms)
    print()
    print(emit_report(report, "text-table"))
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(emit_report(report, "json"))
        print(f"JSON report written to {args.json_out}")
    return 0 if not report.failed and mismatches == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands: gamma, bondage, verify, sweep, mds-check, product.  Range flags
on sweep and mds-check accept "3", "1,2,5", or "2..7".  Exit code is 0 iff
every report entry matches and none was skipped; a command that cannot
finish prints one "skipped: ..." or "error: ..." line on stderr and exits 1.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .bondage import bondage_number
from .domination import TimeBudgetExceeded, _deadline, domination_number
from .graphs import render_graph_text
from .harness import (
    FAMILIES,
    InstanceSpec,
    Report,
    build_instance,
    emit_report,
    mds_structure_entries,
    sweep,
)


def _int_range(text: str) -> list[int]:
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ".." in part:
            lo, hi = part.split("..", 1)
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    if not out:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return out


def _branch_tuple(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad branch list {text!r}") from None


def _positive_seconds(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"budget must be positive, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text!r}")
    return value


def _add_instance_flags(parser: argparse.ArgumentParser, ranged: bool) -> None:
    parser.add_argument("--family", choices=FAMILIES)
    if ranged:
        parser.add_argument("--m", type=_int_range, help="left factor order(s)")
        parser.add_argument("--n", type=_int_range, help="path length(s)")
    else:
        parser.add_argument("--m", type=int)
        parser.add_argument("--n", type=int)
    parser.add_argument(
        "--branches",
        type=_branch_tuple,
        action="append",
        help="starlike branch lengths a,b,c (repeatable in sweeps)",
    )
    parser.add_argument("--graph", help="path to a graph file (family: file)")


def _add_search_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--budget-seconds", type=_positive_seconds, help="per-instance wall budget"
    )
    parser.add_argument("--json", action="store_true", help="emit JSON")


def _add_verify_flags(parser: argparse.ArgumentParser) -> None:
    _add_search_flags(parser)
    parser.add_argument(
        "--full-search",
        action="store_true",
        help="force full exact bondage search instead of witness+refutation",
    )
    parser.add_argument("--quantity", choices=("gamma", "bondage", "both"), default="both")


def _family(args) -> str:
    if args.family:
        return args.family
    if args.graph:
        return "file"
    raise SystemExit("error: --family (or --graph) is required")


def _single_instance(args) -> InstanceSpec:
    if args.branches and len(args.branches) > 1:
        raise ValueError(f"{args.command} takes one --branches list, got {len(args.branches)}")
    branches = args.branches[0] if args.branches else None
    return InstanceSpec(_family(args), m=args.m, n=args.n, branches=branches, path=args.graph)


def _ranged_instances(args) -> list[InstanceSpec]:
    """One instance per combination of the given parameter values; a flag
    the family does not take is an error (``InstanceSpec`` rejects it)."""
    family = _family(args)
    return [
        InstanceSpec(family, m=m, n=n, branches=b, path=args.graph)
        for m in args.m or [None]
        for n in args.n or [None]
        for b in args.branches or [None]
    ]


def _emit(report, as_json: bool) -> int:
    fmt = "json" if as_json else "text-table"
    sys.stdout.write(emit_report(report, fmt))
    return 0 if not report.failed and not report.skipped else 1


def _cmd_value(args) -> int:
    """``gamma`` or ``bondage``: the exact value of one instance with its
    lexicographically least witness (vertices or edges)."""
    spec = _single_instance(args)
    search = domination_number if args.command == "gamma" else bondage_number
    result = search(build_instance(spec), deadline=_deadline(args.budget_seconds))
    witness = list(result.witness)
    if args.json:
        payload = {"instance": spec.as_dict(), args.command: result.value, "witness": witness}
        print(json.dumps(payload))
    else:
        print(f"{args.command}({spec.label()}) = {result.value}")
        print(f"witness: {witness}")
    return 0


def _cmd_sweep(args) -> int:
    """``sweep`` over a range, or ``verify`` as a sweep of one instance."""
    if args.command == "verify":
        instances = [_single_instance(args)]
    else:
        instances = _ranged_instances(args)
    report = sweep(
        instances,
        args.quantity,
        jobs=args.jobs,
        full_search=args.full_search,
        budget_seconds=args.budget_seconds,
    )
    return _emit(report, args.json)


def _cmd_mds_check(args) -> int:
    start = time.monotonic()
    entries = []
    for m in args.m:
        for n in args.n:
            entries.extend(mds_structure_entries(m, n))
    total = (time.monotonic() - start) * 1000.0
    report = Report({"m": args.m, "n": args.n}, tuple(entries), total)
    return _emit(report, args.json)


def _cmd_product(args) -> int:
    spec = _single_instance(args)
    if spec.family == "file":
        raise SystemExit("error: product needs a generated family, not a file")
    text = render_graph_text(build_instance(spec))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="strongdom",
        description="Exact domination and bondage numbers with a verification harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for command, quantity in (("gamma", "domination"), ("bondage", "bondage")):
        p = sub.add_parser(command, help=f"exact {quantity} number of one instance")
        _add_instance_flags(p, ranged=False)
        _add_search_flags(p)
        p.set_defaults(func=_cmd_value)

    p = sub.add_parser("verify", help="verify one instance against its formula")
    _add_instance_flags(p, ranged=False)
    _add_verify_flags(p)
    p.set_defaults(func=_cmd_sweep, jobs=1)

    p = sub.add_parser("sweep", help="verify a parameter range")
    _add_instance_flags(p, ranged=True)
    _add_verify_flags(p)
    p.add_argument("--jobs", type=_positive_int, default=1, help="parallel workers")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "mds-check", help="audit the structure of all minimum dominating sets"
    )
    p.add_argument("--m", type=_int_range, required=True)
    p.add_argument("--n", type=_int_range, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_mds_check)

    p = sub.add_parser("product", help="emit a generated graph in the text format")
    _add_instance_flags(p, ranged=False)
    p.add_argument("--output", help="write to this path instead of stdout")
    p.set_defaults(func=_cmd_product)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TimeBudgetExceeded as exc:
        print(f"skipped: {exc}", file=sys.stderr)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())

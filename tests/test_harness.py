import copy
import importlib.util
import json
from collections import Counter
from math import comb, prod
from pathlib import Path
from unittest.mock import patch

import pytest

from strongdom import bondage, harness
from strongdom.bondage import is_bondage_set
from strongdom.domination import _covers_in_lex_order, gamma_value
from strongdom.graphs import (
    GraphTextError,
    ProductIndexing,
    complete_graph,
    parse_graph_file,
    path_graph,
    strong_product,
)
from strongdom.harness import (
    InstanceSpec,
    Report,
    ReportEntry,
    _column_counts,
    build_instance,
    emit_report,
    formula_value,
    km_pn_instances,
    mds_structure_entries,
    prescribed_bondage_set,
    starlike_branch_multisets,
    sweep,
    verify_instance,
)

from brute import brute_bondage
from ticking_clock import ticking_time


def strip_timing(report_dict):
    out = copy.deepcopy(report_dict)
    out.pop("total_elapsed_ms", None)
    for entry in out["entries"]:
        entry.pop("elapsed_ms", None)
    return out


def golden_text(payload):
    """Report JSON text with the timing fields zeroed, as the golden files hold it."""
    payload["total_elapsed_ms"] = 0
    for entry in payload["entries"]:
        entry["elapsed_ms"] = 0
    return json.dumps(payload, indent=2) + "\n"


def test_instance_spec_validation():
    with pytest.raises(ValueError):
        InstanceSpec("km-pn", m=0, n=3)
    with pytest.raises(ValueError):
        InstanceSpec("km-starlike", m=2)
    for branches in ((0, 1), (2, -1), ()):
        with pytest.raises(ValueError, match="branch"):
            InstanceSpec("km-starlike", m=2, branches=branches)
    # every parameter a family takes is required, and the message names them all
    for family, params, message in (
        ("km-pn", {"m": 2}, "km-pn needs m >= 1 and n >= 1"),
        ("km-starlike", {"branches": (1, 2)}, "km-starlike needs m >= 1 and a branch list"),
        ("path", {"n": 0}, "path needs n >= 1"),
        ("complete", {"m": 0}, "complete needs m >= 1"),
        ("file", {}, "file needs a path"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            InstanceSpec(family, **params)
    for spec, label in (
        (InstanceSpec("km-pn", m=2, n=3), "km-pn(m=2,n=3)"),
        (InstanceSpec("km-starlike", m=2, branches=(1, 2)), "km-starlike(m=2,branches=1,2)"),
        (InstanceSpec("path", n=4), "path(n=4)"),
        (InstanceSpec("complete", m=3), "complete(m=3)"),
        (InstanceSpec("file", path="x.graph"), "file(x.graph)"),
    ):
        assert spec.label() == label
    with pytest.raises(ValueError):
        InstanceSpec("lattice", m=2, n=2)
    # a parameter outside the family's own set
    for family, params in (
        ("km-pn", {"m": 2, "n": 3, "branches": (1, 2)}),
        ("km-starlike", {"m": 2, "n": 3, "branches": (1, 1)}),
        ("path", {"m": 7, "n": 4}),
        ("complete", {"m": 3, "path": "k3.graph"}),
        ("file", {"n": 2, "path": "k3.graph"}),
    ):
        with pytest.raises(ValueError, match="takes only"):
            InstanceSpec(family, **params)


def test_parse_graph_file(tmp_path):
    target = tmp_path / "p3.graph"
    target.write_text("3\n0 1\n1 2\n")
    assert len(parse_graph_file(str(target)).edges()) == 2

    bad = tmp_path / "loop.graph"
    bad.write_text("3\n0 0\n")
    with pytest.raises(GraphTextError) as err:
        parse_graph_file(str(bad))
    assert err.value.line_no == 2


def test_verify_bondage_example():
    entry = verify_instance(InstanceSpec("km-pn", m=2, n=3), "bondage")
    assert entry.formula_value == 1
    assert entry.computed_value == 1
    assert entry.method == "witness+refutation"
    assert entry.match and not entry.skipped


def test_verify_gamma_example():
    entry = verify_instance(InstanceSpec("km-pn", m=3, n=7), "gamma")
    assert entry.formula_value == 3 and entry.computed_value == 3 and entry.match
    # a starlike product takes its tree's value, 2 here, not the path's 3 on 7 columns
    entry = verify_instance(InstanceSpec("km-starlike", m=2, branches=(1, 1, 4)), "gamma")
    assert entry.formula_value == 2 and entry.computed_value == 2 and entry.match


def test_verify_file_graph_bondage(tmp_path):
    target = tmp_path / "c4.graph"
    target.write_text("4\n0 1\n1 2\n2 3\n0 3\n")
    graph = parse_graph_file(str(target))
    assert brute_bondage(graph) == 3  # independent oracle for the 4-cycle

    entry = verify_instance(InstanceSpec("file", path=str(target)), "bondage")
    assert entry.formula_value is None
    assert entry.computed_value == 3
    assert entry.method == "exact-search"
    assert entry.match


def test_verify_full_search_flag():
    entry = verify_instance(InstanceSpec("km-pn", m=2, n=4), "bondage", full_search=True)
    assert entry.method == "exact-search"
    assert entry.computed_value == 3 and entry.match


def test_verify_budget_skip():
    entry = verify_instance(
        InstanceSpec("km-pn", m=3, n=7), "bondage", budget_seconds=1e-9
    )
    assert entry.skipped
    assert not entry.match
    assert entry.computed_value is None


def test_verify_gamma_budget_skip():
    # each clock read is one tick: the deadline is read 1 plus 0.5, so the
    # gamma value's first cover search, at read 2, is past it
    with ticking_time():
        entry = verify_instance(InstanceSpec("km-pn", m=3, n=7), "gamma", budget_seconds=0.5)
    assert entry.skipped and entry.note.startswith("skipped: ")
    assert entry.note == "skipped: deadline hit on entry to the cover search"
    assert not entry.match
    assert entry.computed_value is None and entry.formula_value == 3
    assert entry.elapsed_ms < 2000


def test_verify_bondage_budget_reaches_the_witness_check():
    # read 2 is gamma of the intact graph, read 3 the cover search on the
    # graph without the prescribed set, past the deadline of read 1 plus 1.5
    with ticking_time() as clock:
        entry = verify_instance(InstanceSpec("km-pn", m=3, n=7), "bondage", budget_seconds=1.5)
    assert entry.skipped and entry.note.startswith("skipped: ")
    assert entry.note == "skipped: deadline hit on entry to the cover search"
    assert clock.ticks == 3
    assert entry.computed_value is None
    assert entry.elapsed_ms < 2000


def test_verify_budget_must_be_positive():
    spec = InstanceSpec("km-pn", m=2, n=3)
    for budget in (0, -1.0):
        with pytest.raises(ValueError):
            verify_instance(spec, "bondage", budget_seconds=budget)


def test_prescribed_bondage_sets_certify_every_family():
    specs = [InstanceSpec("km-pn", m=m, n=n) for m in range(1, 6) for n in range(1, 11)]
    specs += [InstanceSpec("path", n=n) for n in range(1, 11)]
    specs += [InstanceSpec("complete", m=m) for m in range(1, 8)]
    uniform = [
        b
        for b in starlike_branch_multisets((1, 2, 3), range(1, 7))
        if len({x % 3 for x in b}) == 1
    ]
    # the recipe works at branch 1, which need not be the shortest
    uniform += [(4, 1, 4), (5, 2), (6, 3, 3)]
    specs += [InstanceSpec("km-starlike", m=m, branches=b) for m in (1, 2, 3) for b in uniform]
    for spec in specs:
        graph = build_instance(spec)
        formula = formula_value(spec, "bondage")
        prescribed = prescribed_bondage_set(spec)
        starlike_k1 = spec.family == "km-starlike" and spec.m == 1
        assert (prescribed is None) == (formula is None or starlike_k1), spec
        if prescribed is None:
            continue
        assert len(prescribed) == formula, spec
        assert is_bondage_set(graph, prescribed), spec
        if spec.family == "km-pn" and spec.m >= 2:
            idx = ProductIndexing(spec.m, spec.n)
            n = idx.right_order
            cover = [e for e in prescribed if e[0] % n == e[1] % n]
            rungs = [e for e in prescribed if e[0] % n != e[1] % n]
            columns = {e[0] % n for e in cover}
            assert len(columns) <= 1, spec
            if cover:  # the cover touches its whole column
                assert {v for e in cover for v in e} == set(idx.column(columns.pop())), spec
            touched = [v for e in rungs for v in e]
            assert len(touched) == len(set(touched)), spec


def test_two_sided_bondage_verdict_computes_gamma_once(monkeypatch):
    # the witness check and the refutation share one gamma of the intact graph
    calls = []

    def counted(graph, deadline=None):
        calls.append(graph)
        return gamma_value(graph, deadline=deadline)

    monkeypatch.setattr(harness, "gamma_value", counted)
    monkeypatch.setattr(bondage, "gamma_value", counted)
    entry = verify_instance(InstanceSpec("km-pn", m=3, n=4), "bondage")
    assert entry.match and entry.method == "witness+refutation"
    assert len(calls) == 1


def test_verify_failed_witness_falls_back_to_search(monkeypatch):
    spec = InstanceSpec("km-pn", m=2, n=4)
    not_bondage = ((0, 1), (0, 4), (1, 2))
    monkeypatch.setattr(harness, "prescribed_bondage_set", lambda *args: not_bondage)
    entry = verify_instance(spec, "bondage")
    assert entry.method == "witness+refutation"
    assert entry.computed_value == 3 and not entry.match
    assert entry.note == "constructive witness failed to raise gamma"


def test_verify_failed_refutation(monkeypatch):
    spec = InstanceSpec("km-pn", m=2, n=4)
    monkeypatch.setattr(harness, "formula_value", lambda spec, quantity: 4)
    entry = verify_instance(spec, "bondage")
    assert entry.method == "witness+refutation"
    assert entry.computed_value == 3 and not entry.match
    assert entry.note == "refutation failed: a smaller bondage set exists"


def test_error_entry_keeps_formula_and_time(monkeypatch):
    def crash(graph, deadline=None):
        raise RuntimeError("search crashed")

    monkeypatch.setattr(harness, "bondage_number", crash)
    entry = verify_instance(InstanceSpec("km-pn", m=2, n=4), "bondage", full_search=True)
    assert entry.method == "error" and not entry.match
    assert entry.formula_value == 3
    assert entry.elapsed_ms > 0


def test_sweep_shape_and_matches():
    report = sweep(km_pn_instances([1, 2], range(2, 8)), "bondage")
    assert len(report.entries) == 12
    assert report.passed == 12 and report.failed == 0 and report.skipped == 0
    labels = [e.instance.label() for e in report.entries]
    assert labels == sorted(labels)


def test_sweep_rejects_empty_range():
    with pytest.raises(ValueError):
        sweep([], "gamma")


@pytest.mark.parametrize(
    "check",
    [
        lambda: verify_instance(InstanceSpec("km-pn", m=2, n=3), "girth"),
        lambda: sweep(km_pn_instances([2], [3]), "girth"),
    ],
    ids=["verify_instance", "sweep"],
)
def test_unknown_quantity_is_rejected(check):
    with pytest.raises(ValueError, match="^unknown quantity 'girth'$"):
        check()


@pytest.mark.parametrize("jobs", [0, -3])
def test_sweep_rejects_bad_job_count(jobs):
    with pytest.raises(ValueError):
        sweep(km_pn_instances([2], [3]), "gamma", jobs=jobs)


def test_sweep_report_matches_golden_file():
    """Values, witnesses and field order of a small sweep, timings zeroed."""
    report = sweep(km_pn_instances([1, 2], range(2, 6)), "both")
    payload = json.loads(emit_report(report, "json"))
    golden = Path(__file__).with_name("golden") / "sweep_km_pn.json"
    assert golden_text(payload) == golden.read_text(encoding="utf-8")


def test_sweep_survives_bad_instance():
    report = sweep([InstanceSpec("path", n=1)], "bondage")
    assert len(report.entries) == 1
    entry = report.entries[0]
    assert entry.method == "error" and not entry.match and not entry.skipped


def test_sweep_error_entry_is_the_same_for_any_job_count():
    crashing = [InstanceSpec("path", n=1), InstanceSpec("path", n=2)]
    serial = strip_timing(sweep(crashing, "bondage", jobs=1).as_dict())
    parallel = strip_timing(sweep(crashing, "bondage", jobs=2).as_dict())
    assert serial["entries"][0]["method"] == "error"
    assert serial["entries"][1]["match"]
    assert serial == parallel


def test_battery_report_matches_golden_file(tmp_path, capsys):
    """The whole verification battery, timings zeroed: every entry's value,
    witness and note as the script reports them."""
    script = Path(__file__).parents[1] / "scripts" / "run_verification.py"
    spec = importlib.util.spec_from_file_location("run_verification", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    target = tmp_path / "battery.json"
    assert module.main(["--json-out", str(target)]) == 0
    capsys.readouterr()
    payload = json.loads(target.read_text(encoding="utf-8"))
    golden = Path(__file__).with_name("golden") / "battery.json"
    assert golden_text(payload) == golden.read_text(encoding="utf-8")


def test_sweep_deterministic_across_jobs():
    instances = km_pn_instances([1, 2], range(2, 6))
    first = sweep(instances, "both", jobs=1)
    second = sweep(instances, "both", jobs=1)
    parallel = sweep(instances, "both", jobs=2)
    a = strip_timing(first.as_dict())
    assert a == strip_timing(second.as_dict())
    assert a == strip_timing(parallel.as_dict())


def test_check_mds_structure_small_cases():
    for m, n in ((2, 3), (2, 5), (3, 4)):
        entries = mds_structure_entries(m, n)
        assert all(e.match for e in entries), (m, n)
        assert all(e.witness == [] for e in entries)


def test_check_mds_structure_specifics():
    # every minimum set avoids the outer columns on a 3-divisible path
    entries = {e.quantity: e for e in mds_structure_entries(2, 3)}
    assert entries["mds:forbidden-columns"].match
    # the end pendant pair holds exactly one vertex
    entries = {e.quantity: e for e in mds_structure_entries(3, 4)}
    assert entries["mds:end-pair"].match


def test_check_mds_structure_at_order_30():
    # one vertex in each of columns 2 and 5, five choices each
    entries = mds_structure_entries(5, 6)
    assert len(entries) == 4
    assert all(e.match and e.note == "25 minimum dominating sets audited" for e in entries)


def test_column_counts_group_the_minimum_dominating_sets():
    # every minimum dominating set the witness search yields on the built
    # product, grouped by its column counts: the groups are the count model's
    # vectors, each as large as its vector's weight, and they hold the audit's N
    for m in range(1, 5):
        for n in range(1, 11):
            graph, _ = strong_product(complete_graph(m), path_graph(n))
            groups = Counter()
            for d in _covers_in_lex_order(graph.closed_rows(), graph.full_mask, gamma_value(graph)):
                counts = [0] * n
                for v in d:
                    counts[v % n] += 1
                groups[tuple(counts)] += 1
            vectors = [tuple(counts) for counts in _column_counts(m, n)]
            assert vectors == sorted(groups), (m, n)
            assert {v: prod(comb(m, c) for c in v) for v in vectors} == groups, (m, n)
            audited = f"{sum(groups.values())} minimum dominating sets audited"
            assert all(e.note.startswith(audited) for e in mds_structure_entries(m, n)), (m, n)


def test_mds_check_runs_past_the_recursion_limit():
    # 1,200 columns, one search level each: deeper than Python's default
    # recursion limit of 1,000
    entries = mds_structure_entries(2, 1200)
    assert len(entries) == 4 and all(e.match for e in entries)


def test_mds_violation_records_carry_the_vector_weight():
    # no real instance has a violation; a non-minimum vector stands in for one
    with patch.object(harness, "_column_counts", lambda m, n: [[1, 1, 0]]):
        entries = {e.quantity: e for e in mds_structure_entries(2, 3)}
    assert all(e.note.startswith("4 minimum dominating sets audited") for e in entries.values())
    for name, detail in (
        ("mds:end-pair", "end pair counts 2 and 1"),
        ("mds:forbidden-columns", "column 1 not empty"),
    ):
        assert not entries[name].match
        assert entries[name].computed_value == 4
        assert entries[name].witness == [{"columns": [1, 1, 0], "sets": 4, "detail": detail}]
    for name in ("mds:column-multiplicity", "mds:prefix-suffix-bound"):
        assert entries[name].match and entries[name].computed_value == 0


def test_mds_violation_records_name_each_broken_bound():
    # on m = 3, n = 4 the three vectors break, in turn, the one-per-column
    # rule, the prefix bound at 1..2 and the suffix bound at 3..4
    vectors = [[0, 2, 1, 0], [0, 0, 1, 0], [0, 1, 0, 0]]
    with patch.object(harness, "_column_counts", lambda m, n: vectors):
        entries = {e.quantity: e for e in mds_structure_entries(3, 4)}
    multiplicity = entries["mds:column-multiplicity"]
    assert not multiplicity.match and multiplicity.computed_value == 9
    assert multiplicity.witness == [
        {"columns": [0, 2, 1, 0], "sets": 9, "detail": "column counts [0, 2, 1, 0]"}
    ]
    bounds = entries["mds:prefix-suffix-bound"]
    assert not bounds.match and bounds.computed_value == 6
    assert bounds.witness == [
        {"columns": [0, 0, 1, 0], "sets": 3, "detail": "prefix 1..2 below 1"},
        {"columns": [0, 1, 0, 0], "sets": 3, "detail": "suffix 3..4 below 1"},
    ]
    # a vector that breaks one check twice is one record, its sets counted once
    with patch.object(harness, "_column_counts", lambda m, n: [[0, 0, 0, 1]]):
        bounds = {e.quantity: e for e in mds_structure_entries(3, 4)}["mds:prefix-suffix-bound"]
    assert bounds.computed_value == 3
    detail = "prefix 1..2 below 1; prefix 1..3 below 1"
    assert bounds.witness == [{"columns": [0, 0, 0, 1], "sets": 3, "detail": detail}]
    # the span of all n columns is checked once, as a prefix
    with patch.object(harness, "_column_counts", lambda m, n: [[0, 0, 0, 0]]):
        bounds = {e.quantity: e for e in mds_structure_entries(2, 4)}["mds:prefix-suffix-bound"]
    detail = bounds.witness[0]["detail"].split("; ")
    assert detail.count("prefix 1..4 below 1") == 1
    assert not any(d.startswith("suffix 1..") for d in detail)


def test_emit_report_empty():
    report = Report({"quantity": "gamma"}, (), 0.0)
    payload = json.loads(emit_report(report, "json"))
    assert payload["entries"] == []
    assert payload["summary"] == {"pass": 0, "fail": 0, "skipped": 0}


def test_emit_report_counts_and_formats():
    ok = verify_instance(InstanceSpec("path", n=4), "bondage")
    report = Report({"quantity": "bondage"}, (ok,), 1.0)
    payload = json.loads(emit_report(report, "json"))
    assert payload["summary"] == {"pass": 1, "fail": 0, "skipped": 0}
    assert payload["tool"] == "strongdom"
    table = emit_report(report, "text-table")
    assert "path(n=4)" in table and "ok" in table
    with pytest.raises(ValueError):
        emit_report(report, "yaml")


def test_report_mixed_outcomes():
    ok = verify_instance(InstanceSpec("path", n=4), "bondage")
    bad = ReportEntry(
        instance=InstanceSpec("path", n=5),
        quantity="bondage",
        formula_value=2,
        computed_value=1,
        method="exact-search",
        match=False,
        skipped=False,
        note="",
        elapsed_ms=0.0,
        witness=None,
    )
    report = Report({}, (ok, bad), 0.0)
    assert report.passed == 1 and report.failed == 1


def test_entry_json_uses_na_for_missing_formula(tmp_path):
    target = tmp_path / "p2.graph"
    target.write_text("2\n0 1\n")
    entry = verify_instance(InstanceSpec("file", path=str(target)), "gamma")
    assert entry.as_dict()["formula_value"] == "n/a"
    assert entry.instance.label() == f"file({target})"
    assert entry.match

#!/usr/bin/env python3
"""Benchmark of the strongdom verifier: time to a verdict, and whether each
verdict is right.

    python3 perfbench/run.py --workload battery --seed 1 --seconds 30 --trace 0

Runs one workload (see workloads.py) as a closed loop in one process and
one thread: each verdict is issued only after the previous one returned.
The seed permutes the order of the verdicts; the program keeps its own
defaults.  Passes over the workload repeat until ``--seconds`` would be
exceeded, with at least one pass.  Every verdict is checked against the
known answers in fixture.json; a wrong, crashed or overrun verdict counts
as failed.  Times are reported in reference-machine seconds (speed.py);
the readable table also gives the pass time as measured.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics.  With ``--trace 1`` half of the time runs untraced and
half with span tracing (tracing.py), and the JSON carries the per-layer
metrics; spans are written to .bench_out/.  The lines before the JSON are a
readable table of the same metrics, plus per-instance verdict times.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import signal
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Callable

from speed import Speedometer
from tracing import LAYERS, Tracer, reduce
from workloads import MDS_CHECKS, VERIFY_KINDS, WORKLOADS, Case, lex_rank, refuted_candidates

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURE = Path(__file__).resolve().parent / "fixture.json"
SETUP_REPEATS = 9
RUN_LIMIT_S = 150.0  # stop issuing verdicts after this, so a run ends well within 180 s
NAMED_VERDICT_S = 0.1  # the readable table names every verdict at least this slow


class VerdictTimeout(BaseException):
    """The benchmark's own wall limit on one verdict ran out.  A BaseException,
    so the program's own exception handlers do not swallow it."""


def _on_alarm(signum, frame):
    raise VerdictTimeout


@dataclass
class Verdict:
    case: Case
    want: dict
    run: Callable[[], object]  # the call into strongdom
    limit_s: float
    refuted: int  # logical candidates ruled out, from the input alone


@dataclass
class Pass:
    """One pass over the workload.  Per verdict: ``raw`` is its time as
    measured, less any time spent probing the machine's speed, and
    ``scale`` turns that into reference-machine seconds (speed.py)."""

    raw: dict[str, float] = field(default_factory=dict)
    scale: dict[str, float] = field(default_factory=dict)
    spans: dict[str, int] = field(default_factory=dict)  # traced passes: verdict -> span
    failures: list[str] = field(default_factory=list)

    def time(self, key: str) -> float:
        return self.raw[key] * self.scale[key]

    @property
    def wall_s(self) -> float:
        return sum(self.time(key) for key in self.raw)

    @property
    def raw_wall_s(self) -> float:
        return sum(self.raw.values())


def _plain(value):
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def check(case: Case, want: dict, out) -> str | None:
    """None if the output is the known answer, else what is wrong."""
    if case.kind in VERIFY_KINDS:
        if out.skipped or not out.match:
            return f"skipped={out.skipped} match={out.match} note={out.note!r}"
        if out.computed_value != want["value"] or out.formula_value != want["value"]:
            return f"value {out.computed_value} (formula {out.formula_value}), want {want['value']}"
        if _plain(out.witness) != want["witness"]:
            return f"witness {_plain(out.witness)}, want {want['witness']}"
        return None
    if case.kind == "mds":
        audited = f"{want['sets']} minimum dominating sets audited"
        if [e.quantity for e in out] != list(MDS_CHECKS):
            return f"audit checks {[e.quantity for e in out]}"
        for e in out:
            if e.skipped or not e.match or e.computed_value != 0 or e.witness:
                return f"{e.quantity}: {e.computed_value} violations"
            if not e.note.startswith(audited):
                return f"{e.quantity}: note {e.note!r}, want {audited!r}"
        return None
    formula, computed, canonical, dominates = out
    if formula != want["value"] or computed != want["value"]:
        return f"gamma {computed} (formula {formula}), want {want['value']}"
    if list(canonical) != want["witness"] or not dominates:
        return f"canonical set {list(canonical)} dominating={dominates}"
    return None


def _call(case: Case, mods, budget_seconds):
    """The strongdom call a verdict makes.  Module attributes are looked up
    at call time, so traced runs go through the tracing wrappers."""
    harness, graphs, formulas, domination = mods.harness, mods.graphs, mods.formulas, mods.domination
    if case.kind in VERIFY_KINDS:
        spec = harness.InstanceSpec(
            case.family, m=case.m, n=case.n or None, branches=case.branches or None
        )
        return lambda: harness.verify_instance(spec, case.kind, budget_seconds=budget_seconds)
    if case.kind == "mds":
        return lambda: harness.mds_structure_entries(case.m, case.n)
    spec = graphs.StarlikeSpec(case.branches)

    def starlike_check():
        tree = graphs.starlike_tree(spec)
        canonical = formulas.starlike_canonical_dominating_set(spec)
        return (
            formulas.gamma_starlike(spec),
            domination.gamma_value(tree),
            canonical,
            domination.is_dominating(tree, canonical),
        )

    return starlike_check


def setup(workload: str, seed: int, fixture: dict, meter: Speedometer):
    """Import strongdom afresh and build the workload's verdicts; return the
    scaled time this took, the modules and the verdicts."""
    start = perf_counter()
    for name in [n for n in sys.modules if n == "strongdom" or n.startswith("strongdom.")]:
        del sys.modules[name]
    mods = SimpleNamespace(
        **{
            name: importlib.import_module(f"strongdom.{name}")
            for name in ("harness", "graphs", "formulas", "domination", "bondage")
        }
    )
    w = WORKLOADS[workload]
    verdicts = [
        Verdict(
            case,
            fixture[case.key],
            _call(case, mods, w.budget_seconds),
            w.limit_seconds,
            refuted_candidates(case, fixture[case.key]["value"]),
        )
        for case in w.cases
    ]
    random.Random(seed).shuffle(verdicts)
    end = perf_counter()
    elapsed = end - start - meter.probing(start, end)
    meter.sample()
    return elapsed * meter.scale(start, end), mods, verdicts


def _timed(run, limit: float):
    """Run one verdict under the benchmark's wall limit: (output, problem,
    start, end).  The alarm is armed before the clock starts and disarmed
    after it stops, so the window from start to end holds only the call."""
    out = problem = None
    start = end = perf_counter()  # rebound below; bound in case the alarm comes first
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            start = perf_counter()
            out = run()
            end = perf_counter()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except VerdictTimeout:
        end = perf_counter()
        problem = f"overran the {limit:.1f} s wall limit"
    except Exception as exc:  # a crash in the program is a failed verdict
        end = perf_counter()
        problem = f"{type(exc).__name__}: {exc}"
    return out, problem, start, end


def run_pass(verdicts, deadline: float, meter: Speedometer, tracer: Tracer | None) -> Pass:
    result = Pass()
    windows: dict[str, tuple[float, float]] = {}
    for v in verdicts:
        key = v.case.key
        limit = min(v.limit_s, deadline - perf_counter())
        if limit <= 0:
            result.raw[key], result.scale[key] = 0.0, 1.0
            result.failures.append(f"{key}: not run, the run's {RUN_LIMIT_S:.0f} s limit is spent")
            continue
        span = tracer.open("bench.verdict") if tracer else -1
        out, problem, start, end = _timed(v.run, limit)
        if tracer:
            tracer.close(span)
            result.spans[key] = span
        result.raw[key] = end - start - meter.probing(start, end)
        windows[key] = (start, end)
        problem = problem or check(v.case, v.want, out)
        if problem:
            result.failures.append(f"{key}: {problem} after {end - start:.3f} s")
    meter.sample()
    for key, (start, end) in windows.items():
        result.scale[key] = meter.scale(start, end)
    return result


def run_passes(
    verdicts, seconds: float, deadline: float, meter: Speedometer, tracer: Tracer | None = None
) -> list[Pass]:
    """Passes until the next one would end after ``seconds``; at least one."""
    passes: list[Pass] = []
    start = perf_counter()
    while True:
        p = run_pass(verdicts, deadline, meter, tracer)
        passes.append(p)
        now = perf_counter()
        if p.failures or now - start + p.raw_wall_s > seconds or now + p.raw_wall_s > deadline:
            return passes


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(passes: list[Pass], verdicts, setup_times: list[float]) -> tuple[dict, dict]:
    """The percentiles are over the verdicts' medians across passes, so
    they do not depend on how many passes fitted in the run."""
    wall = statistics.median(p.wall_s for p in passes)
    per_verdict = {
        v.case.key: statistics.median(p.time(v.case.key) for p in passes) for v in verdicts
    }
    times_ms = sorted(t * 1000.0 for t in per_verdict.values())
    slowest = times_ms[::-1]
    metrics = {
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "wall_s": _metric(wall, "s"),
        "verdict_ms.p50": _metric(statistics.median(times_ms), "ms"),
        "verdict_ms.p90": _metric(statistics.quantiles(times_ms, n=10, method="inclusive")[8], "ms"),
        "verdict_s.slowest1": _metric(slowest[0] / 1000.0, "s"),
        "verdict_s.slowest2": _metric(slowest[1] / 1000.0, "s"),
        "verdict_s.slowest3": _metric(slowest[2] / 1000.0, "s"),
        "refuted_per_s": _metric(sum(v.refuted for v in verdicts) / wall, "1/s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    named = {"wall_s as measured, unscaled": statistics.median(p.raw_wall_s for p in passes)}
    named |= {
        f"verdict_s.{key.split(':', 1)[1]} ({key.split(':', 1)[0]})": t
        for key, t in sorted(per_verdict.items(), key=lambda kv: -kv[1])
        if t >= NAMED_VERDICT_S
    }
    return metrics, named


def per_layer(untraced: list[Pass], traced: list[Pass], tracer: Tracer, verdicts) -> dict:
    rows = reduce(tracer.spans, {p.spans[k]: p.scale[k] for p in traced for k in p.spans})
    count = len(traced)

    def ms(name, column):
        return _metric(rows[name][column] * 1000.0 / count if name in rows else 0.0, "ms")

    def calls(name, column="calls"):
        return _metric(rows[name][column] / count if name in rows else 0, "count")

    cases = [v.case for v in verdicts]
    candidates = sum(v.refuted for v in verdicts if v.case.kind == "bondage")
    refute_s = rows["bondage.refute"]["self"] / count if "bondage.refute" in rows else 0.0
    pool_sets = sum(rows[n]["size"] for n in ("bondage.pool_enumerate", "bondage.pool_restart") if n in rows)
    formulas = [row for name, row in rows.items() if name.startswith("formulas.")]
    traced_wall = sum(p.wall_s for p in traced) / count
    metrics = {
        "bondage.refute.self_ms": ms("bondage.refute", "self"),
        "bondage.refute.calls": calls("bondage.refute"),
        "bondage.candidates": _metric(candidates, "count"),
        "bondage.candidates_per_s": _metric(candidates / refute_s if refute_s else 0.0, "1/s"),
        "bondage.pool_enumerate.ms": ms("bondage.pool_enumerate", "total"),
        "bondage.pool_restart.ms": ms("bondage.pool_restart", "total"),
        "bondage.pool.sets": _metric(pool_sets / count, "count"),
        "bondage.is_bondage_set.ms": ms("bondage.is_bondage_set", "total"),
        "bondage.is_bondage_set.calls": calls("bondage.is_bondage_set"),
        "bondage.bondage_number.calls": calls("bondage.bondage_number"),
        "domination.witness.self_ms": ms("domination.witness", "self"),
        "domination.witness.lex_rank": _metric(
            sum(
                lex_rank(c.order, v.want["witness"])
                for c, v in zip(cases, verdicts)
                if c.kind == "gamma"
            ),
            "count",
        ),
        "domination.gamma_value.ms": ms("domination.gamma_value", "total"),
        "domination.gamma_value.calls": calls("domination.gamma_value"),
        "domination.enumerate.ms": ms("domination.enumerate", "total"),
        "domination.enumerate.sets": calls("domination.enumerate", "size"),
        "graphs.strong_product.ms": ms("graphs.strong_product", "total"),
        "graphs.strong_product.calls": calls("graphs.strong_product"),
        "graphs.edges": _metric(sum(c.edges for c in cases if c.builds_product), "count"),
        "harness.verify_instance.self_ms": ms("harness.verify_instance", "self"),
        "harness.build_instance.self_ms": ms("harness.build_instance", "self"),
        "harness.prescribed_bondage_set.ms": ms("harness.prescribed_bondage_set", "total"),
        "harness.mds_structure_entries.self_ms": ms("harness.mds_structure_entries", "self"),
        "formulas.ms": _metric(sum(r["total"] for r in formulas) * 1000.0 / count, "ms"),
        "formulas.calls": _metric(sum(r["calls"] for r in formulas) / count, "count"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = ms("layer:" + layer, "self")
    metrics["trace.wall_s"] = _metric(traced_wall, "s")
    metrics["trace.overhead_s"] = _metric(
        traced_wall - sum(p.wall_s for p in untraced) / len(untraced), "s"
    )
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = perf_counter() + RUN_LIMIT_S

    if not (SRC / "strongdom" / "__init__.py").is_file():
        print(f"error: no strongdom sources under {SRC}", file=sys.stderr)
        return 2
    if not FIXTURE.is_file():
        print(f"error: missing known answers {FIXTURE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    with open(FIXTURE, encoding="utf-8") as fh:
        fixture = json.load(fh)["verdicts"]
    meter = Speedometer()
    meter.start()
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            elapsed, mods, verdicts = setup(args.workload, args.seed, fixture, meter)
            setup_times.append(elapsed)
        gc.collect()  # drop the earlier imports, so collections later cost what they would in one import
        if not Path(mods.harness.__file__).resolve().is_relative_to(SRC):
            print(f"error: strongdom imported from {mods.harness.__file__}, not {SRC}", file=sys.stderr)
            return 2
        signal.signal(signal.SIGALRM, _on_alarm)
        if args.trace:
            untraced = run_passes(verdicts, args.seconds / 2, deadline, meter)
            tracer = Tracer(meter.clock)
            missing = tracer.install(mods)
            try:
                traced = run_passes(verdicts, args.seconds / 2, deadline, meter, tracer)
            finally:
                tracer.uninstall()
        else:
            passes = run_passes(verdicts, args.seconds, deadline, meter)
    finally:
        meter.stop()
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    if args.trace:
        passes = untraced + traced
        metrics = per_layer(untraced, traced, tracer, verdicts)
        named = {
            "layer self times, summed": sum(metrics[f"{layer}.self_ms"]["value"] for layer in LAYERS)
            / 1000.0
        }
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.json")
        if missing:
            print(f"not traced (gone from strongdom): {', '.join(missing)}")
    else:
        metrics, named = end_to_end(passes, verdicts, setup_times)

    attempted = sum(len(p.raw) for p in passes)
    failures = [f for p in passes for f in p.failures]
    print(
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"passes {len(passes)}  verdicts {attempted}"
    )
    for line in failures:
        print(f"FAILED {line}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    for name, t in named.items():
        print(f"  {name:40s} {t:>16.6g} s")
    print(f"  {'failed_frac':40s} {len(failures) / attempted:>16.6g} (of {attempted} verdicts)")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

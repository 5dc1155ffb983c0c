import json
from pathlib import Path

import pytest

from strongdom import harness
from strongdom.cli import main
from strongdom.graphs import complete_graph, parse_graph_text

from ticking_clock import ticking_time

# the search that a budget skip in test_bondage_failure_is_one_line names
SKIPPED_IN = {"bondage": "bondage scan", "gamma": "cover search"}


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


def test_gamma_command(capsys):
    code, out = run(capsys, "gamma", "--family", "km-pn", "--m", "3", "--n", "7")
    assert code == 0
    assert "= 3" in out


def test_gamma_json(capsys):
    code, out = run(capsys, "gamma", "--family", "path", "--n", "4", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["gamma"] == 2
    assert payload["witness"] == [0, 2]


def test_bondage_command(capsys):
    code, out = run(capsys, "bondage", "--family", "path", "--n", "4", "--json")
    assert code == 0
    assert json.loads(out)["bondage"] == 2


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ("gamma", "--family", "km-pn", "--m", "3", "--n", "7"),
            "gamma(km-pn(m=3,n=7)) = 3\nwitness: [0, 2, 5]\n",
        ),
        (
            ("gamma", "--family", "km-pn", "--m", "3", "--n", "7", "--json"),
            '{"instance": {"family": "km-pn", "m": 3, "n": 7}, "gamma": 3, "witness": [0, 2, 5]}\n',
        ),
        (
            ("bondage", "--family", "km-pn", "--m", "2", "--n", "4"),
            "bondage(km-pn(m=2,n=4)) = 3\nwitness: [(0, 1), (0, 4), (0, 5)]\n",
        ),
        (
            ("bondage", "--family", "km-pn", "--m", "2", "--n", "4", "--json"),
            '{"instance": {"family": "km-pn", "m": 2, "n": 4}, "bondage": 3, '
            '"witness": [[0, 1], [0, 4], [0, 5]]}\n',
        ),
        (("gamma", "--family", "complete", "--m", "3"), "gamma(complete(m=3)) = 1\nwitness: [0]\n"),
    ],
)
def test_value_command_output_is_pinned(capsys, argv, expected):
    assert run(capsys, *argv) == (0, expected)


def test_budget_flag_accepts_fractions(capsys):
    flags = ("--family", "path", "--n", "4", "--budget-seconds", "0.5", "--json")
    code, out = run(capsys, "bondage", *flags)
    assert code == 0
    assert json.loads(out)["bondage"] == 2


@pytest.mark.parametrize(
    "flags",
    [
        ("bondage", "--budget-seconds", "0"),
        ("bondage", "--max-size", "1"),
        ("bondage", "--seed", "1"),
        ("bondage", "--full-search"),
        # no search takes a size cap: the wall budget is its only bound
        ("verify", "--max-size", "1"),
        ("sweep", "--max-size", "1"),
    ],
)
def test_bad_search_flags_are_usage_errors(capsys, flags):
    command, *rest = flags
    with pytest.raises(SystemExit) as exc:
        main([command, "--family", "path", "--n", "4", *rest])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "flags", [("--max-size", "1"), ("--full-search",), ("--quantity", "gamma"), ("--jobs", "2")]
)
def test_gamma_rejects_search_flags(capsys, flags):
    with pytest.raises(SystemExit) as exc:
        main(["gamma", "--family", "path", "--n", "4", *flags])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "flags, prefix",
    [
        (
            ("bondage", "--family", "km-pn", "--m", "2", "--n", "3")
            + ("--budget-seconds", "0.5"),
            "skipped: ",
        ),
        (("bondage", "--family", "path", "--n", "1"), "error: "),
        (("gamma", "--family", "km-pn", "--m", "3"), "error: "),
        (("gamma", "--family", "path", "--n", "0"), "error: "),
        (("product", "--family", "km-pn", "--m", "2"), "error: "),
        (("gamma", "--graph", str(Path(__file__).with_name("missing.graph"))), "error: "),
        (("mds-check", "--m", "0", "--n", "3"), "error: "),
        # a flag the family does not take
        (
            ("gamma", "--family", "path", "--n", "4", "--m", "7", "--json"),
            "error: path takes only n, not m",
        ),
        (
            ("verify", "--family", "km-pn", "--m", "2", "--n", "3", "--branches", "1,2"),
            "error: km-pn takes only m and n, not branches",
        ),
        (
            ("sweep", "--family", "complete", "--m", "2..3", "--n", "4"),
            "error: complete takes only m, not n",
        ),
        (
            ("bondage", "--family", "km-pn", "--m", "2", "--n", "3", "--graph", "g.txt"),
            "error: km-pn takes only m and n, not path",
        ),
        # only sweep repeats --branches
        *(
            (
                (command, "--family", "km-starlike", "--m", "2")
                + ("--branches", "1,1", "--branches", "2,2"),
                f"error: {command} takes one --branches list, got 2",
            )
            for command in ("gamma", "bondage", "verify", "product")
        ),
        (
            ("gamma", "--family", "km-pn", "--m", "3", "--n", "7")
            + ("--budget-seconds", "0.5"),
            "skipped: ",
        ),
        # a branch length out of range, as for any other size flag
        (
            ("verify", "--family", "km-starlike", "--m", "2", "--branches", "0,1")
            + ("--quantity", "gamma"),
            "error: branch lengths must be positive",
        ),
    ],
)
def test_bondage_failure_is_one_line(capsys, flags, prefix):
    # each clock read is one tick, so a budget of 0.5 is past by the first
    # search's entry check
    with ticking_time():
        code = main(list(flags))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(prefix) and captured.err.count("\n") == 1
    if prefix == "skipped: ":
        assert captured.err == f"skipped: deadline hit on entry to the {SKIPPED_IN[flags[0]]}\n"


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_jobs_must_be_positive(capsys, jobs):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--family", "km-pn", "--m", "2", "--n", "3", "--jobs", jobs])
    assert exc.value.code == 2


def test_verify_command(capsys):
    code, out = run(
        capsys, "verify", "--family", "km-pn", "--m", "2", "--n", "3", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["fail"] == 0
    assert len(payload["entries"]) == 2


@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_skipped_entry_exits_1(capsys, command):
    # clock reads: the deadline, gamma, the witness check, then the scan
    flags = (command, "--family", "km-pn", "--m", "2", "--n", "3", "--quantity", "bondage")
    with ticking_time():
        code, out = run(capsys, *flags, "--budget-seconds", "2.5", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["summary"] == {"pass": 0, "fail": 0, "skipped": 1}
    assert payload["entries"][0]["note"] == "skipped: deadline hit on entry to the bondage scan"


def test_verify_config_records_the_budget(capsys):
    code, out = run(
        capsys,
        "verify",
        "--family",
        "path",
        "--n",
        "4",
        "--budget-seconds",
        "30",
        "--json",
    )
    assert code == 0
    config = json.loads(out)["config"]
    assert config == {"quantity": "both", "full_search": False, "budget_seconds": 30.0}


def test_verify_starlike(capsys):
    code, out = run(
        capsys,
        "verify",
        "--family",
        "km-starlike",
        "--m",
        "2",
        "--branches",
        "1,1",
        "--quantity",
        "bondage",
        "--json",
    )
    assert code == 0
    entry = json.loads(out)["entries"][0]
    assert entry["formula_value"] == 1 and entry["match"]


def test_sweep_command_deterministic(capsys):
    args = (
        "sweep",
        "--family",
        "km-pn",
        "--m",
        "1..2",
        "--n",
        "2,3,4",
        "--quantity",
        "bondage",
        "--json",
    )
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args, "--jobs", "2")
    assert code1 == code2 == 0

    def strip(text):
        payload = json.loads(text)
        payload.pop("total_elapsed_ms")
        for e in payload["entries"]:
            e.pop("elapsed_ms")
        return payload

    assert strip(out1) == strip(out2)


def test_mds_check_command(capsys):
    code, out = run(capsys, "mds-check", "--m", "1..2", "--n", "2..4", "--json")
    assert code == 0
    assert json.loads(out)["summary"]["fail"] == 0


def test_product_command(capsys):
    code, out = run(capsys, "product", "--family", "km-pn", "--m", "2", "--n", "2")
    assert code == 0
    assert parse_graph_text(out).rows == complete_graph(4).rows


def test_product_to_file(tmp_path, capsys):
    target = tmp_path / "out.graph"
    code, _ = run(
        capsys, "product", "--family", "complete", "--m", "3", "--output", str(target)
    )
    assert code == 0
    assert parse_graph_text(target.read_text()).rows == complete_graph(3).rows


def test_file_instance(tmp_path, capsys):
    target = tmp_path / "p3.graph"
    target.write_text("3\n0 1\n1 2\n")
    code, out = run(capsys, "gamma", "--graph", str(target), "--json")
    assert code == 0
    assert json.loads(out)["gamma"] == 1


def test_missing_family_is_an_error(capsys):
    with pytest.raises(SystemExit):
        main(["gamma", "--m", "3"])


def test_verify_mismatch_exit_code(monkeypatch, capsys):
    # every formula holds, so a failing entry needs a formula that is wrong:
    # the full search finds b(P_4) = 2 against a formula value of 3
    monkeypatch.setattr(harness, "formula_value", lambda spec, quantity: 3)
    code, out = run(
        capsys,
        "verify",
        "--family",
        "path",
        "--n",
        "4",
        "--quantity",
        "bondage",
        "--full-search",
        "--json",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["summary"]["fail"] == 1
    assert payload["entries"][0]["computed_value"] == 2

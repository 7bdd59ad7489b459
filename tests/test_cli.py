"""cli surface: formats, exit-code contract, gen/check round trips."""

import argparse
import io
import json
import random
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from tumax import cli
from tumax.cli import EXIT_BUDGET, EXIT_FAIL, EXIT_OK, EXIT_USAGE, main, run
from tumax.errors import UsageError
from tumax.families import bipartite_extremal, sporadic_5x10
from tumax.matrix import IntMatrix, parse_matrix_text

from cli_corpus import CORPUS, replay, stdout_text
from helpers import random_network_tu
from specgen import random_spec


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


GEN_COMMANDS = [
    (["gen", "heller", "--m", "3"], "tu", EXIT_OK),
    (["gen", "heller", "--m", "4"], "tu", EXIT_OK),
    (["gen", "bipartite", "--m", "3"], "prepared", EXIT_OK),
    (["gen", "bipartite", "--m", "6"], "prepared", EXIT_OK),
    (["gen", "sporadic-5x10"], "prepared", EXIT_OK),
    (["gen", "sporadic-5x5", "--variant", "1"], "tu", EXIT_OK),
    (["gen", "sporadic-5x5", "--variant", "2"], "tu", EXIT_OK),
    (["gen", "ex4"], "tu", EXIT_FAIL),
    (["gen", "ex4"], "unimodular-polytope", EXIT_OK),
    (["gen", "simplex-product", "--a", "2", "--b", "2"],
     "unimodular-polytope", EXIT_OK),
    (["gen", "edge-polytope", "--complete", "2", "3"],
     "unimodular-polytope", EXIT_OK),
    # a single point in dimension 0: a 0 x 1 matrix
    (["gen", "simplex-product", "--a", "0", "--b", "0"],
     "unimodular-polytope", EXIT_OK),
]


@pytest.mark.parametrize("gen_argv,check_what,expected", GEN_COMMANDS)
def test_gen_round_trips_and_certifies(tmp_path, gen_argv, check_what, expected):
    report = run(gen_argv)
    assert report.exit_status == EXIT_OK
    text = report.artifact_text
    # byte-identical round trip through the text format
    assert parse_matrix_text(text).to_text() == text
    path = _write(tmp_path, "m.txt", text)
    verdict = run(["check", check_what, path])
    assert verdict.exit_status == expected


def test_exit_code_contract_corpus(tmp_path):
    """>= 20 fixtures covering all four exit statuses."""
    spor = _write(tmp_path, "spor.txt", run(["gen", "sporadic-5x10"]).artifact_text)
    ex4 = _write(tmp_path, "ex4.txt", run(["gen", "ex4"]).artifact_text)
    heller = _write(tmp_path, "heller.txt",
                    run(["gen", "heller", "--m", "3"]).artifact_text)
    dup = _write(tmp_path, "dup.txt", "2 4\n1 0 1 0\n0 1 0 1\n")
    not_poly = _write(tmp_path, "notpoly.txt", "1 2\n1 -1\n")
    rankdef = _write(tmp_path, "rankdef.txt", "2 2\n1 1\n1 1\n")
    two = _write(tmp_path, "two.txt", "1 1\n2\n")
    bad_header = _write(tmp_path, "bad1.txt", "nonsense\n")
    bad_row = _write(tmp_path, "bad2.txt", "2 2\n1 0\n1\n")
    bad_entry = _write(tmp_path, "bad3.txt", "1 1\nx\n")
    tree = _write(tmp_path, "tree.txt", "3 2\n0 1\n1 2\n")
    not_tree = _write(tmp_path, "cycle.txt", "3 3\n0 1\n1 2\n2 0\n")
    digraph = _write(tmp_path, "dig.txt", "3 2\n0 2\n1 0\n")
    extra_arc = _write(tmp_path, "extra.txt", "3 2\n0 1\n1 2\n2 0\n")
    neg_arcs = _write(tmp_path, "negarcs.txt", "3 -1\n")
    paths = _write(tmp_path, "paths.txt", "0 2\n1 2\n")
    neg_seg = _write(tmp_path, "neg.txt", "1 2\n-1 1\n")

    rng = random.Random(90)
    spec_two = _write(tmp_path, "two_spec.json",
                      json.dumps(random_spec(rng, "two-sum").to_json_dict()))
    spec_delta = _write(tmp_path, "delta_spec.json",
                        json.dumps(random_spec(rng, "delta-sum").to_json_dict()))
    not_utf8 = tmp_path / "latin1.txt"
    not_utf8.write_bytes(b"1 1\n\xff\n")
    bad_json = _write(tmp_path, "bad.json", "{bad")
    no_blocks = _write(tmp_path, "noblocks.json", '{"kind": "one-sum"}')
    bad_vec = json.loads((tmp_path / "two_spec.json").read_text(encoding="utf-8"))
    bad_vec["v"] = ["x"]
    bad_vec = _write(tmp_path, "badvec.json", json.dumps(bad_vec))

    corpus = [
        (["check", "tu", spor], EXIT_OK),
        (["check", "tu", ex4], EXIT_FAIL),
        (["check", "tu", heller], EXIT_OK),
        (["check", "tu", two], EXIT_FAIL),
        (["check", "unimodular", spor], EXIT_OK),
        (["check", "unimodular", rankdef], EXIT_USAGE),
        (["check", "polytopal", spor], EXIT_OK),
        (["check", "polytopal", not_poly], EXIT_FAIL),
        (["check", "prepared", spor], EXIT_OK),
        (["check", "prepared", dup], EXIT_FAIL),
        (["check", "unimodular-polytope", ex4], EXIT_OK),
        (["check", "unimodular-polytope", neg_seg], EXIT_FAIL),
        (["check", "tu", bad_header], EXIT_USAGE),
        (["check", "tu", bad_row], EXIT_USAGE),
        (["check", "tu", bad_entry], EXIT_USAGE),
        (["check", "tu", str(tmp_path / "missing.txt")], EXIT_USAGE),
        (["network", "build", tree, digraph], EXIT_OK),
        (["network", "build", not_tree, digraph], EXIT_USAGE),
        (["network", "patterns", tree, paths], EXIT_OK),
        (["network", "bounds", tree, digraph], EXIT_OK),
        (["network", "build", extra_arc, digraph], EXIT_USAGE),
        (["network", "build", tree, neg_arcs], EXIT_USAGE),
        (["sum", "two", spec_two], EXIT_OK),
        (["sum", "delta", spec_delta], EXIT_OK),
        (["sum", "one", spec_two], EXIT_USAGE),
        (["check", "tu", str(tmp_path)], EXIT_USAGE),
        (["check", "tu", str(not_utf8)], EXIT_USAGE),
        (["sum", "one", bad_json], EXIT_USAGE),
        (["sum", "one", no_blocks], EXIT_USAGE),
        (["sum", "two", bad_vec], EXIT_USAGE),
        (["sum", "transport", spec_two, "--f", "1,x", "--w", "1"],
         EXIT_USAGE),
        (["sum", "transport", spec_two, "--f", "1", "--w", "1,x"],
         EXIT_USAGE),
        (["gen", "edge-polytope", "--graph", tree, "--part-a", "0,x"],
         EXIT_USAGE),
        (["verify", "extralemma", "--max", "50"], EXIT_OK),
        (["verify", "heller-bound", "--m", "2"], EXIT_OK),
        (["verify", "polytopal-bound", "--m", "3"], EXIT_OK),
        (["verify", "polytopal-bound", "--m", "4", "--budget-nodes", "5"],
         EXIT_BUDGET),
        (["verify", "heller-bound", "--m", "3", "--budget-nodes", "0"],
         EXIT_BUDGET),
        (["verify", "heller-bound", "--m", "3", "--budget-nodes", "-5"],
         EXIT_USAGE),
        (["verify", "polytopal-bound", "--m", "3", "--workers", "2"],
         EXIT_USAGE),
        (["verify", "polytopal-bound", "--m", "x"], EXIT_USAGE),
        (["verify", "transpose-bound", "--samples", "40"], EXIT_OK),
        (["verify", "transpose-bound", "--samples", "-4"], EXIT_USAGE),
        (["verify", "vertex-bound", ex4], EXIT_OK),
        (["classify", "--d", "2"], EXIT_OK),
        (["classify", "--d", "5"], EXIT_BUDGET),
        (["classify", "--d", "5", "--stretch"], EXIT_USAGE),
    ]
    assert len(corpus) >= 20
    for argv, expected in corpus:
        assert main(argv) == expected, f"{argv} expected exit {expected}"


SPEC_FIELDS = ("A", "B", "C", "u", "v", "u_prime", "v_prime",
               "u1", "u2", "u3", "v1", "v2", "v3", "x")


@pytest.mark.parametrize("bad", [1.5, 1.0, True, "1"])
@pytest.mark.parametrize("field", SPEC_FIELDS)
def test_sum_spec_accepts_only_json_integers(tmp_path, capsys, field, bad):
    data = random_spec(random.Random(91), "delta-sum").to_json_dict()
    if field == "x":
        data["x"] = bad
    elif field in ("A", "B", "C"):
        rows = data.get(field, [[0]])
        data[field] = [[bad] + rows[0][1:]] + rows[1:]
    else:
        data[field] = [bad] + data.get(field, [0])[1:]
    path = _write(tmp_path, "spec.json", json.dumps(data))
    assert main(["sum", "delta", path]) == EXIT_USAGE
    assert f"error: {field} must" in capsys.readouterr().err


def test_run_raises_usage_error_on_unknown_flag():
    with pytest.raises(UsageError, match="unrecognized arguments: --workers"):
        run(["verify", "polytopal-bound", "--m", "3", "--workers", "2"])
    # --help is not an error: argparse still prints it and exits 0
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--help"])
    assert exc.value.code == 0


def _parsed(parse, argv):
    """What ``parse(argv)`` gives: the namespace, the UsageError text, or
    the exit code and printed text of ``--help``."""
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            return "namespace", parse(argv)
    except UsageError as exc:
        return "usage error", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, out.getvalue()


# command lines the corpus lacks: each leaves the leaf route somewhere
# argparse treats specially
LEAF_ROUTE_EDGES = [
    ["--format", "json", "check", "tu", "m.txt"],
    ["--format=text", "gen", "ex4"],
    ["check", "tu", "m.txt", "--format", "json"],
    ["check", "tu", "m.txt", "extra.txt"],
    ["classify", "--d", "2", "3"],
    ["check", "tu", "--", "m.txt"],
    ["check", "tu", "--method", "gh", "--", "-m.txt"],
    ["verify", "polytopal-bound", "--m", "3", "--mo", "fast"],
    ["verify", "polytopal-bound", "--m=3"],
    ["verify", "polytopal-bound", "--m", "3", "--m", "4"],
    ["verify", "heller-bound", "--m"],
    ["check"],
    ["check", "tu"],
    ["check", "frobnicate", "m.txt"],
    ["frobnicate", "tu"],
    [],
    ["gen", "simplex-product", "--a", "-1", "--b", "2"],
    ["gen", "simplex-product", "--a", "-1"],
    ["gen", "edge-polytope", "--complete", "1", "-2"],
    ["check", "tu", "m.txt", "-h"],
    ["check", "--help"],
    ["--help"],
    ["classify", "--help"],
]


def test_leaf_parsers_match_the_tree():
    """Each leaf parser, built alone on first use, prints the help of the
    tree's parser for the same leaf; and every command line of the corpus
    and of ``LEAF_ROUTE_EDGES`` parses to the namespace, usage error or
    help that the whole tree gives."""
    tree = cli._parser()
    for key in cli._LEAVES:
        assert _parsed(tree.parse_args, [*key, "--help"]) == \
            ("exit", 0, cli._leaf(key).format_help()), key
    argvs = [e["argv"] for e in json.loads(CORPUS.read_text())]
    for argv in argvs + LEAF_ROUTE_EDGES:
        assert _parsed(cli._parse_args, argv) == \
            _parsed(tree.parse_args, argv), argv
    # the leaf route gives the namespace of argparse's subparser step
    assert vars(cli._parse_args(["check", "tu", "m.txt"])) == {
        "format": None, "command": "check", "what": "tu", "file": "m.txt",
        "method": "auto"}
    assert vars(cli._parse_args(["classify", "--d", "2"])) == {
        "format": None, "command": "classify", "d": 2}


def test_classify_d5_exceeds_desk_scale(capsys):
    assert main(["classify", "--d", "5"]) == EXIT_BUDGET
    assert capsys.readouterr().err == \
        "budget exceeded: d = 5 classification exceeds desk scale\n"


def test_reader_closing_early_leaves_the_exit_status(tmp_path):
    """``tumax ... | head -c 0``: the reader is gone before the report is
    written, and the command still exits with the report's own status,
    printing nothing to stderr."""
    ex4 = _write(tmp_path, "ex4.txt", run(["gen", "ex4"]).artifact_text)
    for argv, status in ((["classify", "--d", "2"], EXIT_OK),
                         (["check", "tu", ex4], EXIT_FAIL)):
        proc = subprocess.Popen([sys.executable, "-m", "tumax"] + argv,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == status, argv
        assert err == b"", argv


def test_check_unimodular_past_the_order_m_minor_count(tmp_path):
    """A 12 x 30 (I | network) matrix has C(30, 12) order-12 minors; the
    verdict comes from the 12 x 18 TU check instead."""
    network = random_network_tu(random.Random(49), 12, 18)
    m = IntMatrix.identity(12).hstack(network)
    path = _write(tmp_path, "wide.txt", m.to_text())
    assert main(["check", "unimodular", path]) == EXIT_OK


@pytest.mark.parametrize("n_entries", [[], [(3, 5, 2)]])
def test_check_unimodular_over_the_row_budget(tmp_path, capsys, n_entries):
    """(I_21 | N) leaves a 21 x 21 block N, past the Ghouila-Houri budget.
    With N = I the check exits 3, with a text that names the 21 x 42 input
    and only the Ghouila-Houri budget. An entry 2 in N is a 1 x 1 minor
    outside the signs, which decides before the budget: not unimodular."""
    n = IntMatrix.identity(21).to_lists()
    for i, j, value in n_entries:
        n[i][j] = value
    m = IntMatrix.identity(21).hstack(IntMatrix.from_rows(n))
    path = _write(tmp_path, "wide.txt", m.to_text())
    status = main(["check", "unimodular", path])
    captured = capsys.readouterr()
    if n_entries:
        assert (status, captured.err) == (EXIT_FAIL, "")
        assert json.loads(captured.out)["result"] == {"is_unimodular": False}
        return
    assert (status, captured.out) == (EXIT_BUDGET, "")
    assert captured.err == (
        "budget exceeded: matrix size 21x42: its non-pivot block N has 21 "
        "rows on its smaller side, more than the Ghouila-Houri budget admits "
        "(rows <= 20)\n")


def test_a_wide_segment_is_answered_exactly(tmp_path, capsys):
    """Entries of +-(2^63 - 1), whose difference 2^64 - 2 is computed, not
    read: no 64-bit overflow error, but the segment's own witness (the
    corpus entry ``check unimodular-polytope/wide-segment`` pins the
    check)."""
    path = _write(tmp_path, "wide.txt",
                  "1 2\n-9223372036854775807 9223372036854775807\n")
    assert main(["verify", "vertex-bound", path]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: not a unimodular polytope; witness ((0, 1), "
        "18446744073709551614)\n")


def _counting_minor_scans(monkeypatch):
    from tumax import kernels

    calls = []
    real = kernels.tu_violation

    def counted(rows):
        calls.append(len(rows))
        return real(rows)

    monkeypatch.setattr(kernels, "tu_violation", counted)
    return calls


def test_verdict_only_commands_run_no_minor_scan(tmp_path, monkeypatch):
    """``check prepared`` and every ``sum`` kind read only a bool, so they
    decide TU by Ghouila-Houri; ``check tu`` in auto mode within the minor
    budget still runs the ordered scan once, for its first witness."""
    calls = _counting_minor_scans(monkeypatch)
    prepared = _write(tmp_path, "p.txt", sporadic_5x10().to_text())
    assert run(["check", "prepared", prepared]).exit_status == EXIT_OK
    rng = random.Random(58)
    for what in ("one", "two", "three", "delta"):
        spec = random_spec(rng, f"{what}-sum")
        path = _write(tmp_path, f"{what}.json", json.dumps(spec.to_json_dict()))
        assert run(["sum", what, path]).exit_status == EXIT_OK
    assert calls == []
    assert run(["check", "tu", prepared]).exit_status == EXIT_OK
    assert calls == [5]


@pytest.mark.parametrize("cols", [1, 3, 10])
def test_check_prepared_past_both_tu_budgets(tmp_path, cols):
    """Columns e_1 .. e_cols of Z^21: past the minor budget, and 21 rows
    as given, but Ghouila-Houri decides them on their columns. So ``check
    tu`` (auto and ``--method gh``) answers TU, and ``check prepared``
    answers prepared, since the columns are distinct and polytopal."""
    m = IntMatrix.identity(21).submatrix(range(21), range(cols))
    path = _write(tmp_path, "tall.txt", m.to_text())
    for method in ([], ["--method", "gh"]):
        rep = run(["check", "tu", path, *method])
        assert (rep.exit_status, rep.result) == (EXIT_OK, {
            "is_tu": True, "method": "ghouila-houri", "witness": None})
    rep = run(["check", "prepared", path])
    assert (rep.exit_status, rep.result) == (EXIT_OK, {"prepared": True})


@pytest.mark.parametrize("argv", [["tu"], ["tu", "--method", "gh"],
                                  ["prepared"]])
def test_21_rows_on_both_sides_exit_3_with_one_text(tmp_path, capsys, argv):
    """I_21 has 21 rows on its smaller side: every verdict-only route and
    ``check tu`` exit 3 with Ghouila-Houri's one text, naming the shape."""
    path = _write(tmp_path, "square.txt", IntMatrix.identity(21).to_text())
    assert main(["check", argv[0], path, *argv[1:]]) == EXIT_BUDGET
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "budget exceeded: matrix size 21x21 has 21 rows on its smaller side, "
        "more than the Ghouila-Houri budget admits (rows <= 20)\n")


def test_check_prepared_decides_a_wide_input_on_its_rows(tmp_path):
    """A 10 x 21 prepared input: Ghouila-Houri on its 10 rows."""
    m = bipartite_extremal(10).submatrix(range(10), range(21))
    path = _write(tmp_path, "wide.txt", m.to_text())
    rep = run(["check", "prepared", path])
    assert (rep.exit_status, rep.result) == (EXIT_OK, {"prepared": True})


def test_network_build_matches_module(tmp_path):
    tree = _write(tmp_path, "t.txt", "4 3\n0 1\n1 2\n2 3\n")
    dig = _write(tmp_path, "d.txt", "4 2\n0 3\n3 0\n")
    rep = run(["network", "build", tree, dig])
    m = parse_matrix_text(rep.artifact_text)
    assert m.columns() == [(1, 1, 1), (-1, -1, -1)]


def test_sum_transport_cli(tmp_path):
    rng = random.Random(91)
    spec = random_spec(rng, "delta-sum")
    from tumax.sums import compose

    composed = compose(spec).matrix
    f = tuple([1] + [0] * (composed.rows - 1))
    w = tuple(composed.row(0))
    path = _write(tmp_path, "spec.json", json.dumps(spec.to_json_dict()))
    rep = run(["sum", "transport", path, "--f", ",".join(map(str, f)),
               "--w", ",".join(map(str, w))])
    assert rep.exit_status == EXIT_OK
    assert len(rep.result["parts"]) == 2


def test_verify_reports_payload():
    rep = run(["verify", "polytopal-bound", "--m", "4"])
    assert rep.result["search"]["max_columns"] == 6
    assert rep.result["expected"] == 6
    assert rep.result["matches_expected"] is True
    assert set(rep.result["search"]) == {
        "m", "mode", "max_columns", "witness", "nodes", "complete", "seconds"}
    rep = run(["verify", "odd-bound", "--m", "3"])
    assert rep.result["expected"] is None
    assert rep.exit_status == EXIT_OK


def test_classify_cli_payload():
    rep = run(["classify", "--d", "2"])
    assert rep.result["count"] == 2
    assert len(rep.result["classes"]) == 2
    for cls in rep.result["classes"]:
        assert set(cls) == {"dimension", "vertex_count", "vertices",
                            "fingerprint"}


CLASSIFY_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "classify_cli.json").read_text())


@pytest.mark.parametrize("argv", list(CLASSIFY_GOLDEN))
def test_classify_json_matches_golden(argv, capsys):
    """Classes, vertex lists, fingerprints and their order, pinned. The
    d = 4 run merges 11 pairs of 8- and 9-point polytopes with equal
    fingerprints that are not isomorphic; they are too slow for
    ``oracles.lattice_isomorphic_bruteforce``, so this is their check."""
    assert main(["--format", "json"] + argv.split()) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == CLASSIFY_GOLDEN[argv]


def test_cli_corpus_replays_byte_for_byte(tmp_path):
    """Every entry of ``data/cli_corpus.json`` (``tests/cli_corpus.py``
    writes it) gives the same stdout, stderr and exit status again."""
    moved = []
    for entry in json.loads(CORPUS.read_text()):
        got = replay(entry["argv"], entry["input"], tmp_path)
        if got != (stdout_text(entry["stdout"]), entry["stderr"],
                   entry["exit"]):
            moved.append((entry["name"], got))
    assert moved == []


def test_invalid_choice_texts_are_tumax_own(tmp_path, monkeypatch):
    """The corpus's invalid-choice errors (a subcommand name, ``--method``,
    ``--variant``, ``--mode``) replay with argparse's own choice check
    made to fail, so no stored text depends on the CPython release."""
    def not_called(parser, action, value):
        raise AssertionError("argparse's _check_value was called")

    monkeypatch.setattr(argparse.ArgumentParser, "_check_value", not_called)
    entries = [e for e in json.loads(CORPUS.read_text())
               if "invalid choice" in e["stderr"]]
    assert len(entries) == 5
    for entry in entries:
        got = replay(entry["argv"], entry["input"], tmp_path)
        assert got == (stdout_text(entry["stdout"]), entry["stderr"],
                       entry["exit"]), entry["name"]


def test_main_prints_json_for_checks(tmp_path, capsys):
    path = _write(tmp_path, "id.txt", "2 2\n1 0\n0 1\n")
    status = main(["check", "tu", path])
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert status == EXIT_OK
    assert payload["result"]["is_tu"] is True
    assert payload["exit_status"] == EXIT_OK


def test_main_prints_artifact_text_for_gen(capsys):
    status = main(["gen", "sporadic-5x10"])
    out = capsys.readouterr().out
    assert status == EXIT_OK
    assert out.startswith("5 10\n")
    assert parse_matrix_text(out).cols == 10
    status = main(["--format", "json", "gen", "sporadic-5x10"])
    out = capsys.readouterr().out
    assert json.loads(out)["result"]["cols"] == 10


def test_main_takes_format_from_parsed_options(capsys):
    """``--format=json`` is the same option as ``--format json``."""
    for argv in (["--format=json", "gen", "ex4"],
                 ["--format", "json", "gen", "ex4"]):
        assert main(argv) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["command"] == "gen ex4"
    assert main(["--format=text", "gen", "ex4"]) == EXIT_OK
    assert parse_matrix_text(capsys.readouterr().out).rows == 4
    assert main(["--format=text", "verify", "extralemma", "--max", "30"]) \
        == EXIT_OK
    assert capsys.readouterr().out.startswith("verify extralemma: exit 0\n")


def test_cli_subprocess_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "tumax", "verify", "extralemma", "--max", "30"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["result"]["all_match"] is True

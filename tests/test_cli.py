"""cli surface: formats, exit-code contract, gen/check round trips."""

import json
import random
import subprocess
import sys

import pytest

from tumax.cli import EXIT_BUDGET, EXIT_FAIL, EXIT_OK, EXIT_USAGE, main, run
from tumax.errors import FormatError, UsageError
from tumax.matrix import IntMatrix, parse_matrix_text

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
        (["sum", "two", spec_two], EXIT_OK),
        (["sum", "delta", spec_delta], EXIT_OK),
        (["sum", "one", spec_two], EXIT_USAGE),
        (["check", "tu", str(tmp_path)], EXIT_USAGE),
        (["check", "tu", str(not_utf8)], EXIT_USAGE),
        (["sum", "one", bad_json], EXIT_USAGE),
        (["sum", "one", no_blocks], EXIT_USAGE),
        (["sum", "two", bad_vec], EXIT_USAGE),
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
        (["verify", "transpose-bound", "--max-tree-edges", "0"], EXIT_USAGE),
        (["verify", "transpose-bound", "--max-arcs", "0"], EXIT_USAGE),
        (["verify", "vertex-bound", ex4], EXIT_OK),
        (["classify", "--d", "2"], EXIT_OK),
        (["classify", "--d", "5"], EXIT_BUDGET),
    ]
    assert len(corpus) >= 20
    for argv, expected in corpus:
        assert main(argv) == expected, f"{argv} expected exit {expected}"


def test_run_raises_usage_error_on_unknown_flag():
    with pytest.raises(UsageError, match="unrecognized arguments: --workers"):
        run(["verify", "polytopal-bound", "--m", "3", "--workers", "2"])
    # --help is not an error: argparse still prints it and exits 0
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--help"])
    assert exc.value.code == 0


def test_check_unimodular_past_the_order_m_minor_count(tmp_path):
    """A 12 x 30 (I | network) matrix has C(30, 12) order-12 minors; the
    verdict comes from the 12 x 18 TU check instead."""
    network = random_network_tu(random.Random(49), 12, 18)
    m = IntMatrix.identity(12).hstack(network)
    path = _write(tmp_path, "wide.txt", m.to_text())
    assert main(["check", "unimodular", path]) == EXIT_OK


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

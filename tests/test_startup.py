"""Import footprint of the CLI: each command loads only the modules it runs.

Every check runs in a fresh interpreter, since the test process itself has
imported the whole package already.
"""

import json
import random
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

HEAVY = ("tumax.certify", "tumax.families", "tumax.graphs", "tumax.polytopes",
         "tumax.search", "tumax.sums", "tumax.lp", "tumax.linsolve",
         "fractions")


def _fresh(code, value):
    """The JSON value of the expression ``value`` after running ``code``
    in a new interpreter with ``src`` first on the path."""
    script = (f"import sys\nsys.path.insert(0, {SRC!r})\n{code}\n"
              f"import json\nprint(json.dumps({value}))")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def _loaded_after(code, names=HEAVY):
    """The modules of ``names`` in ``sys.modules`` after running ``code``
    in a new interpreter."""
    return set(_fresh(code, f"[m for m in {names!r} if m in sys.modules]"))


def test_importing_the_cli_loads_no_command_module():
    assert _loaded_after("import tumax.cli") == set()


def test_commands_without_exact_arithmetic_load_no_kernel(tmp_path):
    """``IntMatrix`` does no arithmetic, so importing the CLI, ``gen
    heller`` and ``network build`` load neither kernel module."""
    kernels = ("tumax.kernels", "tumax._pykernels")
    assert _loaded_after("import tumax.cli", kernels) == set()
    tree = tmp_path / "tree.txt"
    tree.write_text("3 2\n0 1\n1 2\n", encoding="utf-8")
    digraph = tmp_path / "digraph.txt"
    digraph.write_text("3 1\n0 2\n", encoding="utf-8")
    for argv in (["gen", "heller", "--m", "3"],
                 ["network", "build", str(tree), str(digraph)]):
        loaded = _loaded_after(
            "from tumax import cli\n"
            f"assert cli.run({argv!r}).exit_status == 0", kernels)
        assert loaded == set(), argv


def test_a_search_loads_search_and_nothing_it_does_not_run():
    loaded = _loaded_after(
        "from tumax import cli\n"
        "assert cli.run(['verify', 'polytopal-bound', '--m', '3'])"
        ".exit_status == 0")
    assert "tumax.search" in loaded
    assert loaded.isdisjoint({"tumax.certify", "tumax.graphs",
                              "tumax.polytopes", "tumax.sums", "tumax.lp",
                              "fractions"})


def test_check_tu_loads_certify_and_no_other_command_module(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("2 3\n1 0 1\n0 1 1\n", encoding="utf-8")
    loaded = _loaded_after(
        "from tumax import cli\n"
        f"assert cli.run(['check', 'tu', {str(path)!r}]).exit_status == 0")
    assert "tumax.certify" in loaded
    assert loaded.isdisjoint({"tumax.polytopes", "tumax.graphs", "tumax.sums",
                              "tumax.search"})


def test_verdict_only_commands_load_no_other_command_module(tmp_path):
    """``check prepared`` and ``sum two`` decide TU through
    ``certify.ghouila_houri_check``, which loads none of the polytope,
    graph, search or LP modules, nor ``fractions``."""
    from specgen import random_spec

    prepared = tmp_path / "p.txt"
    prepared.write_text("3 4\n1 0 0 1\n0 1 0 -1\n0 0 1 1\n",
                        encoding="utf-8")
    spec = tmp_path / "two.json"
    spec.write_text(json.dumps(random_spec(random.Random(63), "two-sum")
                               .to_json_dict()), encoding="utf-8")
    for argv in (["check", "prepared", str(prepared)],
                 ["sum", "two", str(spec)]):
        loaded = _loaded_after(
            "from tumax import cli\n"
            f"assert cli.run({argv!r}).exit_status == 0")
        assert "tumax.certify" in loaded, argv
        assert loaded.isdisjoint({"tumax.polytopes", "tumax.graphs",
                                  "tumax.search", "tumax.lp",
                                  "fractions"}), argv


def test_no_tumax_module_imports_dataclasses_or_inspect():
    modules = sorted(f"tumax.{p.stem}" for p in Path(SRC, "tumax").glob("*.py")
                     if p.stem not in ("__init__", "__main__"))
    assert "tumax.polytopes" in modules
    code = "\n".join(f"import {m}" for m in modules)
    assert _loaded_after(code, ("dataclasses", "inspect")) == set()


def test_polytope_commands_load_neither_fractions_nor_decimal(tmp_path):
    """The simplex of the convex-position LP pivots on integers, so a
    positive and a negative ``check unimodular-polytope`` (the negative
    runs that LP) and ``classify`` load neither module."""
    simplex = tmp_path / "simplex.txt"
    simplex.write_text("2 3\n0 1 0\n0 0 1\n", encoding="utf-8")
    segment = tmp_path / "segment.txt"
    segment.write_text("1 2\n-1 1\n", encoding="utf-8")
    for argv, status in (
            (["check", "unimodular-polytope", str(simplex)], 0),
            (["check", "unimodular-polytope", str(segment)], 1),
            (["classify", "--d", "2"], 0)):
        loaded = _loaded_after(
            "from tumax import cli\n"
            f"assert cli.run({argv!r}).exit_status == {status}",
            ("tumax.polytopes", "tumax.lp", "fractions", "decimal"))
        assert loaded == {"tumax.polytopes", "tumax.lp"}, argv


def test_a_leaf_command_line_builds_its_own_leaf_and_never_the_tree(
        tmp_path):
    """A command line that names a leaf is parsed by that leaf's parser
    alone, built on first use: the argparse tree of every command is
    never built."""
    path = tmp_path / "m.txt"
    path.write_text("2 3\n1 0 1\n0 1 1\n", encoding="utf-8")
    for argv in (["check", "tu", str(path)],
                 ["verify", "polytopal-bound", "--m", "3"]):
        built = _fresh(
            "from tumax import cli\n"
            f"assert cli.run({argv!r}).exit_status == 0\n"
            "leaves = cli._leaf.cache_info()\n"
            f"cli._leaf({tuple(argv[:2])!r})",
            "[cli._parser.cache_info().currsize, leaves.currsize, "
            "cli._leaf.cache_info().hits - leaves.hits]")
        # no tree, one leaf built, and it is this command line's
        assert built == [0, 1, 1], argv


def test_usage_errors_keep_their_text_in_a_fresh_process():
    """An error the leaf raises, and the errors that only the tree can
    word (arguments left over, a missing subcommand), print as before."""
    for argv, err in (
            (["check", "tu"], "tumax check tu: the following arguments "
                              "are required: file"),
            (["verify", "polytopal-bound", "--m", "x"],
             "tumax verify polytopal-bound: argument --m: invalid int "
             "value: 'x'"),
            (["verify", "polytopal-bound", "--m", "3", "--workers", "2"],
             "tumax: unrecognized arguments: --workers 2"),
            (["check"], "tumax check: the following arguments are "
                        "required: what")):
        script = (f"import sys\nsys.path.insert(0, {SRC!r})\n"
                  f"from tumax.cli import main\nsys.exit(main({argv!r}))")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (2, "", f"error: {err}\n"), argv

"""The list of hand-run mutants (``tests/mutants.py``) stays applicable."""

from pathlib import Path

from mutants import MUTANTS, ROOT, SRC


def test_each_mutant_snippet_occurs_once_in_src_and_names_real_tests():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert len({m["name"] for m in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        snippet = mutant["snippet"]
        assert sources[mutant["file"]].count(snippet) == 1, mutant["name"]
        assert sum(text.count(snippet) for text in sources.values()) == 1
        assert mutant["replacement"] != snippet
        assert mutant["tests"], mutant["name"]
        for test_id in mutant["tests"]:
            path, name = test_id.split("::")
            assert f"def {name}(" in Path(ROOT, path).read_text(
                encoding="utf-8"), test_id

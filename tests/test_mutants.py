import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_every_mutant_snippet_occurs_once_and_names_existing_tests():
    # tools/mutants.py runs the mutants themselves; this keeps its list in
    # step with the code at Tier-1 cost
    for path, snippet, replacement, nodes in mutants.MUTANTS:
        assert (ROOT / path).read_text(encoding="utf-8").count(snippet) == 1, snippet
        assert snippet != replacement and nodes
        for node in nodes:
            test_file, name = node.split("::")
            assert f"def {name.split('[')[0]}(" in (ROOT / test_file).read_text(encoding="utf-8")

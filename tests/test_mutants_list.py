"""The standing mutant list stays runnable: every replacement applies once,
and every test it names exists.  ``tools/mutants.py`` runs the mutants."""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = json.loads((ROOT / "tools" / "mutants.json").read_text())


def test_every_mutant_applies_once_and_names_existing_tests():
    assert MUTANTS
    names = [m["name"] for m in MUTANTS]
    assert len(set(names)) == len(names)
    for mutant in MUTANTS:
        assert set(mutant) == {"name", "file", "old", "new", "tests"}, mutant["name"]
        assert mutant["old"] != mutant["new"], mutant["name"]
        assert (ROOT / mutant["file"]).read_text().count(mutant["old"]) == 1, mutant["name"]
        assert mutant["tests"], mutant["name"]
        for node in mutant["tests"]:
            path, _, function = node.partition("::")
            text = (ROOT / path).read_text()
            assert re.search(rf"^def {re.escape(function)}\(", text, re.M), node

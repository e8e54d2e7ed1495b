import ast
import json
import re
from pathlib import Path

import pytest

import pinned_outputs
from stirlingsym import cli

TESTS = Path(__file__).parent
WORKFLOW = TESTS.parent / ".github" / "workflows" / "tests.yml"


@pytest.mark.parametrize("entry", pinned_outputs.entries().values(), ids=lambda e: e["id"])
def test_pinned_output(capsys, battery, entry):
    code = cli.main(list(entry["argv"]))
    problem = pinned_outputs.mismatch(entry, code, capsys.readouterr().out.encode())
    assert problem is None, problem


def _string_runs(source: str):
    """Each maximal run of string literals among the items of a list, tuple
    or set, or among the positional arguments of a call."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            items = node.elts
        elif isinstance(node, ast.Call):
            items = node.args
        else:
            continue
        run = []
        for item in [*items, None]:
            if isinstance(item, ast.Constant) and isinstance(item.value, str):
                run.append(item.value)
            elif run:
                yield run
                run = []


def _holds(run: list[str], argv: list[str]) -> bool:
    return any(run[i:i + len(argv)] == argv for i in range(len(run) - len(argv) + 1))


def test_pins_are_stated_only_in_the_manifest():
    # a test that needs a pinned digest or refused command reads it from the
    # manifest, so a changed pin changes in one place
    listed = json.loads(pinned_outputs.MANIFEST.read_text(encoding="utf-8"))
    assert len(listed) == len(pinned_outputs.entries()) == len(
        {tuple(entry["argv"]) for entry in listed})
    # a copy of the project without .github/ still checks the tests
    paths = sorted(TESTS.glob("*.py"))
    if WORKFLOW.is_file():
        workflow = WORKFLOW.read_text(encoding="utf-8")
        assert not re.search(r"\b[0-9a-f]{64}\b", workflow)
        paths.append(WORKFLOW)
    restated = []
    for path in paths:
        text = path.read_text(encoding="utf-8")
        runs = list(_string_runs(text)) if path.suffix == ".py" else []
        for entry in listed:
            if "sha256" in entry:
                found = entry["sha256"] in text
            elif entry["exit"] == 2:
                found = (" ".join(entry["argv"]) in text
                         or any(_holds(run, entry["argv"]) for run in runs))
            else:
                continue
            if found:
                restated.append(f"{path.name}: {entry['id']}")
    assert not restated, "restated outside the manifest: " + ", ".join(restated)
    if WORKFLOW not in paths:
        pytest.skip(f"the workflow half: {WORKFLOW.relative_to(TESTS.parent)} is "
                    "absent, so only tests/*.py were checked")

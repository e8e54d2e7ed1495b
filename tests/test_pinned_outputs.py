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


def test_a_peak_over_its_ceiling_names_the_entry_the_peak_and_the_ceiling():
    listed = pinned_outputs.entries().values()
    assert all("max_rss_mb" in entry for entry in listed if entry["exit"] == 0)
    entry = pinned_outputs.entries()["trees-8-json"]
    ceiling = entry["max_rss_mb"]
    assert pinned_outputs.over_ceiling(entry, ceiling) is None
    assert pinned_outputs.over_ceiling(entry, 102.7) == (
        f"trees-8-json: peak RSS 102.7 MB, ceiling {ceiling} MB")
    assert pinned_outputs.over_ceiling({"id": "unbounded"}, 102.7) is None


def test_the_subprocess_run_checks_streamed_stdout_exit_and_peak():
    # a child's peak starts at the size of the process that spawns it, here
    # the test runner's, so the pinned ceilings are left to the file's own run
    entry = {key: value for key, value in pinned_outputs.entries()["trees-5"].items()
             if key != "max_rss_mb"}
    problem, peak_mb = pinned_outputs.run_subprocess(entry, "0")
    assert problem is None and peak_mb > 0
    problem, _ = pinned_outputs.run_subprocess({**entry, "exit": 1}, "1")
    assert problem == "trees-5: exit 0, pinned 1"
    problem, _ = pinned_outputs.run_subprocess({**entry, "max_rss_mb": 1}, "1")
    assert problem.startswith("trees-5: peak RSS ") and problem.endswith(" MB, ceiling 1 MB")
    text = {"id": "text", "argv": ["wp", "--lambda", "2,1"], "exit": 0, "stdout": "9\n"}
    assert pinned_outputs.run_subprocess(text, "0")[0] is None
    problem, _ = pinned_outputs.run_subprocess({**text, "stdout": ""}, "0")
    assert problem == "text: stdout '9', pinned ''"


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

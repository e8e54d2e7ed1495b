import os
import subprocess
import sys
from pathlib import Path

import pytest

import stirlingsym

SRC = Path(__file__).parents[1] / "src"
PARSER = "import stirlingsym.cli as cli\ncli.build_parser()"


def _modules_after(code: str) -> set[str]:
    """Names in ``sys.modules`` of a fresh interpreter after running ``code``.

    The interpreter starts with ``-S``, so no module that a site ``.pth`` file
    imports can hide a load.
    """
    probe = f"{code}\nimport sys\nprint(*sorted(sys.modules))"
    out = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}).stdout
    return set(out.split())


def _loaded_after(code: str) -> set[str]:
    """Names of the stirlingsym modules loaded after running ``code``."""
    return {name.removeprefix("stirlingsym.") for name in _modules_after(code)
            if name.startswith("stirlingsym.")}


def _running(*argv: str) -> str:
    """Code that runs one CLI call with its stdout discarded."""
    return ("import io, sys\nimport stirlingsym.cli as cli\nsys.stdout = io.StringIO()\n"
            f"assert cli.main({list(argv)!r}) == 0\nsys.stdout = sys.__stdout__")


def test_building_the_parser_loads_no_layer():
    loaded = _loaded_after(PARSER)
    assert loaded == {"cli"}


def test_eulerian_loads_only_the_layers_it_runs():
    loaded = _loaded_after(_running("eulerian", "--n", "7", "--r", "2"))
    # no identities, trees, posets, series, moduli or report
    assert loaded == {"cli", "stirling", "symfunc", "partitions", "limits"}


def test_invert_loads_only_the_layers_it_runs():
    # invert_egf_numeric lives beside the type sums it evaluates, so the verb
    # loads no check battery
    loaded = _loaded_after(_running("invert", "--kind", "mult", "--coeffs", "1,1"))
    assert loaded == {"cli", "stirling", "symfunc", "partitions", "limits"}


# threading too: the layers' caches are plain lru_caches, which need no lock
_HEAVY = {"dataclasses", "inspect", "json", "threading"}


@pytest.mark.parametrize("code, unwanted", [
    (PARSER, {"json", "threading"}),
    (_running("eulerian", "--n", "7", "--r", "2"), _HEAVY),
    (_running("expand", "--n", "7", "--r", "2", "--basis", "e"), _HEAVY),
    (_running("verify", "--identity", "prop11", "--order", "2"), _HEAVY),
    (_running("invert", "--kind", "mult", "--coeffs", "1,1"), _HEAVY),
    (_running("mobius", "--poset", "pi", "--n", "3", "--mu", "2,0", "--verify"), _HEAVY),
], ids=["parser", "eulerian", "expand-e", "verify", "invert", "mobius-verify"])
def test_tally_verbs_start_without_heavy_standard_modules(code, unwanted):
    present = _modules_after(code) & unwanted
    assert present == set()


def test_every_public_name_and_submodule_resolves():
    namespace: dict = {}
    exec("from stirlingsym import *", namespace)
    for name in stirlingsym.__all__:
        assert namespace[name] is getattr(stirlingsym, name)
        module = getattr(stirlingsym, stirlingsym._EXPORTS[name])
        assert getattr(module, name) is namespace[name]
    assert stirlingsym.trees.lyndon_type is stirlingsym.lyndon_type
    assert set(dir(stirlingsym)) >= set(stirlingsym.__all__)

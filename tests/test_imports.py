import os
import subprocess
import sys
from pathlib import Path

import stirlingsym

SRC = Path(__file__).parents[1] / "src"


def _loaded_after(code: str) -> set[str]:
    """Names of the stirlingsym modules that a fresh interpreter holds after
    running ``code``."""
    probe = (f"{code}\nimport sys\n"
             "print(*sorted(m for m in sys.modules if m.startswith('stirlingsym.')))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SRC)}).stdout
    return {name.removeprefix("stirlingsym.") for name in out.split()}


def test_building_the_parser_loads_no_layer():
    loaded = _loaded_after("import stirlingsym.cli as cli\ncli.build_parser()")
    assert loaded == {"cli"}


def test_eulerian_loads_only_the_layers_it_runs():
    loaded = _loaded_after("import contextlib, io\nimport stirlingsym.cli as cli\n"
                           "with contextlib.redirect_stdout(io.StringIO()):\n"
                           "    assert cli.main(['eulerian', '--n', '7', '--r', '2']) == 0")
    # no identities, trees, posets, series, moduli or report
    assert loaded == {"cli", "stirling", "symfunc", "partitions"}


def test_every_public_name_and_submodule_resolves():
    namespace: dict = {}
    exec("from stirlingsym import *", namespace)
    for name in stirlingsym.__all__:
        assert namespace[name] is getattr(stirlingsym, name)
        module = getattr(stirlingsym, stirlingsym._EXPORTS[name])
        assert getattr(module, name) is namespace[name]
    assert stirlingsym.trees.lyndon_type is stirlingsym.lyndon_type
    assert set(dir(stirlingsym)) >= set(stirlingsym.__all__)

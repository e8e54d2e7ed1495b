"""The pinned outputs of the command line, kept in ``golden/outputs.json``.

Each manifest entry is one command: an ``id``, its ``argv``, the ``exit``
code it returns, and its stdout, either as the exact ``stdout`` text or as
the ``sha256`` of its bytes.  An entry may carry ``timeout_s``, a wall-time
bound that only the subprocess run applies; a wall-time bound in-process
would flake on a loaded machine.

``test_pinned_outputs.py`` runs every entry through ``cli.main``.  Running
this file runs every entry as a subprocess, once under ``PYTHONHASHSEED=0``
and once under ``1``, and exits 1 if any output differs from its pin::

    python tests/pinned_outputs.py

A pin changes only with the output it pins, and every changed pin is
recorded in CHANGES.md.
"""

import hashlib
import json
import os
import subprocess
import sys
from functools import cache
from pathlib import Path

MANIFEST = Path(__file__).parent / "golden" / "outputs.json"
SRC = Path(__file__).parents[1] / "src"


@cache
def entries() -> dict:
    """Manifest entries by id, in manifest order."""
    listed = json.loads(MANIFEST.read_text(encoding="utf-8"))
    return {entry["id"]: entry for entry in listed}


def argv(entry_id: str) -> list[str]:
    return list(entries()[entry_id]["argv"])


def mismatch(entry: dict, code: int, stdout: bytes) -> str | None:
    """How an exit code and stdout differ from the entry's pin, naming the
    entry; None when both match."""
    problems = []
    if code != entry["exit"]:
        problems.append(f"exit {code}, pinned {entry['exit']}")
    if "sha256" in entry:
        digest = hashlib.sha256(stdout).hexdigest()
        if digest != entry["sha256"]:
            problems.append(f"stdout sha256 {digest}, pinned {entry['sha256']}")
    elif stdout != entry["stdout"].encode():
        problems.append(f"stdout {stdout.decode(errors='replace')!r}, "
                        f"pinned {entry['stdout']!r}")
    return f"{entry['id']}: {'; '.join(problems)}" if problems else None


def run_subprocess(entry: dict, hash_seed: str) -> str | None:
    """Run one entry as ``python -m stirlingsym.cli`` under its timeout."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": hash_seed}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "stirlingsym.cli", *entry["argv"]],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            env=env, timeout=entry.get("timeout_s"))
    except subprocess.TimeoutExpired:
        return f"{entry['id']}: no exit within {entry['timeout_s']} s"
    return mismatch(entry, proc.returncode, proc.stdout)


def main() -> int:
    failed = 0
    for entry in entries().values():
        for hash_seed in ("0", "1"):
            problem = run_subprocess(entry, hash_seed)
            print(f"PYTHONHASHSEED={hash_seed} {problem or entry['id'] + ': ok'}",
                  flush=True)
            failed += problem is not None
    print(f"{failed} of {2 * len(entries())} runs differ from their pins")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

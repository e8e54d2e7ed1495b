"""The pinned outputs of the command line, kept in ``golden/outputs.json``.

Each manifest entry is one command: an ``id``, its ``argv``, the ``exit``
code it returns, and its stdout, either as the exact ``stdout`` text or as
the ``sha256`` of its bytes.  An entry may carry ``timeout_s``, a wall-time
bound, and ``max_rss_mb``, a ceiling on the command's peak resident memory.
Only the subprocess run applies them: a wall-time bound in-process would
flake on a loaded machine, and an in-process peak is the test runner's.

``test_pinned_outputs.py`` runs every entry through ``cli.main``.  Running
this file runs every entry as a subprocess, once under ``PYTHONHASHSEED=0``
and once under ``1``, prints each run's peak and wall time, and exits 1 if
any output differs from its pin or any peak exceeds its ceiling::

    python tests/pinned_outputs.py

A child's peak is its own ``ru_maxrss`` from ``os.wait4``, which starts at
the runner's resident size at the spawn; so the runner hashes stdout as it
arrives and keeps none of it.  A ceiling is the peak measured this way plus
max(25 %, 4 MB): a command that materializes what it could stream fails it,
and allocator noise passes.  A pin or a ceiling changes only with the
command it bounds, and every change is recorded in CHANGES.md.
"""

import json
import os
import select
import signal
import sys
import time
from functools import cache
from pathlib import Path

# the built-in sha256: hashlib loads OpenSSL, which would add about 4 MB to
# the runner and so to every child's peak
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    from _sha256 import sha256

MANIFEST = Path(__file__).parent / "golden" / "outputs.json"
SRC = Path(__file__).parents[1] / "src"


@cache
def entries() -> dict:
    """Manifest entries by id, in manifest order."""
    listed = json.loads(MANIFEST.read_text(encoding="utf-8"))
    return {entry["id"]: entry for entry in listed}


def argv(entry_id: str) -> list[str]:
    return list(entries()[entry_id]["argv"])


def mismatch(entry: dict, code: int, stdout: bytes, digest: str | None = None) -> str | None:
    """How an exit code and stdout differ from the entry's pin, naming the
    entry; None when both match.  ``digest``, when given, is the sha256 of the
    whole stdout, and ``stdout`` may then hold only its start."""
    problems = []
    if code != entry["exit"]:
        problems.append(f"exit {code}, pinned {entry['exit']}")
    if "sha256" in entry:
        digest = digest or sha256(stdout).hexdigest()
        if digest != entry["sha256"]:
            problems.append(f"stdout sha256 {digest}, pinned {entry['sha256']}")
    elif stdout != entry["stdout"].encode():
        problems.append(f"stdout {stdout.decode(errors='replace')!r}, "
                        f"pinned {entry['stdout']!r}")
    return f"{entry['id']}: {'; '.join(problems)}" if problems else None


def over_ceiling(entry: dict, peak_mb: float) -> str | None:
    """How a peak exceeds the entry's ``max_rss_mb``, naming the entry, the
    peak and the ceiling; None within it or without one."""
    ceiling = entry.get("max_rss_mb")
    if ceiling is None or peak_mb <= ceiling:
        return None
    return f"{entry['id']}: peak RSS {peak_mb:.1f} MB, ceiling {ceiling} MB"


def run_subprocess(entry: dict, hash_seed: str) -> tuple[str | None, float | None]:
    """Run one entry as ``python -m stirlingsym.cli`` under its timeout.

    Returns what differs from its pin or its ceiling (None when nothing
    does) and its peak RSS in MB (None after a timeout).
    """
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": hash_seed}
    timeout = entry.get("timeout_s")
    digest = sha256()
    # an entry pinned by text keeps one byte past its pin: enough to differ
    keep = len(entry["stdout"].encode()) + 1 if "stdout" in entry else 0
    kept = bytearray()
    read, write = os.pipe()
    with open(read, "rb", buffering=0) as stdout:
        try:
            pid = os.posix_spawn(
                sys.executable, [sys.executable, "-m", "stirlingsym.cli", *entry["argv"]],
                env, file_actions=[(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                                   (os.POSIX_SPAWN_DUP2, write, 1),
                                   (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0)])
        finally:
            os.close(write)
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            wait = None if deadline is None else max(0.0, deadline - time.monotonic())
            if not select.select([stdout], [], [], wait)[0]:
                os.kill(pid, signal.SIGKILL)
                os.wait4(pid, 0)
                return f"{entry['id']}: no exit within {timeout} s", None
            chunk = stdout.read(1 << 16)
            if not chunk:
                break
            digest.update(chunk)
            kept += chunk[:keep - len(kept)]
    _, status, usage = os.wait4(pid, 0)
    # ru_maxrss is in KiB on Linux, in bytes on macOS
    peak_mb = usage.ru_maxrss / (1 << (20 if sys.platform == "darwin" else 10))
    code = os.waitstatus_to_exitcode(status)
    return (mismatch(entry, code, bytes(kept), digest.hexdigest())
            or over_ceiling(entry, peak_mb)), peak_mb


def main() -> int:
    failed = 0
    for entry in entries().values():
        for hash_seed in ("0", "1"):
            start = time.perf_counter()
            problem, peak_mb = run_subprocess(entry, hash_seed)
            wall_s = time.perf_counter() - start
            line = problem or f"{entry['id']}: ok, peak {peak_mb:.1f} MB, {wall_s:.2f} s"
            print(f"PYTHONHASHSEED={hash_seed} {line}", flush=True)
            failed += problem is not None
    print(f"{failed} of {2 * len(entries())} runs differ from their pins "
          "or exceed their ceilings")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

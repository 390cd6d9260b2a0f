"""What the paired-run tools share: a commit's committed files in a
directory of their own, and a SIGTERM that still cleans up after them."""

import signal
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def extract(commit: str, dest: Path) -> None:
    """The committed files of ``commit``, in ``dest``."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def exit_on_sigterm() -> None:
    """Make SIGTERM raise ``SystemExit(128 + 15)``: its default action ends
    the process without running the ``finally`` that removes a tool's work
    directory, and an exception runs it."""
    signal.signal(signal.SIGTERM, _stop)


def _stop(signum, frame):
    raise SystemExit(128 + signum)

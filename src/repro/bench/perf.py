"""Host provenance for run records.

Every record the run store keeps (and every perfbench result) carries
who/where/what produced it, so runs are attributable to a commit and a
machine.  Simulator speed itself is measured by ``perfbench/`` (see
``perfbench/README.md`` and ``BENCHMARK.json``), not here.
"""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path


def _git_sha() -> str | None:
    """The repository HEAD, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def provenance() -> dict:
    """Who/where/what produced a record, so stored runs are attributable
    (same-machine comparisons only, commit lookup)."""
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }

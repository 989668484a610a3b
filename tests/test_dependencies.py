"""The package runs on the standard library alone.

numpy was once a declared runtime dependency that nothing imported.
A fresh interpreter importing the command-line entry points and the
load driver must not pull it in, so the declaration stays gone.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_entry_points_do_not_import_numpy():
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import repro.bench.cli, repro.load, repro.lint.cli\n"
        "assert 'numpy' not in sys.modules, 'numpy imported'\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True)

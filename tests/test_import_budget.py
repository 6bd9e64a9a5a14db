"""Import cost of the command-line entry point.

`scipy.optimize` adds about a third to the time it takes to import
`rabicrit.cli`, and the library has no use for it; this keeps it out.
"""

import os
import subprocess
import sys
from pathlib import Path

import rabicrit


def test_cli_import_does_not_load_scipy_optimize():
    src = str(Path(rabicrit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import rabicrit.cli, sys; print('scipy.optimize' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.strip() == "False"

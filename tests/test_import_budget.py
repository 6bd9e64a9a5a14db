"""Import cost and dependencies of the command-line entry point.

`scipy.optimize` adds about a third to the time it takes to import
`rabicrit.cli`, and the library has no use for it; this keeps it out.
`mpmath` is a test dependency only (the variational closed-form check lives
in the tests), so the CLI must neither import it nor need it.
"""

import os
import subprocess
import sys
from pathlib import Path

import rabicrit


def _child(*argv):
    """Run `python *argv` with the source tree of `rabicrit` importable."""
    src = str(Path(rabicrit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env,
                          check=True)


def test_cli_import_does_not_load_scipy_optimize():
    out = _child("-c", "import rabicrit.cli, sys; print('scipy.optimize' in sys.modules)")
    assert out.stdout.strip() == "False"


def test_cli_import_does_not_load_mpmath():
    out = _child("-c", "import rabicrit.cli, sys; print('mpmath' in sys.modules)")
    assert out.stdout.strip() == "False"


def test_cli_runs_without_mpmath(tmp_path):
    # a None entry in sys.modules makes `import mpmath` raise ImportError
    blocked = ("import sys; sys.modules['mpmath'] = None; from rabicrit.cli import main; "
               "sys.exit(main(sys.argv[1:]))")
    _child("-c", blocked, "fig1", "--out", str(tmp_path))
    methods = {row.split(",")[1] for row in (tmp_path / "fig1.csv").read_text().splitlines()[1:]}
    assert methods == {"exact", "effective", "variational"}
    out = _child("-c", blocked, "validate-dispersive")
    assert '"passed": true' in out.stdout

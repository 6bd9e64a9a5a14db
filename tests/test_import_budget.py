"""Import cost and dependencies of the command-line entry point, checked in
fresh child processes (the three `import rabicrit.cli` checks share one).

`scipy.optimize` adds about a third to the time it takes to import
`rabicrit.cli`, and the library has no use for it; this keeps it out.
The `scipy.linalg` package init costs more than the rest of the import
together (its `array_api_compat` pulls in `numpy.f2py` and `numpy.testing`),
while `rabicrit.spectra` needs only seven f2py functions (six LAPACK
drivers and `dsbmv`) from its two compiled modules; `spectra` loads those by
file (naming the directory when a file is missing), so the package stays out
too. In either import order there must be one instance of each module, and
the functions must be the very objects `scipy.linalg` exposes.
`mpmath` is a test dependency only (the variational closed-form check lives
in the tests), so the CLI must neither import it nor need it.
A run takes no digest: the report holds its config's text, so nothing the CLI
runs needs `hashlib`, which would map OpenSSL's libcrypto (`_hashlib`, about
3.6 MB of resident memory) into the process.
The CLI reads and writes its files as UTF-8 whatever the locale.
`import rabicrit` itself (the parameter and phase records and the errors it
exports) needs numpy alone: neither scipy nor the LAPACK loader in `spectra`.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import rabicrit


def _child(*argv, **env):
    """Run `python *argv` with the source tree of `rabicrit` importable and
    the environment variables `env` set."""
    src = str(Path(rabicrit.__file__).resolve().parents[1])
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env,
                          check=True)


def test_package_import_does_not_load_scipy():
    out = _child("-c", "import sys; from rabicrit import Phase, RabiParams; "
                       "print(sorted(m for m in sys.modules "
                       "if m.partition('.')[0] == 'scipy' or m == 'rabicrit.spectra'))")
    assert out.stdout.strip() == "[]"


@pytest.fixture(scope="module")
def cli_import_loads():
    """Which of the modules the CLI must not need `import rabicrit.cli` loads,
    read in one child process."""
    out = _child("-c", "import rabicrit.cli, sys; "
                       "print(*(m for m in ('scipy.optimize', 'mpmath', 'scipy.linalg', "
                       "'numpy.f2py', 'numpy.testing') if m in sys.modules))")
    return out.stdout.split()


def test_cli_import_does_not_load_scipy_optimize(cli_import_loads):
    assert "scipy.optimize" not in cli_import_loads


def test_cli_import_does_not_load_mpmath(cli_import_loads):
    assert "mpmath" not in cli_import_loads


def test_cli_import_does_not_load_scipy_linalg(cli_import_loads):
    assert [m for m in cli_import_loads
            if m in ("scipy.linalg", "numpy.f2py", "numpy.testing")] == []


def test_cli_runs_without_mpmath(tmp_path):
    # a None entry in sys.modules makes `import mpmath` raise ImportError
    blocked = ("import sys; sys.modules['mpmath'] = None; from rabicrit.cli import main; "
               "sys.exit(main(sys.argv[1:]))")
    _child("-c", blocked, "fig1", "--out", str(tmp_path))
    methods = {row.split(",")[1] for row in (tmp_path / "fig1.csv").read_text().splitlines()[1:]}
    assert methods == {"exact", "effective", "variational"}


def test_cli_run_does_not_load_openssl(tmp_path):
    run = ("import sys; from rabicrit.cli import main; main(sys.argv[1:]); "
           "print('_hashlib' in sys.modules)")
    out = _child("-c", run, "fig1", "--out", str(tmp_path))
    assert out.stdout.strip().splitlines()[-1] == "False"


_SAME_DRIVERS = """
import sys
import scipy.linalg
from rabicrit import spectra
lapack = ("dpbtrf", "dpbtrs", "dsbevd", "dsbevx", "dstebz", "dstevd")
print(sys.modules["scipy.linalg._flapack"] is spectra._flapack,
      all(getattr(spectra, name) is getattr(scipy.linalg.lapack, name) for name in lapack),
      spectra.dsbmv is scipy.linalg.blas.dsbmv,
      spectra.LinAlgError is scipy.linalg.LinAlgError)
"""


@pytest.mark.parametrize("first", ["import rabicrit.spectra", "import scipy.linalg.lapack"])
def test_spectra_drivers_are_scipy_linalg_functions(first):
    out = _child("-c", f"{first}\n{_SAME_DRIVERS}")
    assert out.stdout.split() == ["True"] * 4


def test_missing_extension_raises_import_error_naming_its_directory(tmp_path):
    fake = tmp_path / "scipy" / "__init__.py"
    out = _child("-c", f"import scipy; scipy.__file__ = {str(fake)!r}\n"
                       "try:\n    import rabicrit.spectra\n"
                       "except ImportError as exc:\n    print(exc.path)")
    assert out.stdout.strip() == str(tmp_path / "scipy" / "linalg")


def test_cli_reads_and_writes_utf8_under_an_ascii_locale(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("# \u03bb grid below the transition\nfigure = custom\n"
                   "lambda_grid = 0.5 0.9\neta_grid = 500\ntime_grid = 0 20\nchi = 0.001\n"
                   "methods = analytic variational\n", encoding="utf-8")
    # an unstated encoding is an error too, so the writes are checked as well
    _child("-W", "error::EncodingWarning", "-m", "rabicrit.cli", "sweep", "--config", str(cfg),
           "--out", str(tmp_path), LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
           PYTHONWARNDEFAULTENCODING="1")
    assert len((tmp_path / "custom.csv").read_text(encoding="utf-8").splitlines()) == 1 + 8

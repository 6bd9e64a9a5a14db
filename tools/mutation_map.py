"""Mutation map of tier-1: which tests kill which one-line change.

Mutates every site of each module of `src/rabicrit/` and of `tests/oracle.py`
under three operators, one mutant at a time:

- `float`: a nonzero float literal times (1 + 1e-6);
- `+-`: a binary `+` made `-`, and `-` made `+`;
- `cmp`: `<` <-> `<=` and `>` <-> `>=`, each operator of a chain alone.

It runs the unmutated tier-1 first and stops unless it passes. Then it runs
tier-1 (without `-x`) once per mutant, in one temporary copy of the checkout
per CPU, each pytest with one BLAS thread. A run longer than 20 times the
unmutated one counts as killed (`"timeout": true`). It writes nothing into the
checkout, and prints one JSON line per mutant, in source order:

    {"module": ..., "line": ..., "operator": ..., "mutated": <the mutated
     source line>, "killed_by": [<test ids>], "timeout": false}

A mutant with an empty `killed_by` and no timeout survived. Test ids read
`tests.test_spectra::test_name[case]`, as in a JUnit report. Run from anywhere:

    python tools/mutation_map.py > map.jsonl
"""
import ast
import json
import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p.relative_to(ROOT) for p in (ROOT / "src" / "rabicrit").glob("*.py"))
MODULES.append(Path("tests/oracle.py"))
SWAP = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "+": "-", "-": "+"}
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks")
WORKERS = os.cpu_count() or 1


def _token(src: bytes, start: int, end: int, tokens: tuple[str, ...]) -> tuple[int, int]:
    """Offsets of the first of `tokens` in src[start:end], outside comments."""
    i = start
    while i < end:
        if src[i:i + 1] == b"#":
            i = src.index(b"\n", i)
        for tok in tokens:  # two-character tokens first
            if src[i:i + len(tok)] == tok.encode():
                return i, i + len(tok)
        i += 1
    raise ValueError(f"no {tokens} in {src[start:end]!r}")


def mutants(module: Path):
    """(line, operator, start, end, replacement) for each site of `module`;
    offsets are bytes into the file, as `ast` counts columns."""
    src = (ROOT / module).read_bytes()
    starts = [0]
    for line in src.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def at(node, end=False):
        return starts[(node.end_lineno if end else node.lineno) - 1] + (
            node.end_col_offset if end else node.col_offset)

    for node in ast.walk(ast.parse(src)):
        if isinstance(node, ast.Constant) and type(node.value) is float and node.value:
            yield node.lineno, "float", at(node), at(node, True), repr(node.value * (1 + 1e-6))
        elif isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
            a, b = _token(src, at(node.left, True), at(node.right), ("+", "-"))
            yield src.count(b"\n", 0, a) + 1, "+-", a, b, SWAP[src[a:b].decode()]
        elif isinstance(node, ast.Compare):
            for left, op, right in zip([node.left, *node.comparators], node.ops, node.comparators):
                if isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)):
                    a, b = _token(src, at(left, True), at(right), ("<=", ">=", "<", ">"))
                    yield src.count(b"\n", 0, a) + 1, "cmp", a, b, SWAP[src[a:b].decode()]


def tier1(copy: Path, timeout: float | None) -> tuple[int | None, list[str], float]:
    """Return code (None on timeout), failing test ids and wall time of
    tier-1 in `copy`."""
    report = copy / "tier1.xml"
    env = dict(os.environ, PYTHONPATH="src", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
           "--continue-on-collection-errors", f"--junitxml={report}"]
    t0 = time.perf_counter()
    try:
        code = subprocess.run(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        return None, [], time.perf_counter() - t0
    cases = ET.parse(report).getroot().iter("testcase") if report.exists() else ()
    failed = [f"{case.get('classname')}::{case.get('name')}" for case in cases
              if case.find("failure") is not None or case.find("error") is not None]
    report.unlink(missing_ok=True)  # no report: pytest died, and the exit code says so
    return code, failed, time.perf_counter() - t0


def main() -> int:
    sites = [(module, *site) for module in MODULES
             for site in sorted(mutants(module), key=lambda s: s[2])]
    with tempfile.TemporaryDirectory(prefix="mutation-map-") as tmp:
        copies: queue.Queue[Path] = queue.Queue()
        for i in range(WORKERS):
            copies.put(Path(shutil.copytree(ROOT, Path(tmp) / str(i), ignore=IGNORE)))
        first = copies.get()
        code, failed, elapsed = tier1(first, None)
        copies.put(first)
        if code != 0:
            print(f"unmutated tier-1 fails (exit {code}): {failed}", file=sys.stderr)
            return 1
        print(f"unmutated tier-1 passes in {elapsed:.1f} s; {len(sites)} mutants",
              file=sys.stderr)

        def run(site) -> dict:
            module, line, operator, a, b, new = site
            copy = copies.get()
            original = (copy / module).read_bytes()
            mutated = original[:a] + new.encode() + original[b:]
            try:
                (copy / module).write_bytes(mutated)
                code, killers, _ = tier1(copy, 20 * elapsed)
            finally:
                (copy / module).write_bytes(original)
                copies.put(copy)
            if code not in (None, 0) and not killers:
                killers = [f"exit {code}"]  # a failure outside any test case
            text = mutated.decode().splitlines()[line - 1].strip()
            return {"module": str(module), "line": line, "operator": operator,
                    "mutated": text, "killed_by": sorted(killers), "timeout": code is None}

        with ThreadPoolExecutor(WORKERS) as pool:
            for result in pool.map(run, sites):
                print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""vauf runs on numpy alone: importing it pulls in no scipy, and its BLAS and LAPACK calls are listed.

Its telemetry tables do not depend on the OpenBLAS kernel set the host picks.
"""

import ast
from collections import Counter
import dataclasses
import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

from vauf.config import parse_scenario
from vauf.runtime import run_scenario

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _python_path(*dirs):
    return os.pathsep.join(filter(None, [*map(str, dirs), os.environ.get("PYTHONPATH")]))


def test_import_vauf_loads_no_scipy():
    path = _python_path(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c", "import vauf, sys; print('scipy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "False"


# Every BLAS or LAPACK call site in src/vauf, as (module, top-level function,
# source text), with why it is there. Their last bits depend on the OpenBLAS
# kernel set the host picks, so each one that reaches telemetry ties the
# pinned digests to a host class.
BLAS_SITES = {
    ("perception", "region_grow", "nrm @ nrm[seed]"): "the growing predicate, one batched row per seed",
}


def _is_blas(node):
    """An @, or a call to np.linalg (but norm, which with axis= calls no BLAS) or to dot, matmul, inner or vdot."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return isinstance(node.op, ast.MatMult)
    if not isinstance(node, ast.Call):
        return False
    func = ast.unparse(node.func)
    linalg = func.startswith("np.linalg.") and func != "np.linalg.norm"
    return linalg or isinstance(node.func, ast.Attribute) and node.func.attr in ("dot", "matmul", "inner", "vdot")


def blas_call_sites():
    sites = []
    for path in sorted((ROOT / "src" / "vauf").glob("*.py")):
        text = path.read_text()
        for scope in ast.parse(text).body:
            name = getattr(scope, "name", "<module>")
            sites += [(path.stem, name, ast.get_source_segment(text, n)) for n in ast.walk(scope) if _is_blas(n)]
    return sites


def test_blas_and_lapack_call_sites_listed():
    found, listed = Counter(blas_call_sites()), Counter(list(BLAS_SITES))
    assert found == listed, f"added: {sorted(found - listed)}; removed: {sorted(listed - found)}"


# OpenBLAS kernel sets other x86-64 hosts pick (AMD Zen hosts get Haswell's),
# each with the /proc/cpuinfo flag of the instruction set it needs
OPENBLAS_CORES = {"Haswell": "avx2", "Sandybridge": "avx"}
SHIPPED = [ROOT / "scenarios" / name for name in ("reference.cfg", "flat_steady.cfg", "negative_control.cfg")]


def table_digest(path) -> str:
    """SHA-256 of the telemetry table of the first 3 s of a scenario file."""
    scenario = dataclasses.replace(parse_scenario(path), duration=3.0)
    return hashlib.sha256(run_scenario(scenario).table.tobytes()).hexdigest()


def cpu_flags() -> set:
    try:
        text = pathlib.Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    return {flag for line in text.splitlines() if line.startswith("flags") for flag in line.partition(":")[2].split()}


@pytest.fixture(scope="module")
def shipped_digests():
    return [table_digest(path) for path in SHIPPED]


@pytest.mark.parametrize("core", sorted(OPENBLAS_CORES))
def test_tables_independent_of_openblas_kernels(core, shipped_digests):
    if OPENBLAS_CORES[core] not in cpu_flags():
        pytest.skip(f"this CPU lacks {OPENBLAS_CORES[core]}, which OpenBLAS's {core} kernels need")
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, test_dependencies as t; print(*map(t.table_digest, sys.argv[1:]))",
         *map(str, SHIPPED)],
        env={**os.environ, "OPENBLAS_CORETYPE": core, "PYTHONPATH": _python_path(ROOT / "src", ROOT / "tests")},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == shipped_digests


def process_calls(tree) -> set:
    """The pickle imports and the os.fork and os.pipe references of a module's syntax tree."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names if alias.name == "pickle"}
        elif isinstance(node, ast.ImportFrom):
            if node.module == "pickle":
                found.add("pickle")
            elif node.module == "os":
                found |= {f"os.{alias.name}" for alias in node.names if alias.name in ("fork", "pipe")}
        elif isinstance(node, ast.Attribute) and node.attr in ("fork", "pipe"):
            if isinstance(node.value, ast.Name) and node.value.id == "os":
                found.add(f"os.{node.attr}")
    return found


def test_one_message_format_between_processes():
    # forked.Forked owns the package's fork, its pipes and the pickled messages across them
    found = {path.name: process_calls(ast.parse(path.read_text()))
             for path in sorted((ROOT / "src" / "vauf").glob("*.py"))}
    assert {name: calls for name, calls in found.items() if calls} == {"forked.py": {"pickle", "os.fork", "os.pipe"}}

"""vauf runs on numpy alone: importing it pulls in no scipy, and its BLAS and LAPACK calls are listed."""

import ast
from collections import Counter
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_import_vauf_loads_no_scipy():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
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
    ("perception", "segment_pca", "centered.T @ centered"): "the working segment's covariance, once per frame",
    ("perception", "segment_pca", "np.linalg.eigh(cov)"): "the working segment's eigenpairs, once per frame",
    ("perception", "segment_pca", "n_s @ centroid"): "a sign test only: which way the normal faces",
    ("runtime", "run_scenario", "r_cam @ latched.n_s_camera"): "the latched normal turned into the base frame",
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

"""numpy is the package's only runtime dependency, and the test oracles
import nothing but math and numpy."""

import ast
import os
import subprocess
import sys

import pytest

import ngwsim

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# with sys.modules["scipy"] = None every import of scipy or a submodule fails
WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
import ngwsim
state = ngwsim.build_state(ngwsim.StateSpec(0.2, 0.2, eta=0.1))
fi = ngwsim.fi_continuous(state, ngwsim.GeneratorSpec("displacement", +1))
record = ngwsim.sample(state, 1000, 7)
assert fi > 0.0 and len(record.pairs) == 1000
"""


def test_fi_and_sampling_run_without_scipy():
    # the subprocess imports the same ngwsim as this test
    package_parent = os.path.dirname(os.path.dirname(os.path.abspath(ngwsim.__file__)))
    path = os.pathsep.join(p for p in (package_parent, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_pyproject_lists_only_numpy():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as handle:
        deps = tomllib.load(handle)["project"]["dependencies"]
    assert [dep.split(">")[0].split("=")[0].strip() for dep in deps] == ["numpy"]


def test_oracles_import_only_math_and_numpy():
    # the oracles stay independent of ngwsim, and perfbench's checker loads
    # the file on its own
    with open(os.path.join(ROOT, "tests", "oracles.py"), encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported == {"math", "numpy"}

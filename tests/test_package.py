import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import gpdevopt
from gpdevopt import SearchBox, lhd_maximin
from gpdevopt.testbed import test_function as make_test_function


def test_star_import_resolves_every_public_name():
    # A name left in __all__ after its import is gone breaks only a star import.
    namespace = {}
    exec("from gpdevopt import *", namespace)
    for name in gpdevopt.__all__:
        assert namespace[name] is getattr(gpdevopt, name)


def test_src_has_no_unused_imports():
    # A deleted use must take its import along.  __init__.py is skipped: its
    # imports are the package's re-exports.
    unused = []
    for path in sorted(Path(gpdevopt.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used
        ]
    assert unused == []


def test_worker_imports_nothing_from_the_package():
    # The worker runs any picklable job: it knows no objective or model.
    path = Path(gpdevopt.__file__).parent / "_worker.py"
    imported = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert [name for name in imported if name.startswith((".", "gpdevopt"))] == []


def test_readme_python_blocks_run():
    # The README's examples run in order in one namespace.  A small
    # Goldstein-Price design stands in for the reader's `points`, `outputs`
    # and `beta`.
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)
    assert blocks
    fn = make_test_function("goldstein-price")
    points = lhd_maximin(20, SearchBox(np.zeros(2), np.ones(2)), np.random.default_rng(0))
    namespace = {"points": points, "outputs": fn.evaluate(points), "beta": np.zeros(2)}
    for block in blocks:
        exec(compile(block, str(readme), "exec"), namespace)


def test_import_loads_no_spatial_or_sparse_scipy():
    # scipy serves only its LAPACK wrappers; scipy.spatial and scipy.sparse
    # would add about 90 modules and 9 MiB to every process.
    src = Path(__file__).resolve().parents[1] / "src"
    script = (
        "import sys, gpdevopt, gpdevopt.cli\n"
        "print(' '.join(m for m in sys.modules"
        " if m.startswith(('scipy.spatial', 'scipy.sparse'))))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.split() == []

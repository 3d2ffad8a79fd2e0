import ast
import re
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

"""Import boundaries, read from the source without importing it.

The oracle checks every verdict of the search, so it must not share the
search's code: `singlehead/oracle.py` imports from the package only
through `singlehead.formula`.  The benchmark's generators build formulas
whose answers follow from how they are built, so `bench/generators.py`
imports nothing of the package.
"""

import ast
import os

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
ORACLE = os.path.join(ROOT, "src", "singlehead", "oracle.py")
GENERATORS = os.path.join(ROOT, "bench", "generators.py")


def package_imports(source: str, package: str = "singlehead") -> set[str]:
    """The modules of `package` that `source`, a top-level module of the
    package, imports from, as dotted names: `from . import x` gives the
    package itself."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = f"{package}.{module}".rstrip(".")
            names = [module]
        else:
            continue
        found.update(name for name in names
                     if name == package or name.startswith(package + "."))
    return found


def read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def test_oracle_imports_only_formula():
    assert package_imports(read(ORACLE)) == {"singlehead.formula"}


def test_generators_import_nothing_of_the_package():
    assert package_imports(read(GENERATORS)) == set()


@pytest.mark.parametrize("source, expected", [
    ("from .formula import Clause", {"singlehead.formula"}),
    ("from . import reconstruct", {"singlehead"}),
    ("from .closure import _hclose", {"singlehead.closure"}),
    ("import singlehead.reconstruct as r", {"singlehead.reconstruct"}),
    ("from singlehead import reconstruct", {"singlehead"}),
    ("def f():\n    import singlehead\n", {"singlehead"}),
    ("import random, itertools\nfrom typing import Optional", set()),
    ("import singleheaded", set()),
])
def test_package_imports_finds_every_form(source, expected):
    assert package_imports(source) == expected

"""The package surface: what `from singlehead import *` gives, and the
version, which `pyproject.toml` and `singlehead.__version__` both state."""

import os
import re

import singlehead

PYPROJECT = os.path.join(os.path.dirname(__file__), os.pardir,
                         "pyproject.toml")


def test_star_import_binds_exactly_all():
    names = singlehead.__all__
    assert len(names) == len(set(names))
    namespace: dict = {}
    exec("from singlehead import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(names)
    for name in names:
        assert namespace[name] is getattr(singlehead, name)


def test_version_matches_pyproject():
    with open(PYPROJECT, encoding="utf-8") as handle:
        text = handle.read()
    # the `version` key of the `[project]` table
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text,
                        re.MULTILINE | re.DOTALL)
    assert project is not None
    found = re.findall(r'^version\s*=\s*"([^"]+)"\s*$', project.group(1),
                       re.MULTILINE)
    assert found == [singlehead.__version__]

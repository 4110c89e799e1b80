"""The package surface: what `from singlehead import *` gives, the
README line of each exported name, the version, which `pyproject.toml`
and `singlehead.__version__` both state, the test configuration in
`pyproject.toml`, and the test tools' pins, which its `test` extra and the
CI workflow both state."""

import os
import re
import subprocess
import sys

import singlehead

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
PYPROJECT = os.path.join(ROOT, "pyproject.toml")
README = os.path.join(ROOT, "README.md")
WORKFLOW = os.path.join(ROOT, ".github", "workflows", "tests.yml")


def test_star_import_binds_exactly_all():
    names = singlehead.__all__
    assert len(names) == len(set(names))
    namespace: dict = {}
    exec("from singlehead import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(names)
    for name in names:
        assert namespace[name] is getattr(singlehead, name)


def test_readme_library_section_lists_all():
    with open(README, encoding="utf-8") as handle:
        text = handle.read()
    # from the `## Library` heading to the next level-two heading
    section = re.search(r"^## Library\n(.*?)(?=^## |\Z)", text,
                        re.MULTILINE | re.DOTALL)
    assert section is not None
    listed = re.findall(r"^- `(\w+)[`(]", section.group(1), re.MULTILINE)
    missing = [n for n in singlehead.__all__ if n not in listed]
    assert not missing


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


def test_workflow_installs_the_test_extra_pins():
    # with warnings as errors, a test tool newer than CI's can fail a local
    # run that CI passes; parsed as text, as Python 3.10 has no `tomllib`
    with open(PYPROJECT, encoding="utf-8") as handle:
        extra = re.search(r"^test\s*=\s*\[([^\]]*)\]", handle.read(),
                          re.MULTILINE)
    assert extra is not None
    pins = re.findall(r'"([^"]+)"', extra.group(1))
    assert pins and all(re.fullmatch(r"[\w-]+==[\w.]+", p) for p in pins)
    with open(WORKFLOW, encoding="utf-8") as handle:
        installs = re.findall(r"^\s*run: python -m pip install (.+)$",
                              handle.read(), re.MULTILINE)
    assert [sorted(line.split()) for line in installs] == [sorted(pins)]


FAILING_GIVEN = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert False


def test_passes():
    pass
"""


def test_failing_given_test_does_not_stop_the_session(tmp_path):
    # warnings are errors, but a failing @given test must fail alone
    (tmp_path / "test_throwaway.py").write_text(FAILING_GIVEN)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", PYPROJECT, "--rootdir", str(tmp_path),
         str(tmp_path / "test_throwaway.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = done.stdout + done.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out

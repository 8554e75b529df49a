"""Public names: every export resolves, so a name left behind by a deletion fails."""

import contextlib
import importlib
import io
import pkgutil
import re
from pathlib import Path

import pytest

import samediff

MODULES = sorted(
    m.name for m in pkgutil.iter_modules(samediff.__path__) if not m.name.startswith("_")
)
README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_package_export_resolves():
    assert [name for name in samediff.__all__ if not hasattr(samediff, name)] == []
    assert len(set(samediff.__all__)) == len(samediff.__all__)


def test_package_exports_the_union_of_module_lists():
    union = [n for name in MODULES for n in importlib.import_module(f"samediff.{name}").__all__]
    assert len(set(union)) == len(union)
    assert set(samediff.__all__) == set(union)


@pytest.mark.parametrize("name", MODULES)
def test_every_module_export_resolves(name):
    module = importlib.import_module(f"samediff.{name}")
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []


def test_readme_library_sketch_runs():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library sketch"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {"__name__": "readme_sketch"})
    assert float(out.getvalue().split()[-1]) >= 0.9

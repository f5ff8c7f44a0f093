"""Checks on the library's source text."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "citedyn"
# __init__.py imports its submodules to re-export them.
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads, as `line: name`. A name
    listed in the module's __all__ counts as read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return [f"{line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in read]


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom typing import Union, NamedTuple\n" \
             "__all__ = ['NamedTuple']\nnp.zeros(1)\n"
    assert unused_imports(source) == ["1: os", "3: Union"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


_LOGGER_MAKERS = {"logging.getLogger", "getLogger", "logging.Logger", "Logger"}


def stray_channels(source: str) -> list[str]:
    """Ways a module reports besides its citedyn.* logger, as `line: call`:
    a print or warnings.warn call anywhere, or a module-level logger made
    other than by logging.getLogger(__name__)."""
    tree = ast.parse(source)
    found = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and ast.unparse(node.func) in ("print", "warnings.warn")]
    assigned = [stmt for stmt in tree.body if isinstance(stmt, (ast.Assign, ast.AnnAssign))]
    found += [node for stmt in assigned for node in ast.walk(stmt)
              if isinstance(node, ast.Call) and ast.unparse(node.func) in _LOGGER_MAKERS
              and ast.unparse(node) != "logging.getLogger(__name__)"]
    return [f"{node.lineno}: {ast.unparse(node)}" for node in sorted(found, key=lambda n: n.lineno)]


def test_stray_channels_are_found():
    source = ("import logging, warnings\nlog = logging.getLogger(__name__)\n"
              "other = logging.getLogger('citedyn')\n"
              "def f():\n    print('x')\n    warnings.warn('y')\n"
              "    return logging.getLogger('citedyn')\n")
    assert stray_channels(source) == [
        "3: logging.getLogger('citedyn')", "5: print('x')", "6: warnings.warn('y')",
    ]


@pytest.mark.parametrize("path", ALL_MODULES, ids=[p.name for p in ALL_MODULES])
def test_module_warns_only_through_its_logger(path):
    # The CLI gathers the citedyn.* loggers' warnings into the envelope;
    # a print or warnings.warn would bypass it.
    assert stray_channels(path.read_text(encoding="utf-8")) == []

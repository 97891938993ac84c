"""The trace record format's module stands apart from the engine."""
from __future__ import annotations

import ast
from pathlib import Path

from fuelstring import trace

ENGINE = {"sim", "online", "offline"}


def _imported_modules(source: str) -> set[str]:
    """The last name of every module an import statement names, and every
    name a relative `from . import` brings in."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name.rsplit(".", 1)[-1] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                names.add(node.module.rsplit(".", 1)[-1])
            if not node.module or node.module == "fuelstring":
                names |= {alias.name for alias in node.names}
    return names


def test_trace_imports_no_engine_module():
    names = _imported_modules(Path(trace.__file__).read_text())
    assert names & ENGINE == set(), sorted(names)
    assert _imported_modules("from .sim import run\nfrom . import online\n") >= {"sim", "online"}

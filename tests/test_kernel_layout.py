"""Where the bank kernels live.

``core/bankpath.py`` holds the bank engine, its reception paths and its
scheduler; each protocol kernel lives in its algorithm's module, beside
the process it mirrors, on the bases in ``core/kernels.py``. The core
modules must not import the algorithms: the algorithms import them.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro.algorithms  # noqa: F401 - importing registers every kernel
from repro.core.bankpath import _KERNELS

CORE = Path(__file__).resolve().parents[1] / "src" / "repro" / "core"


def _imported_modules(path: Path) -> list[str]:
    """Every module an ``import`` or ``from … import`` in the file names."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.append(node.module)
            names.extend(f"{node.module}.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize("module", ["bankpath.py", "kernels.py"])
def test_core_module_imports_no_algorithm(module):
    imported = _imported_modules(CORE / module)
    assert not [name for name in imported if name.split(".")[:2] == ["repro", "algorithms"]]


def test_bankpath_defines_no_kernel_class():
    tree = ast.parse((CORE / "bankpath.py").read_text(encoding="utf-8"))
    classes = [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    assert not [name for name in classes if "Kernel" in name or name == "_SlotPlan"]


def test_each_kernel_sits_beside_the_process_it_mirrors():
    assert len(_KERNELS) == 9
    for process_cls, kernel_cls in _KERNELS.items():
        assert kernel_cls.mirrors is process_cls
        assert kernel_cls.__module__ == process_cls.__module__
        assert kernel_cls.__module__.startswith("repro.algorithms.")

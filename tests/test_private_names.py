"""No module of the package uses another module's private names.

A module under ``src/spectral_robustness/`` may not import a ``_name`` from a
sibling (``from .spectral import _stack``, relative or through the package
name), nor read ``sibling._name`` off a sibling module it imported
(``from . import spectral``, ``import spectral_robustness.spectral as sp``).
A private helper that a second module needs becomes public in its owner.
Dunder names such as ``__name__`` are not private.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spectral_robustness"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _in_package(module: str | None) -> bool:
    return (module or "").split(".")[0] == PACKAGE.name


def _dotted(node) -> str | None:
    """``a.b.c`` for a chain of attribute reads on a name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return base and f"{base}.{node.attr}"
    return None


def private_uses(source: str, filename: str) -> list[str]:
    """``filename:line name`` for each sibling's private name the module imports or reads."""
    tree = ast.parse(source)
    found = []
    # Names the module binds to sibling modules; a name imported from the
    # package itself may be a module, so it counts as one.
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or _in_package(node.module)):
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"{filename}:{node.lineno} {alias.name}")
                elif node.module in (None, PACKAGE.name):
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            modules.update(
                alias.asname or alias.name for alias in node.names if _in_package(alias.name)
            )
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr) and _dotted(node.value) in modules:
            found.append(f"{filename}:{node.lineno} {node.attr}")
    return sorted(found)


def test_no_module_uses_a_siblings_private_names():
    found = [
        hit
        for module in sorted(PACKAGE.glob("*.py"))
        for hit in private_uses(module.read_text(encoding="utf-8"), module.name)
    ]
    assert found == []


@pytest.mark.parametrize(
    "source, name",
    [
        ("from .spectral import _stack", "_stack"),
        ("from .spectral import psd, _stack as stack", "_stack"),
        ("from spectral_robustness.spectral import _stack", "_stack"),
        ("from . import _helpers", "_helpers"),
        ("from . import spectral\nspectral._stack(x)", "_stack"),
        ("from . import spectral as sp\nn = sp._CHUNK_PIXELS", "_CHUNK_PIXELS"),
        ("from spectral_robustness import tables\ntables._rows(p, h)", "_rows"),
        ("import spectral_robustness.spectral as sp\nsp._stack(x)", "_stack"),
        ("import spectral_robustness.spectral\nspectral_robustness.spectral._stack(x)", "_stack"),
        ("def f():\n    from . import tensorio\n    return tensorio._tmp", "_tmp"),
    ],
)
def test_private_uses_are_caught(source, name):
    assert [hit.split()[1] for hit in private_uses(source, "m.py")] == [name]


@pytest.mark.parametrize(
    "source",
    [
        "from .errors import InvalidInputError",
        "from .spectral import psd as _psd",
        "from . import tensorio\ntensorio.atomic_open(p)",
        "from . import spectral\nspectral.__name__",
        "def _own():\n    pass\n_own()",
        "self._cache = {}",
        "import numpy as np\nnp._NoValue",
        "from numpy import _NoValue",
    ],
)
def test_own_and_foreign_names_pass(source):
    assert private_uses(source, "m.py") == []

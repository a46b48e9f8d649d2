"""Every module-level function, class and constant of the package and its tests is used.

A name defined at module level in ``src/spectral_robustness/``, or a helper
defined at module level in ``tests/`` (anything but ``test_*`` functions,
``Test*`` classes and ``pytest_*`` hooks, which pytest calls itself), must
appear as a whole word (a maximal run of word characters) somewhere besides
its definition: in ``src/``, ``tests/``, ``perfbench/`` or README.md. Dead
helpers fail here instead of lingering.

A name the package exports from ``__init__.py`` must also be referenced
outside ``tests/``: in ``src/`` besides its definition and that import, in
``perfbench/`` or in README.md. A public function only tests call fails here.

A public module-level name of the package (no leading underscore) must be
exported from ``__init__.py`` or read by code in ``src/`` or ``perfbench/``:
a name or attribute in the syntax tree, not a word in a docstring or comment.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spectral_robustness"


def module_level_names(source: str) -> list[str]:
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return names


def word_counts(paths) -> Counter:
    return Counter(re.findall(r"\w+", "\n".join(p.read_text(encoding="utf-8") for p in paths)))


def exported_names() -> list[str]:
    return [
        alias.asname or alias.name
        for node in ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def code_references(paths) -> set[str]:
    """Every name read and every attribute taken in the code of ``paths``."""
    refs = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
    return refs


def outside_tests() -> list[Path]:
    return [
        *sorted((ROOT / "src").rglob("*.py")),
        *sorted(p for p in (ROOT / "perfbench").rglob("*") if p.suffix in (".py", ".md")),
        ROOT / "README.md",
    ]


def test_every_module_level_name_is_referenced():
    words = word_counts([*outside_tests(), *sorted((ROOT / "tests").rglob("*.py"))])
    defined = {
        f"{module.stem}.{name}": name
        for module in sorted(PACKAGE.glob("*.py"))
        for name in module_level_names(module.read_text(encoding="utf-8"))
    }
    defined |= {
        f"tests.{module.stem}.{name}": name
        for module in sorted((ROOT / "tests").glob("*.py"))
        for name in module_level_names(module.read_text(encoding="utf-8"))
        if not name.startswith(("test_", "Test", "pytest_"))
    }
    # A name defined in several modules needs more matches than it has definitions.
    definitions = Counter(defined.values())
    dead = [qualified for qualified, name in defined.items() if words[name] <= definitions[name]]
    assert dead == []


def test_every_export_is_referenced_outside_tests():
    init = PACKAGE / "__init__.py"
    exported = exported_names()
    words = word_counts(p for p in outside_tests() if p != init)
    # The definition itself is one match.
    uncalled = [name for name in exported if words[name] <= 1]
    assert uncalled == []


def test_every_public_name_serves_the_package_or_is_exported():
    code = [*sorted((ROOT / "src").rglob("*.py")), *sorted((ROOT / "perfbench").rglob("*.py"))]
    used = code_references(code) | set(exported_names())
    unused = [
        f"{module.stem}.{name}"
        for module in sorted(PACKAGE.glob("*.py"))
        for name in module_level_names(module.read_text(encoding="utf-8"))
        if not name.startswith("_") and name not in used
    ]
    assert unused == []

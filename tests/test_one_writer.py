"""Every output file of the package is written through ``tensorio.atomic_open``.

No code in ``src/spectral_robustness/`` outside ``atomic_open`` may call an
``open`` (builtin or any ``x.open``) whose mode writes, appends or creates, or
whose mode is not a string literal; nor ``.write_text``, ``.write_bytes``,
``.tofile`` or ``np.save*``. A file written any other way could be left
truncated by a failed command.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spectral_robustness"
ALLOWED = ("tensorio.py", "atomic_open")
WRITING_METHODS = {"write_text", "write_bytes", "tofile"}


def _open_mode(call: ast.Call):
    """The mode node of an ``open`` call, or None when it opens for reading by default.

    ``open(file, mode)``, ``io.open(file, mode)`` and ``os.open(file, flags)``
    take the mode second; ``Path.open(mode)`` takes it first, which is told
    apart from a lone file argument only when it is a literal.
    """
    for kw in call.keywords:
        if kw.arg in ("mode", "flags"):
            return kw.value
    if len(call.args) > 1:
        return call.args[1]
    if isinstance(call.func, ast.Attribute) and call.args:
        first = call.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            return first
    return None


def _writes(call: ast.Call) -> bool:
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name == "open":
        mode = _open_mode(call)
        if mode is None:
            return False
        if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
            return True
        return any(c in mode.value for c in "wax+")
    if name in WRITING_METHODS:
        return True
    return (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id in ("np", "numpy")
        and func.attr.startswith("save")
    )


def writing_calls(source: str, filename: str) -> list[str]:
    """``filename:line function`` for each writing call outside ``atomic_open``."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and _writes(node) and (filename, function) != ALLOWED:
            found.append(f"{filename}:{node.lineno} {function}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_only_atomic_open_opens_files_for_writing():
    found = [
        hit
        for module in sorted(PACKAGE.glob("*.py"))
        for hit in writing_calls(module.read_text(encoding="utf-8"), module.name)
    ]
    assert found == []


def test_atomic_open_is_the_writer():
    source = (PACKAGE / "tensorio.py").read_text(encoding="utf-8")
    # Without the allowance atomic_open's own open call is the only hit.
    assert [hit.split()[1] for hit in writing_calls(source, "elsewhere.py")] == ["atomic_open"]


@pytest.mark.parametrize(
    "source",
    [
        'open(p, "w")',
        'open(p, "wb", newline="")',
        'open(p, mode="a")',
        'open(p, "xb")',
        'open(p, "r+")',
        "open(p, mode)",
        'io.open(p, "w")',
        'Path(p).open("w")',
        "os.open(p, os.O_WRONLY)",
        'Path(p).write_text("x")',
        'p.write_bytes(b"x")',
        "arr.tofile(p)",
        "np.save(p, arr)",
        "np.savetxt(p, arr)",
    ],
)
def test_writing_calls_are_caught(source):
    assert writing_calls(f"def f():\n    {source}\n", "m.py") == ["m.py:2 f"]


@pytest.mark.parametrize(
    "source",
    [
        "open(p)",
        'open(p, "rb")',
        'open(p, newline="", errors="strict")',
        'Path(p).open("r")',
        "Path(p).read_text()",
    ],
)
def test_reading_calls_pass(source):
    assert writing_calls(f"def f():\n    {source}\n", "m.py") == []

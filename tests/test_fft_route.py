"""No module of the package but ``spectral`` uses a 2-D ``numpy.fft`` or ``scipy.fft`` transform.

Every 2-D transform goes through ``spectral.rfft2`` and ``spectral.irfft2``,
the one place that picks the FFT backend. A module under
``src/spectral_robustness/`` may not name a 2-D or n-D transform of either
package, however it imported it (``np.fft.ifft2``, ``import scipy.fft as sf``,
``from numpy.fft import fft2``). One-axis transforms and helpers such as
``fftfreq`` and ``fftshift`` are free to use.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spectral_robustness"
FFT_PACKAGES = ("numpy.fft", "scipy.fft")
TRANSFORMS_2D = {
    f"{kind}{suffix}"
    for kind in ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft")
    for suffix in ("2", "n")
} | {"dctn", "idctn", "dstn", "idstn"}


def _dotted(node) -> str | None:
    """``a.b.c`` for a chain of attribute reads on a name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return base and f"{base}.{node.attr}"
    return None


def transform_uses(source: str, filename: str) -> list[str]:
    """``filename:line numpy.fft.name`` for each 2-D transform of numpy or scipy the module names."""
    tree = ast.parse(source)
    # Each name the module binds to a module or function, by its full dotted path.
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    bound[alias.asname] = alias.name
                else:
                    top = alias.name.split(".")[0]
                    bound[top] = top
        elif isinstance(node, ast.ImportFrom) and not node.level:
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    found = []
    for node in ast.walk(tree):
        name = _dotted(node) if isinstance(node, (ast.Name, ast.Attribute)) else None
        if name is None:
            continue
        head, _, rest = name.partition(".")
        full = ".".join(filter(None, [bound.get(head, head), rest]))
        package, _, transform = full.rpartition(".")
        if package in FFT_PACKAGES and transform in TRANSFORMS_2D:
            found.append(f"{filename}:{node.lineno} {full}")
    return sorted(found)


def test_only_spectral_uses_a_2d_transform():
    found = [
        hit
        for module in sorted(PACKAGE.glob("*.py"))
        if module.name != "spectral.py"
        for hit in transform_uses(module.read_text(encoding="utf-8"), module.name)
    ]
    assert found == []


@pytest.mark.parametrize(
    "source, name",
    [
        ("import numpy as np\nnp.fft.ifft2(x)", "numpy.fft.ifft2"),
        ("import numpy\nnumpy.fft.fft2(x)", "numpy.fft.fft2"),
        ("import numpy.fft as nf\nnf.rfftn(x)", "numpy.fft.rfftn"),
        ("from numpy import fft\nfft.irfft2(x, s)", "numpy.fft.irfft2"),
        ("from numpy.fft import fft2 as f\nf(x)", "numpy.fft.fft2"),
        ("import scipy.fft\nscipy.fft.rfft2(x)", "scipy.fft.rfft2"),
        ("import scipy.fft as sf\nsf.dctn(x)", "scipy.fft.dctn"),
        ("from scipy import fft\nfft.ifftn(x)", "scipy.fft.ifftn"),
        ("from scipy.fft import irfft2\ny = irfft2(x)", "scipy.fft.irfft2"),
        ("import numpy as np\nforward = np.fft.fft2", "numpy.fft.fft2"),
    ],
)
def test_transform_uses_are_caught(source, name):
    assert [hit.split()[1] for hit in transform_uses(source, "m.py")] == [name]


@pytest.mark.parametrize(
    "source",
    [
        "import numpy as np\nnp.fft.rfft(x, axis=0)",
        "import numpy as np\nnp.fft.fftshift(x)",
        "import numpy as np\nnp.fft.fftfreq(8)",
        "from .spectral import irfft2\nirfft2(x, s)",
        "from . import spectral\nspectral.rfft2(x)",
        "import scipy.fft\nscipy.fft.fft(x)",
        "def fft2(x):\n    return x\nfft2(y)",
    ],
)
def test_other_uses_pass(source):
    assert transform_uses(source, "m.py") == []

"""The package is pure Python with one module of kernels."""

from pathlib import Path

import bsmg
from bsmg import _kernels

PACKAGE = Path(bsmg.__file__).parent


def test_package_holds_only_python_sources():
    files = [path for path in PACKAGE.rglob("*")
             if path.is_file() and "__pycache__" not in path.parts]
    assert len(files) > 10
    assert [str(path.relative_to(PACKAGE)) for path in files
            if path.suffix != ".py"] == []


def test_kernels_module_exports_the_two_kernels():
    assert Path(_kernels.__file__).name == "_kernels.py"
    public = sorted(name for name in vars(_kernels) if not name.startswith("_"))
    assert public == ["component_labels", "perm_closure"]

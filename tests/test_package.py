import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import mixbar

SRC = os.path.dirname(os.path.dirname(mixbar.__file__))
THREADS = "OPENBLAS_NUM_THREADS"


def in_child(code: str, **env: str) -> str:
    """The stdout of a fresh interpreter running code, with env added to an
    environment that does not set OPENBLAS_NUM_THREADS (this process may
    have imported mixbar.cli, which sets it)."""
    full = {**os.environ, "PYTHONPATH": SRC}
    full.pop(THREADS, None)
    out = subprocess.run(
        [sys.executable, "-c", code], env={**full, **env}, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def loaded_after(statement: str) -> list[str]:
    """The mixbar and numpy modules a fresh interpreter holds after running
    statement."""
    return in_child(
        f"{statement}\nimport sys\nprint(*sorted(m for m in sys.modules if m.split('.')[0] in ('mixbar', 'numpy')))"
    ).split()


def test_import_mixbar_executes_no_submodule():
    assert loaded_after("import mixbar") == ["mixbar"]


def test_cli_loads_neither_the_oracle_nor_the_fuzzer():
    loaded = loaded_after("import mixbar.cli")
    assert "mixbar.cli" in loaded and "mixbar.stats" in loaded
    assert "mixbar.oracle" not in loaded and "mixbar.verify" not in loaded


def test_each_public_name_is_its_submodules_object():
    for module, names in mixbar._EXPORTS.items():
        owner = importlib.import_module(f"mixbar.{module}")
        for name in names:
            value = getattr(mixbar, name)
            assert value is getattr(owner, name)
            assert getattr(value, "__module__", owner.__name__) == owner.__name__
    # each name listed under one submodule only
    assert sum(map(len, mixbar._EXPORTS.values())) == len(mixbar.__all__)


def test_star_import_and_dir_list_every_public_name():
    namespace: dict = {}
    exec("from mixbar import *", namespace)
    assert set(mixbar.__all__) <= set(namespace)
    assert set(mixbar.__all__) <= set(dir(mixbar))
    assert mixbar.oracle is importlib.import_module("mixbar.oracle")


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'mixbar' has no attribute 'no_such_name'"):
        mixbar.no_such_name
    assert not hasattr(mixbar, "no_such_name")


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")
def test_cli_pins_openblas_to_one_thread():
    code = f"import mixbar.cli, os\nprint(os.environ[{THREADS!r}], len(os.listdir('/proc/self/task')))"
    assert in_child(code) == "1 1"


def test_cli_keeps_a_preset_openblas_thread_count():
    code = f"import mixbar.cli, os\nprint(os.environ[{THREADS!r}])"
    assert in_child(code, **{THREADS: "2"}) == "2"


@pytest.mark.parametrize("module", ["mixbar", "mixbar.stats"])
def test_library_imports_leave_openblas_threads_alone(module):
    assert in_child(f"import {module}, os\nprint(os.environ.get({THREADS!r}))") == "None"


# numpy routes these calls to BLAS; einsum does too when asked to optimize
BLAS_CALLS = {"dot", "matmul", "inner", "vdot", "tensordot"}


def blas_use(node: ast.AST) -> str | None:
    """What node does that can reach BLAS through numpy, if anything."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
        return "@"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in BLAS_CALLS:
            return f"{node.func.attr}()"
        if node.func.attr == "einsum" and any(kw.arg == "optimize" for kw in node.keywords):
            return "einsum(optimize=...)"
    names = [getattr(node, field, None) or "" for field in ("attr", "id", "module")]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        names += [alias.name for alias in node.names]
    if any("linalg" in name.split(".") for name in names):
        return "linalg"
    return None


def blas_uses(source: str) -> list[str]:
    uses = [(node.lineno, use) for node in ast.walk(ast.parse(source)) if (use := blas_use(node))]
    return [f"line {line}: {use}" for line, use in sorted(uses)]


def test_blas_guard_finds_each_form():
    source = """
import numpy.linalg
from numpy import linalg
a @ b
a @= b
np.dot(a, b)
a.matmul(b)
np.inner(a, b)
np.vdot(a, b)
np.tensordot(a, b)
np.linalg.norm(a)
linalg.solve(a, b)
np.einsum("ij,jk", a, b, optimize=True)
np.einsum("ijk,ijk->ij", a, a, out=c)
"""
    assert [use.split(": ")[1] for use in blas_uses(source)] == [
        "linalg", "linalg", "@", "@", "dot()", "matmul()", "inner()", "vdot()", "tensordot()",
        "linalg", "linalg", "einsum(optimize=...)",
    ]


def test_mixbar_makes_no_blas_call():
    found = [
        f"{path.name} {use}"
        for path in sorted(pathlib.Path(mixbar.__file__).parent.rglob("*.py"))
        for use in blas_uses(path.read_text(encoding="utf-8"))
    ]
    assert not found, (
        f"BLAS work in mixbar: {found}. The command pins OpenBLAS to one thread "
        "(the OPENBLAS_NUM_THREADS line of mixbar/cli.py) because mixbar makes no "
        "BLAS call; revisit that line before adding any."
    )


# the per-cell object layer of mixbar.filtration, which only the tests and
# the benchmark tracer read: the package reads a pair's arrays
OBJECT_LAYER = {"Cell", "MEMBER_L", "MEMBER_K"}


def object_layer_uses(source: str) -> list[str]:
    """Where source names Cell, MEMBER_L or MEMBER_K, or reads an attribute
    .cells."""
    uses = []
    for node in ast.walk(ast.parse(source)):
        name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
        if name in OBJECT_LAYER or (isinstance(node, ast.Attribute) and name == "cells"):
            uses.append((node.lineno, name))
    return [f"line {line}: {name}" for line, name in sorted(uses)]


def test_object_layer_guard_finds_each_form():
    source = """
from .filtration import Cell, FilteredPair
from . import filtration
fp.cells
filtration.MEMBER_L
x = MEMBER_K
cells = fp.dim
def cells(dim): pass
"""
    assert object_layer_uses(source) == [
        "line 2: Cell", "line 4: cells", "line 5: MEMBER_L", "line 6: MEMBER_K"
    ]
    oracle = pathlib.Path(mixbar.__file__).parent / "oracle.py"
    planted = oracle.read_text(encoding="utf-8") + "fp.cells\n"
    assert object_layer_uses(planted) == [f"line {planted.count(chr(10))}: cells"]


def test_only_filtration_names_the_object_layer():
    package = pathlib.Path(mixbar.__file__).parent
    found = [
        f"{path.name} {use}"
        for path in sorted(package.rglob("*.py"))
        if path.name != "filtration.py"
        for use in object_layer_uses(path.read_text(encoding="utf-8"))
    ]
    assert not found, f"mixbar reads the per-cell view outside filtration.py: {found}"

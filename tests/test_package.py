import importlib
import os
import subprocess
import sys

import pytest

import mixbar

SRC = os.path.dirname(os.path.dirname(mixbar.__file__))


def loaded_after(statement: str) -> list[str]:
    """The mixbar and numpy modules a fresh interpreter holds after running
    statement."""
    code = f"{statement}\nimport sys\nprint(*sorted(m for m in sys.modules if m.split('.')[0] in ('mixbar', 'numpy')))"
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.split()


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

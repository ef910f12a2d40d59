"""No process-global mutable state: every module-level array of the package is read-only."""

import importlib
import pkgutil

import numpy as np
import pytest

import eccbounds
from eccbounds import _kernels, graphs

MODULES = ["eccbounds", *sorted(f"eccbounds.{module.name}" for module in pkgutil.iter_modules(eccbounds.__path__))]


def module_arrays(name: str) -> dict[str, np.ndarray]:
    return {attr: value for attr, value in vars(importlib.import_module(name)).items() if isinstance(value, np.ndarray)}


@pytest.mark.parametrize("name", MODULES)
def test_module_level_arrays_are_read_only(name):
    assert [attr for attr, value in module_arrays(name).items() if value.flags.writeable] == []


def test_the_scan_sees_the_lookup_tables():
    # the byte tables of the edge-list reader and of the power-pair kernel: a write raises, not corrupts
    assert "eccbounds.__main__" in MODULES
    assert set(module_arrays("eccbounds.graphs")) == {"_BYTE_CLASS"}
    assert set(module_arrays("eccbounds._kernels")) == {"_BYTE_BITS", "_POPCOUNT", "_BIT_START", "_BIT_POSITIONS"}
    for table in (graphs._BYTE_CLASS, _kernels._POPCOUNT):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1

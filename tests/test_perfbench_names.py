"""The benchmark's tracer wraps layer functions by name: every name it lists
must still exist, or a traced benchmark run fails with ``AttributeError``."""
from __future__ import annotations

import importlib

import pytest

from perfbench.spans import WRAPPED


@pytest.mark.parametrize("module, attr, span", WRAPPED)
def test_traced_name_resolves(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr))

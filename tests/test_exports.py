"""Every name a package exports resolves, so `from ... import *` cannot fail
on a name whose definition was deleted."""

import importlib

import pytest

EXPORTS = [(module, name) for module in ("vesselcast.data", "vesselcast.engine")
           for name in importlib.import_module(module).__all__]


@pytest.mark.parametrize("module, name", EXPORTS, ids=[f"{m}.{n}" for m, n in EXPORTS])
def test_exported_name_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)

"""The package's public names: each one listed once, and each one real."""

import importlib

import pytest

MODULES = ["bcorlicz"] + [
    f"bcorlicz.{m}" for m in ("bicomplex", "cli", "errors", "measure", "operators", "orlicz")
]
REMOVED = ["modular_bc", "HyperbolicValue", "pushforward", "Pushforward", "is_nonsingular"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves_and_is_listed_once(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported))
    for attr in exported:
        assert hasattr(module, attr), f"{name}.__all__ names {attr!r}, which is not defined"


@pytest.mark.parametrize("name", MODULES)
def test_removed_names_are_gone(name):
    module = importlib.import_module(name)
    for attr in REMOVED:
        assert attr not in module.__all__
        assert not hasattr(module, attr)


"""The package's public names: each one listed once, and each one real."""

import importlib

import pytest

import bcorlicz

SUBMODULES = [
    f"bcorlicz.{m}"
    for m in ("bicomplex", "cli", "errors", "measure", "operators", "orlicz", "young")
]
MODULES = ["bcorlicz"] + SUBMODULES
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


def test_dir_covers_every_export():
    assert set(bcorlicz.__all__) <= set(dir(bcorlicz))


def test_star_import_binds_every_export():
    scope = {}
    exec("from bcorlicz import *", scope)
    assert set(bcorlicz.__all__) <= set(scope)
    for attr in bcorlicz.__all__:
        assert scope[attr] is getattr(bcorlicz, attr)


def test_every_export_is_its_home_modules_object():
    modules = [importlib.import_module(name) for name in SUBMODULES]
    for attr in bcorlicz.__all__:
        homes = [m for m in modules if attr in m.__all__]
        assert homes, f"no submodule exports {attr!r}"
        for home in homes:
            assert getattr(bcorlicz, attr) is getattr(home, attr), (attr, home.__name__)

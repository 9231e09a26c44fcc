import importlib
import inspect

import pytest

import disclosure_lab


def test_every_export_is_its_home_modules_object():
    homes = disclosure_lab._EXPORTS
    assert sorted(n for names in homes.values() for n in names) == sorted(
        disclosure_lab.__all__
    )
    for module, names in homes.items():
        home = importlib.import_module(f"disclosure_lab.{module}")
        for name in names:
            assert disclosure_lab.__getattr__(name) is getattr(home, name)
            assert getattr(disclosure_lab, name) is getattr(home, name)


def test_all_is_listed_once_and_by_dir():
    names = disclosure_lab.__all__
    assert len(set(names)) == len(names)
    assert set(names) <= set(dir(disclosure_lab))


def test_star_import_binds_every_export():
    namespace = {}
    exec("from disclosure_lab import *", namespace)
    for name in disclosure_lab.__all__:
        assert namespace[name] is getattr(disclosure_lab, name)


def test_submodules_still_import_from_the_package():
    from disclosure_lab import cli, design

    assert inspect.ismodule(cli) and cli.__name__ == "disclosure_lab.cli"
    assert inspect.ismodule(design) and design.__name__ == "disclosure_lab.design"


def test_unknown_name_raises_attribute_error():
    message = "module 'disclosure_lab' has no attribute 'no_such_name'"
    with pytest.raises(AttributeError, match=f"^{message}$"):
        disclosure_lab.no_such_name

"""The package's public names: each module's ``__all__``, re-exported."""

import itertools

import mostar
from mostar import enumeration, families, io, transforms, tree, verify

MODULES = (tree, families, enumeration, transforms, verify, io)


def test_all_is_the_module_lists_in_order():
    expected = [name for module in MODULES for name in module.__all__] + ["__version__"]
    assert mostar.__all__ == expected and len(expected) == 51


def test_no_name_is_declared_by_two_modules():
    for a, b in itertools.combinations(MODULES, 2):
        assert not set(a.__all__) & set(b.__all__), (a.__name__, b.__name__)


def test_each_package_name_is_the_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(mostar, name) is getattr(module, name), name


def test_star_import_binds_exactly_all():
    scope = {}
    exec("from mostar import *", scope)
    del scope["__builtins__"]
    assert sorted(scope) == sorted(mostar.__all__)
    assert scope["__version__"] == mostar.__version__

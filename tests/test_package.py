"""The package's public names: each module's __all__, re-exported once."""

import doublelinear
from doublelinear import analytics, backtest, esp, policy, simulate, weights

MODULES = (analytics, backtest, esp, policy, simulate, weights)


def test_public_names_are_the_module_lists():
    names = [name for module in MODULES for name in module.__all__] + ["__version__"]
    assert doublelinear.__all__ == names
    assert len(set(names)) == len(names)


def test_each_name_is_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(doublelinear, name) is getattr(module, name), name

import importlib
import pkgutil

import pytest

import clonepit

# every library module; the command line front end exports no names
MODULES = sorted(m.name for m in pkgutil.iter_modules(clonepit.__path__) if m.name != "cli")


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_are_reexported(name):
    mod = importlib.import_module(f"clonepit.{name}")
    for attr in mod.__all__:
        assert getattr(mod, attr) is getattr(clonepit, attr)
    assert set(mod.__all__) <= set(clonepit.__all__)


def test_package_exports_resolve():
    assert all(hasattr(clonepit, attr) for attr in clonepit.__all__)
    assert len(set(clonepit.__all__)) == len(clonepit.__all__)


# the library modules in the order the package lists their names
ORDER = ("inputs", "pit", "moran", "branching", "analysis", "rng")


def test_package_exports_are_the_module_lists():
    # each name is declared once, in its module; a name two modules export
    # (ConfigurationError) keeps its first place
    assert sorted(ORDER) == MODULES
    names = ["__version__"]
    for name in ORDER:
        names += [n for n in importlib.import_module(f"clonepit.{name}").__all__ if n not in names]
    assert clonepit.__all__ == names

import os
import subprocess
import sys
import types

import pytest

import tempora


def test_every_public_name_is_its_defining_modules_own_object():
    for name in tempora.__all__:
        value = getattr(tempora, name)
        if isinstance(value, types.ModuleType):
            assert value is sys.modules[f"tempora.{name}"]
            continue
        home = sys.modules[f"tempora.{tempora._HOME[name]}"]
        assert getattr(home, name) is value, name
        if isinstance(value, (type, types.FunctionType)):
            assert value.__module__ == home.__name__, name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from tempora import *", namespace)
    assert all(namespace[name] is getattr(tempora, name) for name in tempora.__all__)


def test_an_unknown_attribute_raises_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        tempora.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from tempora import no_such_name", {})


def test_the_package_loads_each_submodule_on_first_use():
    # A fresh ``import tempora`` loads no submodule, and dir() lists every
    # public name without loading one; a name loads its own module (and
    # what that imports), and submodules resolve as attributes.
    code = """if True:
        import sys, tempora
        loaded = lambda: sorted(m for m in sys.modules if m.startswith("tempora"))
        assert loaded() == ["tempora"], loaded()
        assert {*tempora.__all__, "__version__"} <= set(dir(tempora))
        assert loaded() == ["tempora"], loaded()
        tempora.Stream
        assert loaded() == ["tempora", "tempora.errors", "tempora.streams"], loaded()
        assert "numpy" not in sys.modules
        tempora.evaluate
        assert "numpy" not in sys.modules
        assert tempora.jsonio is sys.modules["tempora.jsonio"]
        assert "tempora.panel" not in sys.modules
        assert tempora.errors.TemporaError is sys.modules["tempora.errors"].TemporaError
        """
    src = os.path.dirname(tempora.__path__[0])
    subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), check=True)


def test_dir_lists_every_public_name_in_order():
    names = dir(tempora)
    assert names == sorted(names)
    assert {*tempora.__all__, "__version__"} <= set(names)

import importlib
import pkgutil

import bmlab


def test_every_exported_name_resolves():
    modules = [importlib.import_module(f"bmlab.{m.name}")
               for m in pkgutil.iter_modules(bmlab.__path__)]
    assert len(modules) >= 10
    missing = [(mod.__name__, name) for mod in modules
               for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []

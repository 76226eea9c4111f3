import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import bmlab

MODULES = [m.name for m in pkgutil.iter_modules(bmlab.__path__)]


def test_every_exported_name_resolves():
    modules = [importlib.import_module(f"bmlab.{name}") for name in MODULES]
    assert len(modules) >= 10
    missing = [(mod.__name__, name) for mod in modules
               for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_each_module_imports_first_in_a_fresh_interpreter(name):
    # a bare package object stands in for bmlab/__init__, whose imports
    # would otherwise fix the order
    code = ("import importlib, sys, types\n"
            "pkg = types.ModuleType('bmlab')\n"
            f"pkg.__path__ = {list(bmlab.__path__)!r}\n"
            f"pkg.__version__ = {bmlab.__version__!r}\n"
            "sys.modules['bmlab'] = pkg\n"
            f"importlib.import_module('bmlab.{name}')\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert done.returncode == 0, done.stderr


def test_import_leaves_scipy_fft_unloaded():
    # only dgff_batch needs scipy.fft; it imports it when first called
    root = os.path.dirname(list(bmlab.__path__)[0])
    code = (f"import sys\nsys.path.insert(0, {root!r})\nimport bmlab\n"
            "assert 'scipy.fft' not in sys.modules, 'scipy.fft was imported'\n"
            "bmlab.sample_dgff(5, bmlab.RngStream(1))\n"
            "assert 'scipy.fft' in sys.modules\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert done.returncode == 0, done.stderr

"""Every name a ``cllb`` module exports resolves.

A name left in an ``__all__`` after its object was deleted breaks
``from cllb.<module> import *`` with an AttributeError; these tests catch it
for the package and each of its modules.
"""

import importlib
import pkgutil

import pytest

import cllb

# cllb.__main__ runs the command line on import
MODULES = ["cllb"] + [
    f"cllb.{info.name}" for info in pkgutil.iter_modules(cllb.__path__) if info.name != "__main__"
]
EXPORTING = [name for name in MODULES if hasattr(importlib.import_module(name), "__all__")]


def test_the_public_modules_declare_their_exports():
    assert {"cllb", "cllb.covariance", "cllb.sampler", "cllb.smallball", "cllb.lil",
            "cllb.params"} <= set(EXPORTING)


@pytest.mark.parametrize("name", EXPORTING)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exports = list(module.__all__)
    assert len(exports) == len(set(exports)), "an export is listed twice"
    missing = [attr for attr in exports if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize("name", EXPORTING)
def test_star_import_binds_exactly_the_exports(name):
    namespace = {}
    exec(f"from {name} import *", namespace)
    namespace.pop("__builtins__")
    module = importlib.import_module(name)
    assert sorted(namespace) == sorted(module.__all__)
    assert all(namespace[attr] is getattr(module, attr) for attr in module.__all__)

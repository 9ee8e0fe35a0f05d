"""Export lists: every name a module exports resolves."""

import importlib
import pkgutil

import dfoq


def test_every_exported_name_resolves():
    modules = [dfoq] + [importlib.import_module(f"dfoq.{info.name}")
                        for info in pkgutil.iter_modules(dfoq.__path__)]
    for module in modules:
        exported = getattr(module, "__all__", ())
        assert len(set(exported)) == len(exported), module.__name__
        missing = [name for name in exported if not hasattr(module, name)]
        assert not missing, f"{module.__name__} exports missing names {missing}"

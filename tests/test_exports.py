"""Export lists: every name a module exports resolves."""

import dataclasses
import importlib
import inspect
import pkgutil

import dfoq
from dfoq.sweep import SweepConfig


def _modules():
    return [dfoq] + [importlib.import_module(f"dfoq.{info.name}")
                     for info in pkgutil.iter_modules(dfoq.__path__)]


def test_every_exported_name_resolves():
    for module in _modules():
        exported = getattr(module, "__all__", ())
        assert len(set(exported)) == len(exported), module.__name__
        missing = [name for name in exported if not hasattr(module, name)]
        assert not missing, f"{module.__name__} exports missing names {missing}"


def test_no_exported_callable_takes_a_tolerance():
    # one residual rule and one rank rule, with no per-call override
    offenders = []
    for module in _modules():
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if not callable(obj):
                continue
            members = [(name, obj)]
            if inspect.isclass(obj):
                members += [(f"{name}.{attr}", member) for attr, member in inspect.getmembers(obj, callable)
                            if not attr.startswith("_")]
            for label, member in members:
                try:
                    params = inspect.signature(member).parameters
                except (TypeError, ValueError):  # a builtin without a signature
                    continue
                offenders += [f"{module.__name__}.{label}({p})" for p in params if p in ("tol", "rtol")]
    assert not offenders
    assert "tol" not in {f.name for f in dataclasses.fields(SweepConfig)}

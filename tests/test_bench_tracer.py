"""The traced benchmark run wraps package functions by name; every name it
lists must exist, or `bench/run.py --trace 1` fails with AttributeError."""

import importlib
import importlib.util
import inspect
import os
import sys

import pytest

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                      "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is
    # being built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("module_name, attr, span, counter", tracer.LAYERS,
                         ids=[layer[2] for layer in tracer.LAYERS])
def test_layer_resolves(module_name, attr, span, counter):
    module = importlib.import_module(f"singlehead.{module_name}")
    function = getattr(module, attr)
    assert callable(function)
    assert inspect.isgeneratorfunction(function) == (counter == "generator")


def test_unwrapped_names_resolve():
    for module_name, attr in tracer.UNWRAPPED:
        assert callable(getattr(importlib.import_module(module_name), attr))

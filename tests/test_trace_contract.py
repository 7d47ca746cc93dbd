"""The benchmark's tracer finds every name it wraps.

`bench/spans.py` wraps package functions in the module namespaces their
callers look them up in, and upper-level objective methods on their classes.
A name deleted or moved out of one of those places breaks `bench/run.py
--trace 1`, so these tests check the tracer's tables against the package.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve_in_their_modules():
    missing = [f"{module}.{attr}" for module, attr, _, _ in load_spans().FUNCTIONS
               if not hasattr(importlib.import_module(module), attr)]
    assert not missing


def test_traced_methods_are_defined_on_their_classes():
    missing = [f"{module}.{cls}.{attr}"
               for module, cls, methods, _ in load_spans().METHODS
               for attr in methods
               if attr not in vars(getattr(importlib.import_module(module), cls))]
    assert not missing

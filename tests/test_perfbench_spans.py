"""The benchmark's trace mode wraps package functions by name; every name it
wraps must exist, or `perfbench/run.py --trace 1` breaks at install time."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_attribute_resolves():
    wraps = load_spans()._WRAPS
    assert wraps
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in wraps
        if not callable(getattr(importlib.import_module(f"chirpfield.{module}"), attr, None))
    ]
    assert not missing, f"perfbench/spans.py wraps missing attributes: {missing}"

"""The benchmark's trace mode wraps package functions by name; every name it
wraps must exist, or `perfbench/run.py --trace 1` breaks at install time,
and production must call through it, or its span reads zero."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from chirpfield import analytic_ber as ab
from chirpfield.channel import FadingConfig
from chirpfield.lora_phy import LoRaParams

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


def test_closed_forms_reach_q_through_the_wrapped_name(monkeypatch):
    # `specfun.q` and `specfun.q_evals` wrap `analytic_ber.q_exact`: a
    # production path that called Q by another name would read as zero
    evaluated = []
    original = ab.q_exact

    def counted(x, **kwargs):
        evaluated.append(np.size(x))
        return original(x, **kwargs)

    monkeypatch.setattr(ab, "q_exact", counted)
    cfg = ab.AnalyticConfig.from_fading(LoRaParams(7), FadingConfig.uniform(2.0, 25), 1e-3)
    ab.ber(cfg, "case_a", "noncoherent")
    assert sum(evaluated) > 0

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


# Wrapped names that no production run calls: montecarlo and analytic_ber
# import them only for these spans, and only the oracles in `reference`,
# the checks in `validation` and the tests run them, from their home
# modules.  Every other one must be called by the runs below, or its span
# is dead.
ORACLE_ONLY = {
    "montecarlo.draw_channels",
    "montecarlo.configure_phases",
    "montecarlo.aggregate",
    "montecarlo.modulate_many",
    "montecarlo.build_interferer_frames",
    "montecarlo.dechirp_dft",
    "analytic_ber.q_approx",
}


def test_production_runs_call_every_wrapped_name(monkeypatch, tmp_path):
    from chirpfield import cli
    from chirpfield import montecarlo as mc

    calls = {}
    for module_name, attr, *_ in load_spans()._WRAPS:
        module = importlib.import_module(f"chirpfield.{module_name}")
        name = f"{module_name}.{attr}"
        calls[name] = 0

        def counted(*args, _fn=getattr(module, attr), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)

    # a fresh process builds the chi table once, for the distinct table,
    # through the wrapped name; an earlier test in this one may have cached
    # the distinct table already
    ab._distinct_chi.cache_clear()
    out = str(tmp_path / "rows.csv")
    common = ["--sf", "7", "--elements", "25", "--m", "2", "--snr-db", "-30",
              "--trials", "500", "--seed", "1", "--out", out]
    for scenario in ("case_a", "case_b"):
        assert cli.main(["both", "--scenario", scenario, "--detection", "both", *common]) == 0
    assert cli.main(["analytic", "--scenario", "no_interference",
                     "--detection", "noncoherent", *common]) == 0
    cfg = mc.SimConfig(LoRaParams(7), FadingConfig.uniform(2.0, 25), "case_a",
                       "noncoherent", (-30.0,), 500, seed=1)
    mc.run_point(cfg, -30.0)

    assert ORACLE_ONLY <= set(calls)
    dead = sorted(name for name, count in calls.items()
                  if count == 0 and name not in ORACLE_ONLY)
    assert not dead, f"perfbench/spans.py wraps names production never calls: {dead}"
    # the allowlist stays exact: a name production starts calling leaves it
    assert not [name for name in ORACLE_ONLY if calls[name]]

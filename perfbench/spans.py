"""Layer spans recorded from outside the package.

`install()` replaces the public functions that each calling module imports
(for example `montecarlo.draw_channels`) with wrappers that record a span
around the call, plus a work count where one exists.  Nothing under `src/`
is edited: the wrappers live in the module namespaces of the process that
installs them, and the benchmark only installs them in a forked child that
exits after one traced workload run.

A span's self time is its duration minus the time its direct child spans
cover; spans are strictly nested because a traced run is single-process
and single-threaded.
"""

from __future__ import annotations

import functools
import time

import numpy as np


def _one(args, result) -> int:
    return 1


def _first_arg_size(args, result) -> int:
    return int(np.size(args[0]))


def _result_trials(args, result) -> int:
    return int(result.trials)


# (module, attribute, span name, counter name, count of one call).  The
# module is the *calling* module, so only calls made by that layer are
# attributed to the span; e.g. `interference.build_interferer_frames` keeps
# the modulation it does internally.
_WRAPS = (
    ("cli", "main", "cli.self", None, None),
    ("montecarlo", "run_sweep", "montecarlo.self", None, None),
    ("montecarlo", "run_point", "montecarlo.self", "montecarlo.trials", _result_trials),
    ("montecarlo", "draw_channels", "channel.draw", None, None),
    ("montecarlo", "configure_phases", "channel.phases", None, None),
    ("montecarlo", "aggregate", "channel.aggregate", None, None),
    ("montecarlo", "modulate_many", "lora_phy.modulate", None, None),
    ("montecarlo", "build_interferer_frames", "interference.frames", None, None),
    ("montecarlo", "dechirp_dft", "lora_phy.dechirp", "lora_phy.samples", _first_arg_size),
    ("montecarlo", "detect_noncoherent", "lora_phy.detect", None, None),
    ("montecarlo", "detect_coherent", "lora_phy.detect", None, None),
    ("montecarlo", "count_bit_errors_many", "lora_phy.bits", None, None),
    ("analytic_ber", "ber", "analytic_ber.self", "analytic_ber.points", _one),
    ("analytic_ber", "ber_no_interference", "analytic_ber.self", "analytic_ber.points", _one),
    ("analytic_ber", "noise_ser_noncoherent", "analytic_ber.noise", None, None),
    ("analytic_ber", "noise_ser_coherent", "analytic_ber.noise", None, None),
    ("analytic_ber", "fit_gamma_target", "channel.fit", None, None),
    ("analytic_ber", "fit_gamma_interferer_caseA", "channel.fit", None, None),
    ("analytic_ber", "fit_gamma_interferer_caseB", "channel.fit", None, None),
    ("analytic_ber", "chi_of_I_table", "interference.chi_table", None, None),
    ("analytic_ber", "q_exact", "specfun.q", "specfun.q_evals", _first_arg_size),
    ("analytic_ber", "q_approx", "specfun.q", "specfun.q_evals", _first_arg_size),
    ("analytic_ber", "log_pcf_d", "specfun.pcf", "specfun.pcf_calls", _one),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _, _ in _WRAPS))
COUNTER_NAMES = tuple(dict.fromkeys(c for _, _, _, c, _ in _WRAPS if c))


class Recorder:
    """In-memory span list: (name, start, end, parent index or -1)."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts = dict.fromkeys(COUNTER_NAMES, 0)
        self._stack: list[int] = []

    def wrap(self, fn, name: str, counter: str | None, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent))
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
            if counter:
                self.counts[counter] += count(args, result)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Self time per span name, in seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = dict.fromkeys(SPAN_NAMES, 0.0)
        for (name, start, end, _), children in zip(self.spans, child_time):
            totals[name] += (end - start) - children
        return totals


def install(modules: dict) -> Recorder:
    """Wrap every traced function in the given {short name: module} map."""
    recorder = Recorder()
    for module_name, attr, name, counter, count in _WRAPS:
        module = modules[module_name]
        setattr(module, attr, recorder.wrap(getattr(module, attr), name, counter, count))
    return recorder

"""Command-line front end: experiment configuration, sweeps, CSV output.

Modes
-----
simulate   Monte Carlo only.
analytic   closed forms only (shared/paired topologies and the
           interference-free baseline; the surface-free-with-interference
           and blind baselines are simulation-only).
both       run both and put them side by side.
validate   run the oracle cross-check suite and report pass/fail.

Output is one CSV row per (scenario, detection, sf, n, m, snr) with fixed
column order and fixed float formatting, so a given spec and seed always
produce byte-identical files.

Exit codes: 0 success, 1 configuration error, 2 numeric failure in at
least one point, 3 validation failure.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import math
import os
import sys
from dataclasses import dataclass, fields

from . import analytic_ber, montecarlo, validation
from .channel import FadingConfig
from .lora_phy import LoRaParams
from .specfun import NumericError

_ANALYTIC_SCENARIOS = ("case_a", "case_b", "no_interference")

class ConfigError(Exception):
    """Invalid command line, config file, or preset combination."""


# Most points an SNR grid may have; the presets use 26.
_MAX_SNR_POINTS = 100_000


def _snr_grid(start: float, stop: float, step: float, origin: str) -> tuple[float, ...]:
    if step <= 0:
        raise ConfigError(f"{origin}: SNR step must be positive")
    if stop < start:
        raise ConfigError(f"{origin}: SNR grid stop lies below its start")
    intervals = (stop - start) / step  # inf once the span overflows
    if not (math.isfinite(intervals) and round(intervals) < _MAX_SNR_POINTS):
        raise ConfigError(f"{origin}: SNR grid has more than {_MAX_SNR_POINTS} points")
    count = int(round(intervals))
    grid = [round(start + k * step, 9) for k in range(count + 1)]
    if len(set(grid)) < len(grid):
        raise ConfigError(
            f"{origin}: SNR grid points repeat once rounded to 1e-9 dB (step {step:g})"
        )
    return tuple(g for g in grid if g <= stop + 1e-9)


@dataclass(frozen=True)
class ExperimentSpec:
    """Fully resolved description of one run."""

    mode: str
    branches: tuple[tuple[str, str], ...]  # (scenario, detection) pairs
    sf_values: tuple[int, ...]
    n_values: tuple[int, ...]
    m_values: tuple[float, ...]
    snr_db_grid: tuple[float, ...]
    trials: int
    seed: int
    out: str
    workers: int
    quadrature_order_v1: int | None  # None: the closed forms' default for the SF
    quadrature_order_v2: int | None
    staircase_m: int
    paper_literal_estimator: bool
    full_offset_range: bool


def _branches(scenario: str, detection: str) -> tuple[tuple[str, str], ...]:
    detections = montecarlo.DETECTIONS if detection == "both" else (detection,)
    return tuple((scenario, d) for d in detections)


_PRESET_GRID = _snr_grid(-35.0, -10.0, 1.0, "preset grid")

_PRESETS: dict[str, dict] = {
    # shared topology across spreading factors
    "fig3a": dict(sf=(7, 8, 9), n=(25,), m=(2.0,),
                  branches=_branches("case_a", "both"), snr=_PRESET_GRID),
    "fig3b": dict(sf=(7, 8, 9), n=(25,), m=(2.0,),
                  branches=_branches("case_b", "both"), snr=_PRESET_GRID),
    # element-count sweeps
    "fig4a": dict(sf=(7,), n=(15, 20, 25, 30, 35), m=(2.0,),
                  branches=_branches("case_a", "both"), snr=_PRESET_GRID),
    "fig4b": dict(sf=(7,), n=(15, 20, 25, 30, 35), m=(2.0,),
                  branches=_branches("case_b", "both"), snr=_PRESET_GRID),
    # fading-parameter sweeps
    "fig5a": dict(sf=(7,), n=(20,), m=(2.0, 3.0, 4.0),
                  branches=_branches("case_a", "both"), snr=_PRESET_GRID),
    "fig5b": dict(sf=(7,), n=(20,), m=(2.0, 3.0, 4.0),
                  branches=_branches("case_b", "both"), snr=_PRESET_GRID),
    # baseline comparison: surface-free and blind against both topologies
    "fig5": dict(sf=(7,), n=(25,), m=(2.0,),
                 branches=_branches("ris_free", "both")
                 + _branches("blind", "noncoherent")
                 + _branches("case_a", "both")
                 + _branches("case_b", "both"),
                 snr=_PRESET_GRID),
}
_PRESETS["comparison"] = _PRESETS["fig5"]

# Every setting, by config key: type, default, help.  A boolean's flag
# takes no value.
_SETTINGS: dict[str, tuple[type, object, str]] = {
    "preset": (str, None, "named experiment preset (pins the grid)"),
    "sf": (int, 7, "spreading factor (2..12)"),
    "elements": (int, 25, "surface element count N"),
    "m": (float, 2.0, "Nakagami shape for every link"),
    "scenario": (str, "case_a", "|".join(montecarlo.SCENARIOS)),
    "detection": (str, "both", "noncoherent|coherent|both"),
    "snr_db": (str, "-35:-10:1", "grid START:STOP:STEP or a single value"),
    "trials": (int, 100_000, "Monte Carlo trials per point"),
    "seed": (int, 1, "base seed of the run"),
    "out": (str, "chirpfield.csv", "output CSV path"),
    "workers": (int, 1, "worker threads for sweeps and closed forms"),
    "v1": (int, None,
           "quadrature order, target axis (default 70 up to SF 10, 140 at SF 11-12)"),
    "v2": (int, None, "quadrature order, interferer axis (default as --v1)"),
    "staircase_m": (int, 20, "cosine staircase resolution for coherent detection"),
    "paper_literal_estimator": (
        bool, False, "use the first-moment denominator in the Gamma fits"),
    "full_offset_range": (
        bool, False, "let the simulated interferer offset span the whole symbol"),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


# settings a preset pins; giving any of them alongside a preset is an error
_PRESET_PINNED = ("sf", "elements", "m", "scenario", "detection", "snr_db")

# the only settings validate reads; giving any other to it is an error
_VALIDATE_READS = ("preset", "sf", "elements", "m", "trials", "seed")

_CHOICES = {
    "preset": tuple(_PRESETS),
    "scenario": montecarlo.SCENARIOS,
    "detection": montecarlo.DETECTIONS + ("both",),
}


def _at_least(low: int):
    return (lambda value: value >= low), f">= {low}"


# each numeric setting's test and the wording of its failure
_BOUNDS = {
    "sf": ((lambda value: 2 <= value <= 12), "in [2, 12]"),
    "elements": _at_least(0),
    "m": ((lambda value: 0 < value < math.inf), "positive and finite"),
    "trials": _at_least(1),
    "seed": _at_least(0),
    "workers": ((lambda value: 1 <= value <= montecarlo.MAX_WORKERS),
                f"in [1, {montecarlo.MAX_WORKERS}]"),
    "v1": _at_least(1),
    "v2": _at_least(1),
    "staircase_m": _at_least(1),
}


def _check(key: str, value, origin: str) -> None:
    if key in _CHOICES and value is not None and value not in _CHOICES[key]:
        raise ConfigError(
            f"{origin}: must be one of {', '.join(_CHOICES[key])}, got {value!r}"
        )
    if key in _BOUNDS and value is not None and not _BOUNDS[key][0](value):
        raise ConfigError(f"{origin}: must be {_BOUNDS[key][1]}, got {value}")


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def load_config_file(path: str) -> dict[str, str]:
    """Flat `key = value` file; `#` starts a comment.  Returns raw strings."""
    values: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SETTINGS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"{path}:{lineno}: empty value for {key!r}")
        values[key] = value
    return values


def _convert(key: str, text: str, origin: str):
    caster = _SETTINGS[key][0]
    try:
        return _parse_bool(text) if caster is bool else caster(text)
    except ValueError as exc:
        raise ConfigError(f"{origin}: bad value for {key!r}: {exc}") from exc


def _parse_snr_spec(text: str, origin: str) -> tuple[float, ...]:
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise ConfigError(f"{origin}: SNR must be 'VALUE' or 'START:STOP:STEP', got {text!r}")
    try:
        values = [float(part) for part in parts]
    except ValueError as exc:
        raise ConfigError(f"{origin}: bad SNR specification {text!r}: {exc}") from exc
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"{origin}: SNR values must be finite, got {text!r}")
    grid = (values[0],) if len(values) == 1 else _snr_grid(*values, origin)
    limit = montecarlo.MAX_SNR_DB
    if max(map(abs, grid)) > limit:
        raise ConfigError(f"{origin}: SNR values must lie in [-{limit:g}, {limit:g}] dB, "
                          f"got {text!r}")
    return grid


def build_spec(args: argparse.Namespace) -> ExperimentSpec:
    """Merge config file and flags (flags win) into a validated spec."""
    file_values = load_config_file(args.config) if args.config else {}
    value, origin = {}, {}
    for key, (_, default, _) in _SETTINGS.items():
        if getattr(args, key) is not None:
            value[key], origin[key] = getattr(args, key), "flag " + _flag(key)
        elif key in file_values:
            origin[key] = f"{args.config}: key {key!r}"
            value[key] = _convert(key, file_values[key], origin[key])
        else:
            value[key], origin[key] = default, "default"
        _check(key, value[key], origin[key])

    if args.mode == "validate":
        for key in _SETTINGS:
            if key not in _VALIDATE_READS and origin[key] != "default":
                raise ConfigError(f"{origin[key]}: validate does not read this setting; drop it")

    preset = value["preset"]
    if preset is not None:
        for key in _PRESET_PINNED:
            if origin[key] != "default":
                raise ConfigError(
                    f"{origin[key]}: preset {preset!r} pins this setting; drop it"
                )
        chosen = _PRESETS[preset]
        sf_values, n_values, m_values = chosen["sf"], chosen["n"], chosen["m"]
        branches, snr = chosen["branches"], chosen["snr"]
        combinations = len(sf_values) * len(n_values) * len(m_values)
        if args.mode == "validate" and combinations > 1:
            raise ConfigError(
                f"{origin['preset']}: preset {preset!r} sweeps {combinations} "
                "(sf, N, m) combinations; validate checks one"
            )
    else:
        sf_values, n_values, m_values = (value["sf"],), (value["elements"],), (value["m"],)
        branches = _branches(value["scenario"], value["detection"])
        snr = _parse_snr_spec(value["snr_db"], origin["snr_db"])

    return ExperimentSpec(
        mode=args.mode,
        branches=branches,
        sf_values=sf_values,
        n_values=n_values,
        m_values=m_values,
        snr_db_grid=snr,
        trials=value["trials"],
        seed=value["seed"],
        out=value["out"],
        workers=value["workers"],
        quadrature_order_v1=value["v1"],
        quadrature_order_v2=value["v2"],
        staircase_m=value["staircase_m"],
        paper_literal_estimator=value["paper_literal_estimator"],
        full_offset_range=value["full_offset_range"],
    )


def _format(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


@dataclass
class _Row:
    scenario: str
    detection: str
    sf: int
    n_elements: int
    m: float
    snr_db: float
    ber_analytic: float | None = None
    p_noise: float | None = None
    p_interf: float | None = None
    ber_sim: float | None = None
    ci_low: float | None = None
    ci_high: float | None = None
    bits_sent: int | None = None
    seed: int | None = None

    def csv(self) -> str:
        return ",".join(_format(getattr(self, col)) for col in _CSV_COLUMNS)


_CSV_COLUMNS = tuple(field.name for field in fields(_Row))


def _label(row: _Row) -> str:
    return (f"{row.scenario}/{row.detection} sf={row.sf} n={row.n_elements} "
            f"m={row.m} snr={row.snr_db}")


@contextlib.contextmanager
def _named(what: str):
    """Name the work that failed on stderr before its exception goes on."""
    try:
        yield
    except Exception as exc:
        print(f"error: {what} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        raise


def _analytic_task(spec: ExperimentSpec, rows: list[_Row]):
    """Evaluate the closed forms for the rows of one (scenario, sf, n, m,
    snr) point, one per detector, from one shared interpolant; runs in a
    pool thread, or in the calling thread of a serial run.  Returns one
    BerBreakdown, or the NumericError that stopped it, per row."""
    row = rows[0]
    detections = tuple(r.detection for r in rows)
    with _named(f"closed forms at {row.scenario}/{'/'.join(detections)} sf={row.sf} "
                f"n={row.n_elements} m={row.m} snr={row.snr_db}"):
        try:
            cfg = analytic_ber.AnalyticConfig.from_fading(
                LoRaParams(row.sf),
                FadingConfig.uniform(row.m, row.n_elements),
                10.0 ** (row.snr_db / 10.0),
                paper_literal_estimator=spec.paper_literal_estimator,
                quadrature_order_v1=spec.quadrature_order_v1,
                quadrature_order_v2=spec.quadrature_order_v2,
                staircase_m=spec.staircase_m,
            )
            if row.scenario == "no_interference":
                return [analytic_ber.ber_no_interference(cfg, d) for d in detections]
            return analytic_ber.ber(cfg, row.scenario, detections)
        except NumericError as exc:
            return [exc] * len(rows)


def _fill_analytic(spec: ExperimentSpec, rows: list[_Row]) -> list[str]:
    """Fill the closed-form columns of every row that has them, on a pool of
    `spec.workers` threads, and print their notes in row order; returns
    the numeric failures, each prefixed with the row it names.

    One task per (scenario, sf, n, m, snr), in order of first appearance,
    evaluates every detector of that point's rows.
    """
    groups: dict[tuple, list[_Row]] = {}
    for row in rows:
        if row.scenario in _ANALYTIC_SCENARIOS:
            key = (row.scenario, row.sf, row.n_elements, row.m, row.snr_db)
            groups.setdefault(key, []).append(row)
    results = {}
    with montecarlo.worker_pool(spec.workers) as pool:
        tasks = (map if pool is None else pool.map)(
            _analytic_task, itertools.repeat(spec), groups.values()
        )
        for group, group_results in zip(groups.values(), tasks):
            results.update(zip(map(id, group), group_results))
    failures = []
    for row in rows:
        result = results.get(id(row))
        if result is None:
            continue
        if isinstance(result, NumericError):
            failures.append(f"{_label(row)}: {result}")
            continue
        row.ber_analytic, row.p_noise = result.ber, result.p_noise
        row.p_interf = result.p_interf
        for note in result.notes:
            print(f"warning: {_label(row)}: {note}", file=sys.stderr)
    return failures


def _fill_simulated(spec: ExperimentSpec, rows: list[_Row]) -> None:
    """Fill the Monte Carlo columns of every row.

    One sweep per (scenario, sf, n, m), in order of first appearance, runs
    every detector of that scenario's rows on the same blocks.
    """
    groups: dict[tuple, dict[str, list[_Row]]] = {}
    for row in rows:
        key = (row.scenario, row.sf, row.n_elements, row.m)
        groups.setdefault(key, {}).setdefault(row.detection, []).append(row)
    for (scenario, sf, n, m), by_detection in groups.items():
        detections = tuple(by_detection)
        cfg = montecarlo.SimConfig(
            params=LoRaParams(sf),
            fading=FadingConfig.uniform(m, n),
            scenario=scenario,
            detection=detections[0],
            snr_db_grid=spec.snr_db_grid,
            trials_per_point=spec.trials,
            seed=spec.seed,
            full_offset_range=spec.full_offset_range,
        )
        with _named(f"simulated sweep at {scenario}/{'/'.join(detections)} sf={sf} n={n} m={m}"):
            sweep = montecarlo.run_sweep(cfg, spec.workers, detections=detections)
        for detection, group in by_detection.items():
            for row in group:
                est = sweep[row.snr_db, detection]
                row.ber_sim, row.ci_low, row.ci_high = est.ber, est.ci95_low, est.ci95_high
                row.bits_sent = est.bits_sent


def _open_beside(out: str):
    """Open where the CSV goes: a new file beside `out` (beside the file a
    link names), which `os.replace` moves onto it once every row is
    written, so that a run that fails leaves `out` as it was.  A special
    file (a pipe, a terminal) cannot be replaced and is written in place.
    Returns the handle and the new file's path, or None for a special
    file."""
    if os.path.exists(out) and not os.path.isfile(out):
        return open(out, "w", encoding="utf-8", newline=""), None
    directory, name = os.path.split(os.path.realpath(out))
    temporary = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    return open(temporary, "x", encoding="utf-8", newline=""), temporary


def run(spec: ExperimentSpec) -> int:
    """Execute a spec and write its CSV; returns the process exit code.

    The rows are built first, in grid order (branches, then (sf, n, m),
    then SNR), and each route fills its columns in place.  Each sweep, and
    the closed forms, run on a pool of `spec.workers` threads of their
    own; at one worker everything runs in the calling thread.  The CSV
    replaces `spec.out` only once it is complete: on an exception the old
    file keeps its bytes and the exception goes on.
    """
    if spec.mode == "validate":
        return _run_validation(spec)

    rows = [
        _Row(scenario=scenario, detection=detection, sf=sf, n_elements=n, m=m,
             snr_db=snr_db, seed=spec.seed)
        for scenario, detection in spec.branches
        for sf, n, m in itertools.product(spec.sf_values, spec.n_values, spec.m_values)
        for snr_db in spec.snr_db_grid
    ]

    # opened before anything runs, so a path that cannot be written fails
    # at once rather than after the whole sweep
    try:
        handle, temporary = _open_beside(spec.out)
    except OSError as exc:
        print(f"error: cannot write {spec.out}: {exc}", file=sys.stderr)
        return 1

    try:
        with handle:
            if spec.mode != "analytic":
                _fill_simulated(spec, rows)
            failures = _fill_analytic(spec, rows) if spec.mode != "simulate" else []

            handle.write(",".join(_CSV_COLUMNS) + "\n")
            for row in rows:
                handle.write(row.csv() + "\n")
        if temporary is not None:
            os.replace(temporary, os.path.realpath(spec.out))
    except BaseException:
        if temporary is not None:
            os.unlink(temporary)
        raise

    print(f"wrote {len(rows)} rows to {spec.out}")
    if failures:
        for failure in failures:
            print(f"numeric failure: {failure}", file=sys.stderr)
        return 2
    return 0


def _run_validation(spec: ExperimentSpec) -> int:
    params = LoRaParams(spec.sf_values[0])
    fading = FadingConfig.uniform(spec.m_values[0], spec.n_values[0])
    results = validation.run_validation(params, fading, spec.trials, spec.seed)
    width = max(len(r.name) for r in results)
    all_ok = True
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        all_ok &= result.passed
        print(f"[{status}] {result.name:<{width}}  {result.detail}")
        for note in result.notes:
            print(f"warning: {result.name}: {note}", file=sys.stderr)
    print("validation:", "all checks passed" if all_ok else "FAILURES detected")
    return 0 if all_ok else 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chirpfield",
        description="Link-level simulator and closed-form BER calculator for "
        "surface-assisted chirp-spread-spectrum links under same-SF interference.",
    )
    parser.add_argument("mode", choices=("simulate", "analytic", "both", "validate"))
    parser.add_argument("--config", help="flat key = value configuration file")
    for key, (kind, _, text) in _SETTINGS.items():
        if kind is bool:
            parser.add_argument(_flag(key), action="store_const", const=True, help=text)
        else:
            parser.add_argument(_flag(key), type=kind, help=text)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        spec = build_spec(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return run(spec)


if __name__ == "__main__":
    sys.exit(main())

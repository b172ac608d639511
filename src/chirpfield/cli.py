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
import itertools
import math
import sys
import warnings
from concurrent.futures import Executor
from dataclasses import dataclass

from . import analytic_ber, montecarlo, validation
from .channel import FadingConfig
from .lora_phy import LoRaParams
from .specfun import NumericError

_ANALYTIC_SCENARIOS = ("case_a", "case_b", "no_interference")

_CSV_COLUMNS = (
    "scenario", "detection", "sf", "n_elements", "m", "snr_db",
    "ber_analytic", "p_noise", "p_interf",
    "ber_sim", "ci_low", "ci_high", "bits_sent", "seed",
)


class ConfigError(Exception):
    """Invalid command line, config file, or preset combination."""


def _snr_grid(start: float, stop: float, step: float) -> tuple[float, ...]:
    if step <= 0:
        raise ConfigError("SNR step must be positive")
    if stop < start:
        raise ConfigError("SNR grid stop lies below its start")
    count = int(round((stop - start) / step))
    grid = [round(start + k * step, 9) for k in range(count + 1)]
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
    workers: int = 1
    quadrature_order_v1: int = 70
    quadrature_order_v2: int = 70
    staircase_m: int = 20
    paper_literal_estimator: bool = False
    full_offset_range: bool = False
    preset: str | None = None


def _branches(scenario: str, detection: str) -> tuple[tuple[str, str], ...]:
    detections = ("noncoherent", "coherent") if detection == "both" else (detection,)
    return tuple((scenario, d) for d in detections)


_PRESET_GRID = _snr_grid(-35.0, -10.0, 1.0)

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

# flags a preset pins; giving any of them alongside --preset is an error
_PRESET_PINNED = ("sf", "elements", "m", "scenario", "detection", "snr_db")

_CONFIG_KEYS = {
    "preset": str, "sf": int, "elements": int, "m": float,
    "scenario": str, "detection": str, "snr_db": str,
    "trials": int, "seed": int, "out": str, "workers": int,
    "v1": int, "v2": int, "staircase_m": int,
    "paper_literal_estimator": bool, "full_offset_range": bool,
}


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
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"{path}:{lineno}: empty value for {key!r}")
        values[key] = value
    return values


def _convert(key: str, text: str, origin: str):
    caster = _CONFIG_KEYS[key]
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
    return (values[0],) if len(values) == 1 else _snr_grid(*values)


def build_spec(args: argparse.Namespace) -> ExperimentSpec:
    """Merge config file and flags (flags win) into a validated spec."""
    file_values = load_config_file(args.config) if args.config else {}

    def setting(key: str, flag_value, default):
        if flag_value is not None:
            return flag_value, "flag --" + key.replace("_", "-")
        if key in file_values:
            origin = f"{args.config}: key {key!r}"
            return _convert(key, file_values[key], origin), origin
        return default, "default"

    preset, _ = setting("preset", args.preset, None)
    trials, _ = setting("trials", args.trials, 100_000)
    seed, _ = setting("seed", args.seed, 1)
    out, _ = setting("out", args.out, "chirpfield.csv")
    workers, _ = setting("workers", args.workers, 1)
    v1, _ = setting("v1", args.v1, 70)
    v2, _ = setting("v2", args.v2, 70)
    staircase_m, _ = setting("staircase_m", args.staircase_m, 20)
    paper_literal, _ = setting(
        "paper_literal_estimator", args.paper_literal_estimator, False
    )
    full_offsets, _ = setting("full_offset_range", args.full_offset_range, False)

    if trials < 1:
        raise ConfigError("trials must be >= 1")
    if workers < 1:
        raise ConfigError("workers must be >= 1")

    if preset is not None:
        if preset not in _PRESETS:
            raise ConfigError(
                f"unknown preset {preset!r}; choose from {', '.join(sorted(_PRESETS))}"
            )
        for key in _PRESET_PINNED:
            flag = getattr(args, key.replace("-", "_"), None)
            if flag is not None or key in file_values:
                raise ConfigError(
                    f"preset {preset!r} pins {key!r}; drop the explicit setting"
                )
        chosen = _PRESETS[preset]
        sf_values, n_values, m_values = chosen["sf"], chosen["n"], chosen["m"]
        branches, snr = chosen["branches"], chosen["snr"]
    else:
        sf, _ = setting("sf", args.sf, 7)
        n, _ = setting("elements", args.elements, 25)
        m, _ = setting("m", args.m, 2.0)
        scenario, _ = setting("scenario", args.scenario, "case_a")
        detection, _ = setting("detection", args.detection, "both")
        snr_text, snr_origin = setting("snr_db", args.snr_db, "-35:-10:1")
        if scenario not in montecarlo.SCENARIOS:
            raise ConfigError(
                f"unknown scenario {scenario!r}; choose from {', '.join(montecarlo.SCENARIOS)}"
            )
        if detection not in ("noncoherent", "coherent", "both"):
            raise ConfigError("detection must be noncoherent, coherent, or both")
        sf_values, n_values, m_values = (sf,), (n,), (m,)
        branches = _branches(scenario, detection)
        snr = _parse_snr_spec(snr_text, snr_origin)

    for sf in sf_values:
        if not 2 <= sf <= 12:
            raise ConfigError(f"spreading factor {sf} outside [2, 12]")
    for n in n_values:
        if n < 0:
            raise ConfigError("element count must be >= 0")
    for m in m_values:
        if m <= 0:
            raise ConfigError("fading shape m must be positive")

    return ExperimentSpec(
        mode=args.mode,
        branches=branches,
        sf_values=tuple(sf_values),
        n_values=tuple(n_values),
        m_values=tuple(m_values),
        snr_db_grid=snr,
        trials=trials,
        seed=seed,
        out=out,
        workers=workers,
        quadrature_order_v1=v1,
        quadrature_order_v2=v2,
        staircase_m=staircase_m,
        paper_literal_estimator=paper_literal,
        full_offset_range=full_offsets,
        preset=preset,
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


def _analytic_task(args):
    """Evaluate the closed forms for one CSV row; runs in worker processes.

    Returns the failure message of a NumericError, or the row's values and
    the warnings raised on the way, each prefixed with the row it names.
    """
    (scenario, detection, sf, n, m, snr_db,
     literal, v1, v2, staircase_m) = args
    label = f"{scenario}/{detection} sf={sf} n={n} m={m} snr={snr_db}"
    params = LoRaParams(sf)
    fading = FadingConfig.uniform(m, n)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cfg = analytic_ber.AnalyticConfig.from_fading(
                params,
                fading,
                10.0 ** (snr_db / 10.0),
                paper_literal_estimator=literal,
                quadrature_order_v1=v1,
                quadrature_order_v2=v2,
                staircase_m=staircase_m,
            )
            if scenario == "no_interference":
                result = analytic_ber.ber_no_interference(cfg, detection)
            else:
                result = analytic_ber.ber(cfg, scenario, detection)
    except NumericError as exc:
        return f"{label}: {exc}"
    notes = [f"{label}: {w.message}" for w in caught]
    return result.ber, result.p_noise, result.p_interf, notes


def _fill_analytic(
    spec: ExperimentSpec, rows: list["_Row"], failures: list[str], pool: Executor | None
) -> None:
    todo = [row for row in rows if row.scenario in _ANALYTIC_SCENARIOS]
    tasks = [
        (row.scenario, row.detection, row.sf, row.n_elements, row.m, row.snr_db,
         spec.paper_literal_estimator, spec.quadrature_order_v1,
         spec.quadrature_order_v2, spec.staircase_m)
        for row in todo
    ]
    if pool is None:
        results = [_analytic_task(task) for task in tasks]
    else:
        results = list(pool.map(_analytic_task, tasks))
    for row, result in zip(todo, results):
        if isinstance(result, str):
            failures.append(result)
        else:
            row.ber_analytic, row.p_noise, row.p_interf, notes = result
            for note in notes:
                print(f"warning: {note}", file=sys.stderr)


def _simulate(
    spec: ExperimentSpec, pool: Executor | None
) -> dict[tuple, montecarlo.BerEstimate]:
    """Monte Carlo estimates keyed by (scenario, detection, sf, n, m, snr_db).

    One sweep per (scenario, sf, n, m) runs every detector the spec asks
    of that scenario on the same blocks.
    """
    detections: dict[str, list[str]] = {}
    for scenario, detection in spec.branches:
        detections.setdefault(scenario, []).append(detection)
    estimates = {}
    for scenario, wanted in detections.items():
        for sf, n, m in itertools.product(spec.sf_values, spec.n_values, spec.m_values):
            cfg = montecarlo.SimConfig(
                params=LoRaParams(sf),
                fading=FadingConfig.uniform(m, n),
                scenario=scenario,
                detection=wanted[0],
                snr_db_grid=spec.snr_db_grid,
                trials_per_point=spec.trials,
                seed=spec.seed,
                full_offset_range=spec.full_offset_range,
            )
            points = montecarlo.run_sweep(
                cfg, spec.workers, detections=tuple(wanted), pool=pool
            )
            for point in points:
                estimates[scenario, point.detection, sf, n, m, point.snr_db] = point.estimate
    return estimates


def run(spec: ExperimentSpec) -> int:
    """Execute a spec and write its CSV; returns the process exit code.

    One pool of `spec.workers` processes serves every sweep and the closed
    forms of the run.
    """
    if spec.mode == "validate":
        return _run_validation(spec)

    want_sim = spec.mode in ("simulate", "both")
    want_analytic = spec.mode in ("analytic", "both")
    failures: list[str] = []
    rows: list[_Row] = []

    with montecarlo.worker_pool(spec.workers) as pool:
        estimates = _simulate(spec, pool) if want_sim else {}
        for scenario, detection in spec.branches:
            for sf, n, m in itertools.product(spec.sf_values, spec.n_values, spec.m_values):
                for snr_db in spec.snr_db_grid:
                    row = _Row(
                        scenario=scenario, detection=detection, sf=sf,
                        n_elements=n, m=m, snr_db=snr_db, seed=spec.seed,
                    )
                    est = estimates.get((scenario, detection, sf, n, m, snr_db))
                    if est is not None:
                        row.ber_sim = est.ber
                        row.ci_low = est.ci95_low
                        row.ci_high = est.ci95_high
                        row.bits_sent = est.bits_sent
                    rows.append(row)

        if want_analytic:
            _fill_analytic(spec, rows, failures, pool)

    try:
        with open(spec.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(",".join(_CSV_COLUMNS) + "\n")
            for row in rows:
                handle.write(row.csv() + "\n")
    except OSError as exc:
        print(f"error: cannot write {spec.out}: {exc}", file=sys.stderr)
        return 1

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
    parser.add_argument("--preset", help="named experiment preset (pins the grid)")
    parser.add_argument("--sf", type=int, help="spreading factor (2..12)")
    parser.add_argument("--elements", type=int, help="surface element count N")
    parser.add_argument("--m", type=float, help="Nakagami shape for every link")
    parser.add_argument("--scenario", help="|".join(montecarlo.SCENARIOS))
    parser.add_argument("--detection", help="noncoherent|coherent|both")
    parser.add_argument("--snr-db", dest="snr_db", help="grid START:STOP:STEP or a single value")
    parser.add_argument("--trials", type=int, help="Monte Carlo trials per point")
    parser.add_argument("--seed", type=int, help="base seed of the run")
    parser.add_argument("--out", help="output CSV path")
    parser.add_argument("--workers", type=int, help="parallel workers for sweeps")
    parser.add_argument("--v1", type=int, help="quadrature order, target axis")
    parser.add_argument("--v2", type=int, help="quadrature order, interferer axis")
    parser.add_argument("--staircase-m", dest="staircase_m", type=int,
                        help="cosine staircase resolution for coherent detection")
    parser.add_argument("--paper-literal-estimator", dest="paper_literal_estimator",
                        action="store_const", const=True, default=None,
                        help="use the first-moment denominator in the Gamma fits")
    parser.add_argument("--full-offset-range", dest="full_offset_range",
                        action="store_const", const=True, default=None,
                        help="let the simulated interferer offset span the whole symbol")
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

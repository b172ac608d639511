"""The benchmark's workloads: inputs made from a seed, one run, output checks.

A workload run goes only through chirpfield's public entry points
(`cli.main` and `montecarlo.run_point`).  `run` executes in a forked child
of the benchmark and returns plain data; `check` runs in the parent and
returns, for each output row, its bytes and a failure message or None.

Every output is checked against `reference.json`, recorded from the seed
commit by `make_reference.py`:

- closed-form rows must match the recorded values to `ANALYTIC_RTOL`;
- Monte Carlo rows must match the recorded bit-error rate within a
  binomial tolerance, so a legitimate change of random stream passes;
  the trial count must follow the early-stop rule (every point without
  early stop reports exactly its budgeted `bits_sent`), and the Wilson
  interval must match the counts.
"""

from __future__ import annotations

import csv
import math
import random

# Relative tolerance on closed-form values.  The CSV keeps 10 significant
# digits (5e-10 relative); faster closed forms must stay within 1e-8.
ANALYTIC_RTOL = 2e-8

# Monte Carlo tolerance in standard deviations.  Bit errors arrive in
# bursts (one symbol error flips about sf/2 bits), so the variance of the
# bit-error count is about (1 + sf)/2 times its mean.
SIM_Z = 5.0

EARLY_STOP_ERRORS = 1000  # the CLI's default early-stop threshold

CLI_SCENARIOS = ("case_a", "case_b")
DETECTIONS = ("noncoherent", "coherent")

# analytic_sf7: the seed picks a two-point grid START:START+STEP:STEP.
ANALYTIC_STARTS = tuple(range(-36, -19, 2))
ANALYTIC_STEP = 8
ANALYTIC_SNRS = tuple(sorted({s + k * ANALYTIC_STEP for s in ANALYTIC_STARTS for k in (0, 1)}))

# sim_sweep_sf7: a coarse grid, both detections, default early stop.
SWEEP_SNRS = (-34, -30, -26, -22)
# Two 4096-trial blocks: every case_b point then ends after the same number
# of blocks for any seed (1 non-coherent, 2 coherent), which keeps the
# work, and so wall_s, independent of the seed.
SWEEP_TRIALS = 8192
SWEEP_WORKERS = 2

# sim_point_sf12: one fixed-budget point on the interference floor
# (bit error rate about 6e-2).  2048 trials make one block that peaks near
# 0.6 GB; a full 4096-trial block (1.1 GB) allows too few runs in
# `--seconds` for a steady median.
POINT_SF = 12
POINT_SNR = -40.0
POINT_TRIALS = 2048

COMMON = ("--sf", "7", "--elements", "25", "--m", "2")


def _fmt_snr(value: float) -> str:
    """An SNR as the CLI writes it (`%.10g` of a float)."""
    return f"{float(value):.10g}"


def wilson(successes: int, total: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval, written out here so the check is independent."""
    p = successes / total
    denom = 1.0 + z * z / total
    center = (p + z * z / (2.0 * total)) / denom
    half = z * math.sqrt(p * (1.0 - p) / total + z * z / (4.0 * total * total)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _close(value: float, expected: float, rtol: float) -> bool:
    return math.isfinite(value) and abs(value - expected) <= rtol * abs(expected) + 1e-300


def check_sim_counts(
    sf: int, trials: int, bit_errors: int, ci: tuple[float, float],
    budget: int, early_stop: bool, ref: dict,
) -> str | None:
    """Checks shared by CSV rows and direct `run_point` estimates."""
    bits = trials * sf
    if not 1 <= trials <= budget:
        return f"{trials} trials outside [1, {budget}]"
    if trials < budget and not (early_stop and bit_errors >= EARLY_STOP_ERRORS):
        return f"stopped after {trials} of {budget} trials with {bit_errors} bit errors"
    low, high = wilson(bit_errors, bits)
    if not (_close(ci[0], low, 1e-8) and _close(ci[1], high, 1e-8)):
        return f"Wilson interval {ci} does not match {bit_errors}/{bits} ({low}, {high})"
    share = bits / ref["bits"]
    mean = ref["errors"] * share
    spread = SIM_Z * math.sqrt((1 + sf) / 2 * (mean + 1.0) * (1.0 + share)) + (1 + sf) / 2
    if abs(bit_errors - mean) > spread:
        return (f"{bit_errors} bit errors in {bits} bits; reference rate gives "
                f"{mean:.1f} +- {spread:.1f}")
    return None


def sim_key(sf: int, scenario: str, detection: str, snr) -> str:
    return f"sf{sf}/{scenario}/{detection}/{_fmt_snr(snr)}"


def _data_rows(text: str) -> list[tuple[str, dict]]:
    """(line, parsed row) for each data line of concatenated CSV files."""
    rows = []
    header = None
    for line in text.splitlines():
        if line.startswith("scenario,"):
            header = line.split(",")
        elif header is not None:
            rows.append((line, dict(zip(header, next(csv.reader([line]))))))
    return rows


def grid_arg(snrs: tuple[int, ...]) -> str:
    """The `--snr-db` value for an evenly spaced grid."""
    if len(snrs) == 1:
        return f"--snr-db={snrs[0]}"
    return f"--snr-db={snrs[0]}:{snrs[-1]}:{snrs[1] - snrs[0]}"


class _CliWorkload:
    """A workload made of one `chirpfield` call per surface topology.

    Subclasses set `snrs` and `detections` and define `argv` and `check_row`.
    """

    def detection_arg(self) -> str:
        return "both" if len(self.detections) == 2 else self.detections[0]

    def expected_rows(self) -> list[tuple[str, str, str]]:
        return [(s, d, _fmt_snr(snr)) for s in CLI_SCENARIOS for d in self.detections
                for snr in self.snrs]

    def run(self, modules: dict, out_dir: str, workers: int) -> dict:
        cli = modules["cli"]
        csvs, codes = [], []
        for scenario in CLI_SCENARIOS:
            path = f"{out_dir}/{scenario}.csv"
            codes.append(cli.main(self.argv(scenario, workers) + ["--out", path]))
            with open(path, encoding="utf-8") as handle:
                csvs.append(handle.read())
        return {"output": "".join(csvs), "codes": codes}

    def check(self, result: dict, reference: dict) -> list[tuple[str | None, str | None]]:
        """(row bytes, failure or None) per output row; missing rows have no bytes."""
        expected = self.expected_rows()
        checked, seen = [], set()
        for line, row in _data_rows(result["output"]):
            key = (row.get("scenario"), row.get("detection"), row.get("snr_db"))
            if key not in expected or key in seen:
                message = f"unexpected row {line!r}"
            else:
                message = self.check_row(row, reference)
            seen.add(key)
            checked.append((line, message))
        checked += [(None, f"{'/'.join(key)}: row missing")
                    for key in expected if key not in seen]
        if any(code != 0 for code in result["codes"]):
            checked.append((None, f"exit codes {result['codes']}"))
        return checked


class AnalyticSf7(_CliWorkload):
    timed_workers = traced_workers = 1

    def __init__(self, seed: int, tiny: bool):
        start = random.Random(seed).choice(ANALYTIC_STARTS)
        self.snrs = (start,) if tiny else (start, start + ANALYTIC_STEP)
        self.detections = ("noncoherent",) if tiny else DETECTIONS

    def describe(self) -> str:
        return f"analytic, SNR {self.snrs} dB, detection {self.detection_arg()}"

    def argv(self, scenario: str, workers: int) -> list[str]:
        return ["analytic", *COMMON, "--scenario", scenario, "--detection",
                self.detection_arg(), grid_arg(self.snrs), "--workers", str(workers)]

    def check_row(self, row: dict, reference: dict) -> str | None:
        key = f"{row['scenario']}/{row['detection']}/{row['snr_db']}"
        expected = reference["analytic"].get(key)
        if expected is None:
            return f"{key}: no reference value"
        for column, want in zip(("ber_analytic", "p_noise", "p_interf"), expected):
            try:
                got = float(row[column])
            except ValueError:
                return f"{key}: {column} is {row[column]!r}"
            if not _close(got, float(want), ANALYTIC_RTOL):
                return f"{key}: {column} {got!r} differs from reference {want}"
        return None

    def trials(self, result: dict) -> int:
        return 0


class SimSweepSf7(_CliWorkload):
    timed_workers = SWEEP_WORKERS
    traced_workers = 1

    detections = DETECTIONS

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.snrs = SWEEP_SNRS[:1] if tiny else SWEEP_SNRS
        self.budget = 4096 if tiny else SWEEP_TRIALS

    def describe(self) -> str:
        return (f"simulate, SNR {self.snrs} dB, {self.budget} trials per point, "
                f"seed {self.seed}, {self.timed_workers} workers timed")

    def argv(self, scenario: str, workers: int) -> list[str]:
        return ["simulate", *COMMON, "--scenario", scenario, "--detection",
                self.detection_arg(), grid_arg(self.snrs), "--trials", str(self.budget),
                "--seed", str(self.seed), "--workers", str(workers)]

    def check_row(self, row: dict, reference: dict) -> str | None:
        key = sim_key(7, row["scenario"], row["detection"], row["snr_db"])
        try:
            ber = float(row["ber_sim"])
            bits = int(row["bits_sent"])
            ci = (float(row["ci_low"]), float(row["ci_high"]))
        except ValueError:
            return f"{key}: unreadable Monte Carlo columns"
        if row["seed"] != str(self.seed):
            return f"{key}: seed column {row['seed']} != {self.seed}"
        if bits % 7:
            return f"{key}: bits_sent {bits} is not a whole number of symbols"
        errors = round(ber * bits)
        if abs(ber * bits - errors) > 1e-3:
            return f"{key}: ber_sim * bits_sent = {ber * bits} is not a count"
        problem = check_sim_counts(7, bits // 7, errors, ci, self.budget, True,
                                   reference["sim"][key])
        return f"{key}: {problem}" if problem else None

    def trials(self, result: dict) -> int:
        return sum(int(row["bits_sent"]) // 7 for _, row in _data_rows(result["output"]))


class SimPointSf12:
    timed_workers = traced_workers = 1

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.budget = 512 if tiny else POINT_TRIALS

    def describe(self) -> str:
        return (f"run_point, SF {POINT_SF}, case_b noncoherent at {POINT_SNR} dB, "
                f"{self.budget} trials, seed {self.seed}")

    def run(self, modules: dict, out_dir: str, workers: int) -> dict:
        montecarlo = modules["montecarlo"]
        cfg = montecarlo.SimConfig(
            params=modules["lora_phy"].LoRaParams(POINT_SF),
            fading=modules["channel"].FadingConfig.uniform(2.0, 25),
            scenario="case_b",
            detection="noncoherent",
            snr_db_grid=(POINT_SNR,),
            trials_per_point=self.budget,
            seed=self.seed,
            max_bit_errors=None,
        )
        est = montecarlo.run_point(cfg, POINT_SNR, workers=workers)
        return {"output": repr(est), "estimate": vars(est)}

    def check(self, result: dict, reference: dict) -> list[tuple[str | None, str | None]]:
        """One row: the estimate's repr and its failure, if any."""
        problem = self._check_estimate(result["estimate"], reference)
        key = sim_key(POINT_SF, "case_b", "noncoherent", POINT_SNR)
        return [(result["output"], f"{key}: {problem}" if problem else None)]

    def _check_estimate(self, est: dict, reference: dict) -> str | None:
        if est["bits_sent"] != self.budget * POINT_SF or est["trials"] != self.budget:
            return (f"{est['trials']} trials, {est['bits_sent']} bits; "
                    f"budget is {self.budget} trials")
        if est["ber"] != est["bit_errors"] / est["bits_sent"]:
            return f"ber {est['ber']} != bit_errors / bits_sent"
        expected_hits = est["trials"] / (1 << POINT_SF)
        if abs(est["collisions"] - expected_hits) > 6 * math.sqrt(expected_hits) + 3:
            return f"{est['collisions']} collisions, expected about {expected_hits:.1f}"
        return check_sim_counts(
            POINT_SF, est["trials"], est["bit_errors"], (est["ci95_low"], est["ci95_high"]),
            self.budget, False,
            reference["sim"][sim_key(POINT_SF, "case_b", "noncoherent", POINT_SNR)])

    def trials(self, result: dict) -> int:
        return result["estimate"]["bits_sent"] // POINT_SF


WORKLOADS = {
    "analytic_sf7": AnalyticSf7,
    "sim_sweep_sf7": SimSweepSf7,
    "sim_point_sf12": SimPointSf12,
}

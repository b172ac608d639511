"""Record the reference outputs that the benchmark checks against.

Run from the root of a checkout of the commit whose outputs are the
reference (takes a few minutes on 2 cores):

    python3 perfbench/make_reference.py

Closed-form rows are stored as the CLI prints them.  Monte Carlo points are
stored as bit-error counts from long fixed-budget runs, ten or more times
the benchmark's own budget, so their statistical error stays small next to
the benchmark's tolerance.
"""

from __future__ import annotations

import csv
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import (  # noqa: E402
    ANALYTIC_SNRS, CLI_SCENARIOS, COMMON, DETECTIONS, POINT_SF, POINT_SNR, SWEEP_SNRS,
    grid_arg, sim_key,
)
from run import machine_record  # noqa: E402

from chirpfield import cli, montecarlo  # noqa: E402
from chirpfield.channel import FadingConfig  # noqa: E402
from chirpfield.lora_phy import LoRaParams  # noqa: E402

REFERENCE_SEED = 20231105
SWEEP_REFERENCE_TRIALS = 40 * 4096  # whole 4096-trial blocks
POINT_REFERENCE_TRIALS = 10 * 4096


def analytic_reference() -> dict:
    values = {}
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        for scenario in CLI_SCENARIOS:
            path = f"{tmp}/{scenario}.csv"
            code = cli.main(["analytic", *COMMON, "--scenario", scenario, "--detection",
                             "both", grid_arg(ANALYTIC_SNRS), "--workers", "2",
                             "--out", path])
            if code != 0:
                raise SystemExit(f"analytic reference failed with exit code {code}")
            with open(path, encoding="utf-8") as handle:
                for row in csv.DictReader(handle):
                    key = f"{row['scenario']}/{row['detection']}/{row['snr_db']}"
                    values[key] = [row["ber_analytic"], row["p_noise"], row["p_interf"]]
    return values


def sim_reference() -> dict:
    points = [(7, scenario, detection, snr, SWEEP_REFERENCE_TRIALS, 2)
              for scenario in CLI_SCENARIOS for detection in DETECTIONS
              for snr in SWEEP_SNRS]
    # one worker: a 4096-trial block at SF 12 needs about 1.1 GB
    points.append((POINT_SF, "case_b", "noncoherent", POINT_SNR, POINT_REFERENCE_TRIALS, 1))
    values = {}
    for sf, scenario, detection, snr, trials, workers in points:
        cfg = montecarlo.SimConfig(
            params=LoRaParams(sf), fading=FadingConfig.uniform(2.0, 25),
            scenario=scenario, detection=detection, snr_db_grid=(float(snr),),
            trials_per_point=trials, seed=REFERENCE_SEED, max_bit_errors=None,
        )
        est = montecarlo.run_point(cfg, float(snr), workers=workers)
        key = sim_key(sf, scenario, detection, snr)
        values[key] = {"errors": est.bit_errors, "bits": est.bits_sent}
        print(f"{key}: {est.bit_errors} / {est.bits_sent}", flush=True)
    return values


def main() -> int:
    reference = {
        "recorded_with": {"seed": REFERENCE_SEED, **machine_record()},
        "analytic": analytic_reference(),
        "sim": sim_reference(),
    }
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

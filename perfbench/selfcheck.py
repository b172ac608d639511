"""Self-check of the benchmark at tiny sizes; gates on no timing.

Run from the root of a checkout (about two minutes on 2 cores):

    python3 perfbench/selfcheck.py

For each workload it runs the benchmark untraced once and traced twice with
tiny inputs, and asserts that:

- the last line is the result object and every declared metric is there,
  with its declared unit and nothing else;
- no output row failed, so `fail_ratio` is 0;
- the machine record is printed;
- every layer the workload calls reports a non-zero metric, and the work
  counts repeat exactly between the two traced runs.

It also asserts that the benchmark exits non-zero, without a result, in a
directory that holds only `BENCHMARK.json` and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

CLI_LAYERS = ("cli.self_s",)
ANALYTIC_LAYERS = (
    "specfun.q_evals", "specfun.q_s", "analytic_ber.self_s", "analytic_ber.noise_s",
    "analytic_ber.points", "specfun.pcf_calls", "specfun.pcf_s", "channel.fit_s",
    "interference.chi_table_s",
)
SIM_LAYERS = (
    "trials_per_s", "channel.draw_s", "channel.phases_s", "channel.aggregate_s",
    "montecarlo.self_s", "montecarlo.trials", "montecarlo.cpu_us_per_trial",
    "lora_phy.modulate_s", "interference.frames_s", "lora_phy.dechirp_s",
    "lora_phy.samples", "lora_phy.detect_s", "lora_phy.bits_s",
)
IMPORT_LAYERS = tuple(m["name"] for m in SPEC["per_layer"] if m["name"].endswith(".import_s"))
CALLED = {
    "analytic_sf7": CLI_LAYERS + ANALYTIC_LAYERS + IMPORT_LAYERS,
    "sim_sweep_sf7": CLI_LAYERS + SIM_LAYERS + IMPORT_LAYERS,
    "sim_point_sf12": SIM_LAYERS + IMPORT_LAYERS,
}
COUNTS = ("specfun.q_evals", "lora_phy.samples", "montecarlo.trials", "analytic_ber.points")


def bench(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, list[str]]:
    command = [*SPEC["command"], "--workload", workload, "--seed", "1",
               "--seconds", "1", "--trace", str(trace), "--tiny"]
    done = subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
    return done.returncode, done.stdout.splitlines()


def check_result(workload: str, trace: int) -> dict:
    code, lines = bench(workload, trace)
    assert code == 0, f"{workload} trace {trace}: exit code {code}"
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, \
        "\n".join(lines)
    assert any(line.startswith("machine {") for line in lines), "no machine record"
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == units, f"{workload} trace {trace}: metrics {got} != declared {units}"
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    for name, value in metrics.items():
        assert isinstance(value, (int, float)), (name, value)
    if trace:
        assert metrics["fail_ratio"] == 0, metrics["fail_ratio"]
        zero = [name for name in CALLED[workload] if not metrics[name] > 0]
        assert not zero, f"{workload}: layers it calls report zero: {zero}"
    else:
        assert all(value > 0 for value in metrics.values()), metrics
    print(f"ok  {workload} trace {trace}: {result['attempted']} rows checked")
    return metrics


def check_refuses_without_program() -> None:
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
        code, lines = bench("sim_point_sf12", 0, cwd=bare)
    assert code != 0, "benchmark succeeded without the program"
    assert not (lines and lines[-1].startswith("{")), "printed a result without the program"
    print("ok  refuses to run without the program")


def main() -> int:
    for workload in CALLED:
        check_result(workload, 0)
        first = check_result(workload, 1)
        second = check_result(workload, 1)
        for name in COUNTS:
            assert first[name] == second[name], f"{workload}: {name} {first[name]} != {second[name]}"
    check_refuses_without_program()
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

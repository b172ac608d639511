"""chirpfield benchmark: end-to-end and per-layer metrics for one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload analytic_sf7 --seed 1 --seconds 30 --trace 0

Each workload run executes in a child forked from this process after
`chirpfield.cli` is imported, so every run starts from a fresh import with
cold caches, as a `chirpfield` call on the command line does, without
paying the import again.  `--trace 0` times untraced runs and reports the
end-to-end metrics; `--trace 1` alternates untraced and traced runs and
reports the per-layer metrics.  Every run's output is checked, and every
run's output bytes must equal those of the first run, whatever its worker
count.  The last line of standard output is one JSON object; the lines
before it print every metric with its unit and the machine record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
MIN_TIMED_RUNS = 2
LAYER_MODULES = ("cli", "montecarlo", "channel", "lora_phy", "interference",
                 "analytic_ber", "specfun")
IMPORT_MODULES = ("chirpfield", *LAYER_MODULES, "validation")

_IMPORT_PROBE = ("import time; start = time.perf_counter(); import chirpfield.cli; "
                 "print(time.perf_counter() - start)")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(trace: bool) -> tuple[list[float], dict[str, list[float]]]:
    """Fresh-process `import chirpfield.cli` times and, when tracing, the
    cumulative import time of every chirpfield module (`-X importtime`)."""
    times: list[float] = []
    per_module: dict[str, list[float]] = {name: [] for name in IMPORT_MODULES}
    command = [sys.executable, *(["-X", "importtime"] if trace else []), "-c", _IMPORT_PROBE]
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(command, env=_child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
        for line in done.stderr.splitlines():
            match = re.match(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s*(chirpfield\S*)$", line)
            if match:
                name = match.group(2).removeprefix("chirpfield.") or "chirpfield"
                if name in per_module:
                    per_module[name].append(int(match.group(1)) * 1e-6)
    return times, per_module


def run_forked(fn) -> dict:
    """Run fn() in a forked child; return its dict plus wall, CPU and RSS."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: never returns
        status = 1
        try:
            os.close(read_fd)
            sys.stdout = sys.stderr  # keep the CLI's progress lines off stdout
            before = resource.getrusage(resource.RUSAGE_SELF)
            start = time.perf_counter()
            result = fn()
            wall = time.perf_counter() - start
            own = resource.getrusage(resource.RUSAGE_SELF)
            kids = resource.getrusage(resource.RUSAGE_CHILDREN)
            result.update(
                wall_s=wall,
                cpu_s=(own.ru_utime + own.ru_stime - before.ru_utime - before.ru_stime
                       + kids.ru_utime + kids.ru_stime),
                rss_mb=(own.ru_maxrss + kids.ru_maxrss) / 1024.0,
            )
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(json.dumps(result).encode())
            status = 0
        except BaseException:  # the parent reports the run as failed
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        payload = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not payload:
        return {"error": f"workload run exited with status {status}"}
    return json.loads(payload)


def workload_run(workload, modules: dict, out_dir: str, kind: str):
    """The body of one run: timed and baseline runs are untraced; baseline
    and traced runs use the single-process worker count."""
    def body() -> dict:
        recorder = None
        if kind == "traced":
            import spans
            recorder = spans.install(modules)
        workers = workload.timed_workers if kind == "timed" else workload.traced_workers
        result = workload.run(modules, out_dir, workers)
        if recorder is not None:
            result["self_s"] = recorder.self_times()
            result["counts"] = recorder.counts
        return result
    return body


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def machine_record() -> dict:
    """Core count, library versions and the code under test."""
    import numpy
    import scipy
    commit = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "chirpfield").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


class Runs:
    """Workload runs of one invocation and the failed output rows."""

    def __init__(self, workload, modules: dict, reference: dict, out_dir: str):
        self.workload, self.modules = workload, modules
        self.reference, self.out_dir = reference, out_dir
        self.results: list[tuple[str, dict]] = []  # (kind, result)
        self.failures: list[str] = []
        self.attempted = 0
        self.anchor: list[str | None] | None = None

    def execute(self, kind: str) -> None:
        """One forked run: "timed" and "baseline" untraced, "traced" with spans."""
        result = run_forked(workload_run(self.workload, self.modules, self.out_dir, kind))
        if "error" in result:
            self.attempted += 1
            self.failures.append(f"{kind} run: {result['error']}")
            return
        self.results.append((kind, result))
        checked = self.workload.check(result, self.reference)
        if self.anchor is None:
            self.anchor = [line for line, _ in checked]
        # Every run must write the bytes of the first run, row by row.
        for index, (line, message) in enumerate(checked):
            if message is None and (index >= len(self.anchor) or line != self.anchor[index]):
                message = f"row {index} differs from the first run's: {line!r}"
            if message:
                self.failures.append(f"{kind} run: {message}")
        missing = max(len(self.anchor) - len(checked), 0)
        self.failures.extend([f"{kind} run: row missing against the first run"] * missing)
        self.attempted += len(checked) + missing

    def of(self, kind: str) -> list[dict]:
        return [result for k, result in self.results if k == kind]


def measure(runs: Runs, trace: bool, seconds: float) -> None:
    """Untraced runs time the workload; in trace mode each cycle adds a
    traced run, preceded by an untraced run at the traced worker count
    when the timed runs use more workers."""
    needs_baseline = runs.workload.traced_workers != runs.workload.timed_workers
    if trace:
        cycle = ("timed", "baseline", "traced") if needs_baseline else ("timed", "traced")
    else:
        cycle = ("timed",)
    start = time.perf_counter()
    if needs_baseline and not trace:
        runs.execute("traced")  # the single-worker output the timed runs must equal
    # Start another cycle only if it should end within `seconds`.
    durations: list[float] = []
    while (len(durations) < (1 if trace else MIN_TIMED_RUNS)
           or time.perf_counter() - start + statistics.median(durations) <= seconds):
        began = time.perf_counter()
        for kind in cycle:
            runs.execute(kind)
        durations.append(time.perf_counter() - began)


def end_to_end_metrics(runs: Runs, setup_times: list[float]) -> dict:
    timed = runs.of("timed")
    return {
        "wall_s": ([r["wall_s"] for r in timed], "s"),
        "setup_s": (setup_times, "s"),
        "peak_rss_mb": ([r["rss_mb"] for r in timed], "MB"),
    }


def per_layer_metrics(runs: Runs, import_times: dict) -> dict:
    timed, traced = runs.of("timed"), runs.of("traced")
    baseline = runs.of("baseline") or timed
    trials = [runs.workload.trials(r) for r in timed]
    metrics = {}
    for name in traced[0]["self_s"]:
        metrics[f"{name}_s"] = ([r["self_s"][name] for r in traced], "s")
    for name in traced[0]["counts"]:
        metrics[name] = ([r["counts"][name] for r in traced], "count")
    metrics["montecarlo.cpu_us_per_trial"] = (
        [r["cpu_s"] / n * 1e6 if n else 0.0 for r, n in zip(timed, trials)], "us")
    metrics["trials_per_s"] = ([n / r["wall_s"] for r, n in zip(timed, trials)], "1/s")
    metrics["trace.overhead_s"] = ([
        statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in baseline)], "s")
    for name, values in import_times.items():
        metrics[f"{name}.import_s"] = (values, "s")
    metrics["fail_ratio"] = ([len(runs.failures) / max(runs.attempted, 1)], "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's self-check")
    args = parser.parse_args(argv)

    if not (SRC / "chirpfield" / "__init__.py").is_file():
        print(f"error: no chirpfield sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import chirpfield.cli
    if Path(chirpfield.__file__).resolve().parent != SRC / "chirpfield":
        print(f"error: imported chirpfield from {chirpfield.__file__}", file=sys.stderr)
        return 2
    modules = {name: sys.modules[f"chirpfield.{name}"] for name in LAYER_MODULES}
    reference = json.loads((HERE / "reference.json").read_text())
    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, **machine_record()}
    print(f"workload {args.workload}: {workload.describe()}", flush=True)

    setup_times, import_times = measure_setup(bool(args.trace))
    (HERE / "out").mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / "out")
    runs = Runs(workload, modules, reference, out_dir)
    try:
        measure(runs, bool(args.trace), args.seconds)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    metrics = {}
    if runs.of("timed") and (not args.trace or runs.of("traced")):
        metrics = (per_layer_metrics(runs, import_times) if args.trace
                   else end_to_end_metrics(runs, setup_times))

    print(f"machine {json.dumps(record)}")
    for message in runs.failures:
        print(f"FAILED {message}")
    print(f"rows attempted {runs.attempted}, failed {len(runs.failures)}")
    for kind in ("timed", "baseline", "traced"):
        if runs.of(kind):
            walls = " ".join(f"{r['wall_s']:.4f}" for r in runs.of(kind))
            print(f"{kind} runs: wall_s {walls}")
    out = {}
    for name, (values, unit) in metrics.items():
        q1, median, q3 = quartiles(values)
        print(f"{name:34s} {median:.6g} {unit}  (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")
        out[name] = {"value": median, "unit": unit}
    print(json.dumps({"correct": not runs.failures, "attempted": max(runs.attempted, 1),
                      "failed": len(runs.failures), "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

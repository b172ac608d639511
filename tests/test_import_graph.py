"""Production runs load no heavy SciPy subpackage of their own, and no
module keeps an import it does not use.

`scipy.integrate` drags in `scipy.optimize`, `scipy.sparse` and
`scipy.linalg`, which cost most of a run's start-up, and `scipy.stats`
is as heavy.  Only the `*_numeric` oracles in `reference` and `validate`
need them, so they import them where they are called.  The check runs in
a fresh interpreter, so that it also catches an import made at run time
(for example by the first call of a SciPy routine), not only at import
time.

What `scipy.special` loads by itself is the floor: SciPy before 1.17
imports `scipy.linalg` (and through it `scipy.sparse`) inside
`scipy.special`, which chirpfield needs for `ndtr` and `gammainc`.

The Monte Carlo route loads none of SciPy at all: `montecarlo` imports
only `channel` and `lora_phy`, so a simulation of every scenario in a
fresh interpreter leaves no closed-form module (`analytic_ber`,
`specfun`, `interference`, `reference`, `validation`) and no `scipy`
module behind.

A name that a module imports and never uses is what a move leaves behind.
The only ones allowed are those the benchmark's trace spans wrap in that
module's namespace (`_WRAPS` in perfbench/spans.py), since the spans need
the name to resolve there.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from test_perfbench_spans import load_spans

SRC = Path(__file__).resolve().parent.parent / "src"

HEAVY = ("scipy.integrate", "scipy.optimize", "scipy.linalg", "scipy.sparse", "scipy.stats")

SCRIPT = """
import json, sys

def heavy():
    return [name for name in HEAVY if name in sys.modules]

import numpy, scipy.special
floor = heavy()

from chirpfield import cli

out = sys.argv[1]
codes = [
    cli.main(["analytic", "--sf", "7", "--elements", "25", "--m", "2",
              "--scenario", "case_a", "--detection", "both",
              "--snr-db", "-30", "--out", out]),
    cli.main(["simulate", "--sf", "7", "--elements", "25", "--m", "2",
              "--scenario", "case_a", "--detection", "both",
              "--snr-db", "-30", "--trials", "500", "--seed", "1", "--out", out]),
]
print(json.dumps({"codes": codes, "floor": floor, "loaded": heavy()}))
"""


def run_fresh(script: str, *args: str) -> dict:
    """Run `script` in a fresh interpreter; returns its last line as JSON."""
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))},
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_cli_runs_load_no_heavy_scipy(tmp_path):
    report = run_fresh(f"HEAVY = {HEAVY!r}\n{SCRIPT}", str(tmp_path / "rows.csv"))
    assert report["codes"] == [0, 0]
    added = sorted(set(report["loaded"]) - set(report["floor"]))
    assert not added, f"a production run imported {added}"


# The Monte Carlo route on its own: every scenario, both detectors.
SIMULATION = """
import json, sys

from chirpfield import montecarlo as mc
from chirpfield.channel import FadingConfig
from chirpfield.lora_phy import LoRaParams

for scenario in mc.SCENARIOS:
    cfg = mc.SimConfig(params=LoRaParams(7), fading=FadingConfig.uniform(2.0, 4),
                       scenario=scenario, detection="noncoherent",
                       snr_db_grid=(-20.0,), trials_per_point=300, seed=1)
    assert len(mc.run_sweep(cfg, detections=mc.DETECTIONS)) == 2
print(json.dumps(sorted(sys.modules)))
"""


def test_simulation_loads_no_closed_form_and_no_scipy():
    loaded = run_fresh(SIMULATION)
    package = {name for name in loaded if name.startswith("chirpfield.")}
    assert package == {"chirpfield.channel", "chirpfield.lora_phy", "chirpfield.montecarlo"}
    scipy = [name for name in loaded if name.startswith("scipy")]
    assert not scipy, f"a simulation imported {scipy[:5]}"


def imported_names(tree: ast.Module) -> set[str]:
    """Every name an import binds anywhere in the module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    return names


def test_every_import_is_used():
    pinned = {(module, attr) for module, attr, *_ in load_spans()._WRAPS}
    unused = []
    for path in sorted((SRC / "chirpfield").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.stem}.{name}" for name in sorted(imported_names(tree) - used)
                   if (path.stem, name) not in pinned]
    assert not unused, f"imported but never used: {unused}"

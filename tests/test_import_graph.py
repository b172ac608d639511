"""Production runs load no heavy SciPy subpackage of their own.

`scipy.integrate` drags in `scipy.optimize`, `scipy.sparse` and
`scipy.linalg`, which cost most of a run's start-up, and `scipy.stats`
is as heavy.  Only the `*_numeric` oracles and `validate` need them, so
they import them where they are called.  The check runs in a fresh
interpreter, so that it also catches an import made at run time (for
example by the first call of a SciPy routine), not only at import time.

What `scipy.special` loads by itself is the floor: SciPy before 1.17
imports `scipy.linalg` (and through it `scipy.sparse`) inside
`scipy.special`, which chirpfield needs for `ndtr` and `gammainc`.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_cli_runs_load_no_heavy_scipy(tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", f"HEAVY = {HEAVY!r}\n{SCRIPT}", str(tmp_path / "rows.csv")],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))},
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["codes"] == [0, 0]
    added = sorted(set(report["loaded"]) - set(report["floor"]))
    assert not added, f"a production run imported {added}"

"""The benchmark's per-layer tracer still finds every binding it wraps.

perfbench/tracer.py patches airsnet's layer boundaries by name. Renaming or
deleting one of those names breaks the benchmark, so installing the tracer
is part of the tier-1 suite, not only of `pytest perfbench`.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_the_current_program():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"),
                                                         str(ROOT / "perfbench")])}
    proc = subprocess.run(
        [sys.executable, "-c", "from tracer import Tracer, install; install(Tracer())"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr

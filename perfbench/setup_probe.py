"""Set one workload up in a fresh interpreter, report readiness, and exit.

``run.py`` starts this script several times per run and times each start
until the ``ready`` line: interpreter start, imports, the workload's set-up
(``Evaluator`` construction with its specimen draw, or study-cell
resolution) and backend construction.  Usage::

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

prepared = workloads.WORKLOADS[sys.argv[1]].prepare(int(sys.argv[2]))
print("ready", flush=True)
prepared.backend.close()

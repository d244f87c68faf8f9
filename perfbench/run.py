"""End-to-end and per-layer benchmark of the design loop and the study.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload design-serial --seed 0 --seconds 30 --trace 0

Workloads (see ``workloads.py`` for what each runs and why):
``design-serial``, ``design-pool2`` and ``study-smoke``.

``--trace 0`` measures the end-to-end metrics.  It times the set-up
``SETUP_PROBES`` times in fresh interpreters, then runs the workload again
and again (each repetition from a fresh set-up, at least ``MIN_REPS`` times)
until ``--seconds`` would be exceeded, and reports medians:

* ``setup_s``: process start to the first submittable work (median probe);
* ``wall_s``: the ``optimize()`` call to the returned tree, or the
  ``run_study()`` call to ``to_markdown()`` returning; includes the lazy
  pool start;
* ``cpu_s``: user + system time of this process over the same interval plus
  that of its reaped pool workers;
* ``peak_rss_mb``: the larger of this process's and its children's peak
  resident set size.

Failed simulation jobs are reported against attempted jobs in the result's
``attempted``/``failed`` fields: a job fails if it raises, and every job of
a repetition whose output check fails counts as failed.

``--trace 1`` makes one untraced repetition, one traced repetition (spans
around each layer's calls, see ``tracing.py``) and one profiled repetition
(the layer table, see ``layers.py``), and reports the per-layer metrics.
The span file of the traced repetition is written to ``.perfbench_out/``.

Output check: every repetition must produce the same digest (the final tree
and score history, or the study markdown); for seed 0 it must equal the
digest pinned in ``pinned.json``, which design-serial and design-pool2
share, so the pool must reproduce the serial run bit for bit.  Other seeds
are checked structurally: the whole evaluation budget used with one score
per evaluation, or every study cell ranking all ten schemes.  In a traced
run, the traced and profiled digests must equal the untraced one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

SETUP_PROBES = 7
MIN_REPS = 3


@dataclass
class Rep:
    """One repetition of a workload."""

    wall_s: float
    cpu_s: float
    jobs: int
    digest: Optional[str]
    problems: list[str]


def _cpu(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def run_once(workload: Any, seed: int) -> Rep:
    """Set the workload up, time one run of it, and check its output."""
    gc.collect()
    prepared = workload.prepare(seed)
    children = _cpu(resource.RUSAGE_CHILDREN)
    own = _cpu(resource.RUSAGE_SELF)
    start = time.perf_counter()
    try:
        produced = prepared.run()
    except Exception as exc:  # a failed job aborts the whole run
        wall = time.perf_counter() - start
        prepared.backend.close()
        return Rep(wall, 0.0, prepared.jobs, None, [f"run raised {exc!r}"])
    wall = time.perf_counter() - start
    own = _cpu(resource.RUSAGE_SELF) - own
    prepared.backend.close()  # reaps pool workers, so their time is counted
    cpu = own + _cpu(resource.RUSAGE_CHILDREN) - children
    outcome = prepared.outcome(produced)
    return Rep(wall, cpu, prepared.jobs, outcome.digest, outcome.problems)


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to the workload being ready."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    ) as process:
        assert process.stdout is not None
        line = process.stdout.readline()
        ready = time.perf_counter() - start
        process.stdout.read()
        if process.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe for {workload} failed")
    return ready


def check(reps: list[Rep], seed: int, pinned: Optional[str]) -> list[str]:
    """Problems with the repetitions' outputs; empty when all are correct."""
    problems = [problem for rep in reps for problem in rep.problems]
    digests = {rep.digest for rep in reps}
    if len(digests) != 1:
        problems.append(f"repetitions disagree: {sorted(map(str, digests))}")
    elif seed == 0 and digests != {pinned}:
        problems.append(f"digest {digests.pop()} != pinned {pinned}")
    return problems


def measure(workload: Any, seed: int, seconds: float) -> tuple[dict[str, Any], list[Rep]]:
    setups = [probe_setup(workload.name, seed) for _ in range(SETUP_PROBES)]
    reps: list[Rep] = []
    start = time.perf_counter()
    while True:
        reps.append(run_once(workload, seed))
        if reps[-1].digest is None:
            break
        elapsed = time.perf_counter() - start
        typical = statistics.median(rep.wall_s for rep in reps)
        if len(reps) >= MIN_REPS and elapsed + typical > seconds:
            break
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(rep.wall_s for rep in reps), "s"),
        "cpu_s": (statistics.median(rep.cpu_s for rep in reps), "s"),
        "peak_rss_mb": (peak_kib / 1024, "MiB"),
    }
    return metrics, reps


def trace(workload: Any, seed: int) -> tuple[dict[str, Any], list[Rep]]:
    from layers import layer_shares, profiled
    from tracing import Recorder, installed, layer_metrics

    reference = run_once(workload, seed)
    reps = [reference]

    gc.collect()
    prepared = workload.prepare(seed)
    workers = 1 if prepared.backend.shares_memory else prepared.backend.max_workers
    recorder = Recorder(OUT_DIR)
    with installed(recorder, prepared.backend):
        start = time.perf_counter()
        with recorder.span(prepared.root):
            produced = prepared.run()
        traced_wall = time.perf_counter() - start
    prepared.backend.close()
    outcome = prepared.outcome(produced)
    reps.append(Rep(traced_wall, 0.0, prepared.jobs, outcome.digest, outcome.problems))
    recorder.merge_workers()
    recorder.write(OUT_DIR / f"trace-{workload.name}-seed{seed}.jsonl")
    metrics = layer_metrics(recorder.spans, workers, traced_wall)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - reference.wall_s, "s")

    gc.collect()
    prepared = workload.prepare(seed)
    with profiled(OUT_DIR) as profile:
        produced = prepared.run()
    prepared.backend.close()
    outcome = prepared.outcome(produced)
    reps.append(Rep(0.0, 0.0, prepared.jobs, outcome.digest, outcome.problems))
    metrics.update(layer_shares(profile, OUT_DIR))
    return metrics, reps


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source at {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    pinned = json.loads((HERE / "pinned.json").read_text()).get(workload.pin)

    if args.trace:
        metrics, reps = trace(workload, args.seed)
    else:
        metrics, reps = measure(workload, args.seed, args.seconds)
    problems = check(reps, args.seed, pinned)
    attempted = sum(rep.jobs for rep in reps)
    # A repetition whose output fails a check loses all of its jobs; a
    # disagreement between repetitions condemns them all.
    failed = sum(rep.jobs for rep in reps if rep.problems)
    if problems and not failed:
        failed = attempted

    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}: "
          f"{len(reps)} repetitions, wall_s "
          f"{' '.join(f'{rep.wall_s:.3f}' for rep in reps)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    print(f"  {'failed_frac':28s} {failed / attempted:14.6g} of {attempted} jobs")
    digest = reps[0].digest
    print(f"  output check: {'ok' if not problems else 'FAILED'} (digest {digest})")
    for problem in problems:
        print(f"    {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

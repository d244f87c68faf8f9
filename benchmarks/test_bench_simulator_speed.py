"""Ablation / infrastructure benchmark: raw simulator events-per-second.

Not a paper figure, but every experiment's cost is dominated by the
packet-level simulator, so its events-per-second rate is the number that
determines how far the paper-scale parameters can be pushed.  The harness
measures:

* the queue disciplines' overhead under NewReno (the ablation DESIGN.md
  calls out for the router-assisted baselines),
* a two-hop path with a congestible reverse hop (multi-hop dispatch plus
  pooled ACK routing through `PathNetwork`), and
* RemyCC senders over DropTail — the whisker-lookup hot path (octant
  descent + last-leaf cache), in both execution and training mode.

The cases are the ``bench-*`` cells of the scenario registry
(:mod:`repro.scenarios`), built at a 5-second measuring duration; the same
cells run (at their shorter canonical duration) in the golden matrix suite,
so a semantics change in a benchmarked configuration is caught there first.

Each case's events/sec is appended as one trajectory entry to
``BENCH_simulator.json`` at the repository root (override the path with the
``BENCH_SIMULATOR_JSON`` environment variable, the entry label with
``BENCH_LABEL``).  Entries also record a pure-Python calibration rate so
trajectories from machines of different speeds stay comparable — see
``benchmarks/check_bench_regression.py`` and the README's Performance
section.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from datetime import datetime, timezone
from pathlib import Path

import pytest

from repro.scenarios import BENCH_CASE_SCENARIOS, get_scenario

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Measuring duration (simulated seconds) for every case.
BENCH_DURATION = 5.0

#: case label -> registered scenario cell (shared with tools/profile_hotpath.py).
CASE_SCENARIOS = BENCH_CASE_SCENARIOS

#: Accumulates ``case -> measurement`` while the module's tests run; flushed
#: to the trajectory file by the module-scoped fixture below.
_RESULTS: dict[str, dict] = {}


def _calibration_rate(iterations: int = 2_000_000) -> float:
    """Pure-Python busy-loop rate (iterations/second) used to normalize
    events/sec across machines: a CI runner half as fast as the machine that
    recorded the baseline scores half the calibration rate too, so the
    *normalized* rate is machine-independent to first order."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc += i & 7
    return iterations / (time.perf_counter() - t0)


def _run_case(case: str) -> tuple[int, float]:
    """Run one benchmark case; returns (events_processed, elapsed_seconds)."""
    sim = get_scenario(CASE_SCENARIOS[case]).build(duration=BENCH_DURATION)
    start = time.perf_counter()
    result = sim.run()
    elapsed = time.perf_counter() - start
    return result.events_processed, elapsed


def _measure(case: str, rounds: int = 3) -> dict:
    """Best-of-``rounds`` measurement (events/sec is noise-sensitive)."""
    events = 0
    best_elapsed = float("inf")
    for _ in range(rounds):
        events, elapsed = _run_case(case)
        best_elapsed = min(best_elapsed, elapsed)
    measurement = {
        "events": events,
        "seconds": round(best_elapsed, 6),
        "events_per_sec": round(events / best_elapsed, 1),
    }
    _RESULTS[case] = measurement
    return measurement


def _git_short_sha() -> str:
    """Short SHA of HEAD, or '' outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return ""
    return proc.stdout.strip() if proc.returncode == 0 else ""


def _entry_label() -> str:
    """Label for this run's trajectory entry.

    ``BENCH_LABEL`` wins when set (CI stamps the full commit SHA there);
    otherwise entries are labelled ``local@<short-sha>`` so a measurement is
    always traceable to the code that produced it.  A bare ``"local"`` label
    only appears outside a git checkout.
    """
    label = os.environ.get("BENCH_LABEL")
    if label:
        return label
    sha = _git_short_sha()
    return f"local@{sha}" if sha else "local"


@pytest.fixture(scope="module", autouse=True)
def _write_trajectory():
    """Append this run's measurements to the events/sec trajectory file.

    Hygiene rule: default-labelled entries (``local@<sha>`` / ``local``)
    *replace* any previous entry with the same label instead of piling up —
    re-running the bench on unchanged code must not grow the committed
    trajectory with duplicates.  Explicitly labelled entries (``BENCH_LABEL``)
    always append, recording deliberate milestones.
    """
    yield
    if not _RESULTS:
        return
    path = Path(os.environ.get("BENCH_SIMULATOR_JSON", REPO_ROOT / "BENCH_simulator.json"))
    history = []
    if path.exists():
        try:
            history = json.loads(path.read_text()).get("history", [])
        except (json.JSONDecodeError, AttributeError):
            history = []
    calibration = _calibration_rate()
    label = _entry_label()
    if "BENCH_LABEL" not in os.environ:
        history = [entry for entry in history if entry.get("label") != label]
    entry = {
        "label": label,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "calibration_rate": round(calibration, 1),
        "cases": {
            case: {
                **measurement,
                "normalized": round(measurement["events_per_sec"] / calibration, 6),
            }
            for case, measurement in sorted(_RESULTS.items())
        },
    }
    history.append(entry)
    path.write_text(json.dumps({"schema": 1, "history": history}, indent=1) + "\n")


CASES = list(CASE_SCENARIOS)


@pytest.mark.parametrize("case", CASES)
def test_simulator_event_rate(benchmark, case):
    measurement = benchmark.pedantic(_measure, args=(case,), rounds=1, iterations=1)
    print(
        f"\n{case}: {measurement['events']} events, "
        f"{measurement['events_per_sec']:,.0f} events/sec (4x5s at 10 Mbps)"
    )
    # Classic RED dropping non-ECN TCP traffic keeps the link lightly used
    # (that is RED working as designed), so it processes far fewer events.
    assert measurement["events"] > (1_000 if case == "newreno/red" else 10_000)

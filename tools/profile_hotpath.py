"""cProfile harness over the events/sec benchmark cases.

Future performance PRs should start from numbers, not hunches: this tool
profiles exactly the simulations that ``benchmarks/test_bench_simulator_speed.py``
times (same topology, protocols, duration and seed), so a hot spot seen here
is a hot spot in the tracked trajectory.

Usage::

    PYTHONPATH=src python tools/profile_hotpath.py                  # default cases
    PYTHONPATH=src python tools/profile_hotpath.py remy/droptail    # one case
    PYTHONPATH=src python tools/profile_hotpath.py --sort cumtime --limit 30 ...
    PYTHONPATH=src python tools/profile_hotpath.py --dump /tmp/out  # .pstats per case

Dumped ``.pstats`` files can be explored interactively with
``python -m pstats /tmp/out/newreno_droptail.pstats`` or visualized with
snakeviz (not bundled).
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from pathlib import Path

from repro.netsim.simulator import Simulation
from repro.scenarios import BENCH_CASE_SCENARIOS as CASE_SCENARIOS
from repro.scenarios import get_scenario

DEFAULT_CASES = [
    "newreno/droptail",
    "newreno/codel",
    "newreno/twohop",
    "remy/droptail",
    "remy-training/droptail",
]


def build_simulation(case: str) -> Simulation:
    """The exact simulation the speed benchmark times for ``case``."""
    if case not in CASE_SCENARIOS:
        raise SystemExit(
            f"unknown case {case!r} (expected one of {', '.join(CASE_SCENARIOS)})"
        )
    return get_scenario(CASE_SCENARIOS[case]).build(duration=5.0)


def profile_case(case: str, sort: str, limit: int, dump_dir: Path | None) -> None:
    simulation = build_simulation(case)
    profiler = cProfile.Profile()
    profiler.enable()
    result = simulation.run()
    profiler.disable()

    print(f"\n{'=' * 72}")
    print(f"case {case}: {result.events_processed} events")
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats(sort).print_stats(limit)
    if dump_dir is not None:
        dump_dir.mkdir(parents=True, exist_ok=True)
        out = dump_dir / (case.replace("/", "_") + ".pstats")
        stats.dump_stats(out)
        print(f"dumped {out}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "cases",
        nargs="*",
        default=DEFAULT_CASES,
        help=f"benchmark cases to profile (default: {' '.join(DEFAULT_CASES)})",
    )
    parser.add_argument(
        "--sort",
        default="tottime",
        help="pstats sort key (tottime, cumtime, ncalls, ...; default tottime)",
    )
    parser.add_argument(
        "--limit", type=int, default=25, help="rows to print per case (default 25)"
    )
    parser.add_argument(
        "--dump",
        type=Path,
        default=None,
        metavar="DIR",
        help="also dump a .pstats file per case into DIR",
    )
    args = parser.parse_args()
    for case in args.cases:
        profile_case(case, args.sort, args.limit, args.dump)


if __name__ == "__main__":
    main()

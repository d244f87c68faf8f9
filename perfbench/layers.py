"""The profiled run's layer table: cProfile self time grouped by layer.

The profiled run is kept apart from the traced run because the profiler's
per-call cost distorts span timings.  Every profiled function is attributed
to a layer by the module that defines it, through ``MODULE_LAYERS``; the
first matching prefix wins.  Builtins that block (lock ``acquire``,
``poll``, ``select``) count as ``wait``, and anything else outside the
package (the standard library, other builtins) as ``runtime``.  Pool
workers profile each ``run_sim_job`` call and dump their statistics to the
output directory, where the parent adds them to its own profile.
"""

from __future__ import annotations

import contextlib
import cProfile
import os
import pstats
from collections import defaultdict
from pathlib import Path
from typing import Any, Iterator

import repro.runner.backends as runner_backends

#: (module prefix, layer), most specific first.
MODULE_LAYERS = (
    ("repro.netsim.sender", "sender"),
    ("repro.netsim.kernel", "kernel"),
    ("repro.netsim.events", "events"),
    ("repro.netsim.queue", "queue_aqm"),
    ("repro.netsim.aqm", "queue_aqm"),
    ("repro.netsim.sfq", "queue_aqm"),
    ("repro.netsim.link", "link"),
    ("repro.netsim.receiver", "receiver"),
    ("repro.netsim.network", "network_path"),
    ("repro.netsim.path", "network_path"),
    ("repro.netsim.packet", "packet"),
    ("repro.netsim.stats", "stats"),
    ("repro.netsim", "netsim_other"),
    ("repro.protocols.remycc", "remycc"),
    ("repro.core.whisker_tree", "whisker_tree"),
    ("repro.core.whisker", "whisker_tree"),
    ("repro.core.memory", "memory"),
    ("repro.protocols", "protocols_other"),
    ("repro.core", "core_other"),
    ("repro.runner", "runner"),
    ("repro.traffic", "traffic"),
    ("repro", "analysis_other"),
)
LAYERS = tuple(dict.fromkeys(layer for _, layer in MODULE_LAYERS)) + ("wait", "runtime")

#: Builtins that block rather than compute: on a pool run the parent spends
#: most of its time in them, waiting for workers.
WAITS = ("acquire", "poll", "select")


def module_of(filename: str) -> str:
    """Dotted module name of a profiled file, or ``""`` outside the package."""
    parts = Path(filename).with_suffix("").parts
    if "repro" not in parts:
        return ""
    dotted = parts[len(parts) - 1 - parts[::-1].index("repro") :]
    if dotted[-1] == "__init__":
        dotted = dotted[:-1]
    return ".".join(dotted)


def layer_of(filename: str, function: str) -> str:
    if filename == "~" and any(wait in function for wait in WAITS):
        return "wait"
    module = module_of(filename)
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "runtime"


@contextlib.contextmanager
def profiled(out_dir: Path) -> Iterator[cProfile.Profile]:
    """Profile this process, and every simulation job a pool worker runs."""
    for stale in out_dir.glob("prof-*.pstats"):
        stale.unlink()
    parent_pid = os.getpid()
    original = runner_backends.run_sim_job
    worker_profile: list[cProfile.Profile] = []

    def run_sim_job(*args: Any, **kwargs: Any) -> Any:
        if os.getpid() == parent_pid:
            return original(*args, **kwargs)
        if not worker_profile:
            worker_profile.append(cProfile.Profile())
        profile = worker_profile[0]
        profile.enable()
        try:
            return original(*args, **kwargs)
        finally:
            profile.disable()
            profile.dump_stats(str(out_dir / f"prof-{os.getpid()}.pstats"))

    profile = cProfile.Profile()
    runner_backends.run_sim_job = run_sim_job  # type: ignore[assignment]
    profile.enable()
    try:
        yield profile
    finally:
        profile.disable()
        runner_backends.run_sim_job = original


def layer_shares(profile: cProfile.Profile, out_dir: Path) -> dict[str, tuple[float, str]]:
    """Each layer's share of profiled self time, workers included."""
    stats = pstats.Stats(profile)
    for path in sorted(out_dir.glob("prof-*.pstats")):
        stats.add(str(path))
        path.unlink()
    totals: dict[str, float] = defaultdict(float)
    for (filename, _line, function), entry in stats.stats.items():  # type: ignore[attr-defined]
        totals[layer_of(filename, function)] += entry[2]  # tottime
    total = sum(totals.values()) or 1.0
    return {f"prof.{layer}.share": (totals[layer] / total, "frac") for layer in LAYERS}

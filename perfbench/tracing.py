"""Span recording around the calls into each layer, and per-layer metrics.

A traced run wraps, from the benchmark's side only (nothing under ``src/``
changes), the calls that cross a layer boundary:

* the root call (``optimize`` or ``run_study`` + ``to_markdown``), opened by
  the benchmark itself;
* ``Evaluator.evaluate_many`` (core.evaluator);
* the backend's ``run_batch`` (runner);
* ``Simulation.__init__`` and ``Simulation.run`` (netsim), by substituting
  a recording subclass for the ``Simulation`` name ``run_sim_job`` uses.

Spans are kept in memory as (name, start, end, parent, pid, attrs) and
written out once at the end.  Garbage collections are recorded the same way
through ``gc.callbacks``.  Pool workers fork after the wrappers are in place
(the start method is ``fork``), so they inherit them; a worker appends its
spans to its own file in the output directory after every simulation, and
the parent merges those files when the run ends.  Every clock is
``time.perf_counter``, which is system-wide monotonic on Linux, so worker
and parent spans share one time base.

Self time of a layer is its span minus the part its child spans cover, so
the layers' self times add up to the traced wall time
(``trace.unattributed_s`` is the remainder).

Which end-to-end metric each layer's figures should move, and where:

* ``optimizer.*``, ``evaluator.*``: ``wall_s`` on design-*;
* ``runner.*``: ``wall_s`` and ``cpu_s`` on design-pool2 only (in-process
  runs ship nothing, so no change is expected on design-serial or
  study-smoke);
* ``netsim.run_s``/``build_s``/``events*``: ``wall_s`` and ``cpu_s`` on every
  workload; the tail figures and packet counts move ``wall_s`` and
  ``peak_rss_mb`` on design-* and should leave study-smoke unchanged;
* ``study.self_s``: ``wall_s`` on study-smoke;
* ``py.gc*``: ``wall_s`` and ``cpu_s`` on design-* (GC paused inside the
  flat kernel's run lands in the next ``Simulation.__init__``, hence in
  ``netsim.build_s``).
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import pickle
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Optional

import repro.runner.jobs as runner_jobs
from repro.core.evaluator import Evaluator
from repro.runner import ExecutionBackend, prepare_jobs

NETSIM_SPANS = ("Simulation.__init__", "Simulation.run")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    pid: int = 0
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span store for one process (workers get their own copy)."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = out_dir
        for stale in out_dir.glob("worker-*.jsonl"):
            stale.unlink()
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._parent_pid = self._pid = os.getpid()
        self._gc_start = 0.0

    def _in_worker(self) -> bool:
        pid = os.getpid()
        if pid != self._pid:
            # First record in a forked worker: drop the parent's spans that
            # came along with the fork.
            self.spans, self._open, self._pid = [], [], pid
        return pid != self._parent_pid

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        self._in_worker()
        record = Span(
            name,
            time.perf_counter(),
            parent=self._open[-1] if self._open else None,
            pid=self._pid,
        )
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def on_gc(self, phase: str, info: dict[str, Any]) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        self._in_worker()
        self.spans.append(
            Span(
                "gc",
                self._gc_start,
                time.perf_counter(),
                pid=self._pid,
                attrs={"generation": info["generation"]},
            )
        )

    def flush_worker(self) -> None:
        """In a pool worker, move the spans recorded so far to its file."""
        if not self._in_worker() or self._open:
            return
        _dump(self.spans, self.out_dir / f"worker-{self._pid}.jsonl", "a")
        self.spans = []

    def merge_workers(self) -> None:
        """Fold every worker file into this (parent) recorder's spans."""
        for path in sorted(self.out_dir.glob("worker-*.jsonl")):
            with open(path) as handle:
                for line in handle:
                    self.spans.append(Span(**json.loads(line)))
            path.unlink()

    def write(self, path: Path) -> None:
        _dump(self.spans, path, "w")


def _dump(spans: list[Span], path: Path, mode: str) -> None:
    with open(path, mode) as handle:
        for span in spans:
            handle.write(json.dumps(span.__dict__) + "\n")


@contextlib.contextmanager
def installed(recorder: Recorder, backend: ExecutionBackend) -> Iterator[None]:
    """Wrap the layer boundaries for the duration of one traced run."""
    original_evaluate = Evaluator.evaluate_many
    original_simulation = runner_jobs.Simulation
    original_run_batch = backend.run_batch
    shipping = not backend.shares_memory

    def evaluate_many(self: Evaluator, *args: Any, **kwargs: Any) -> Any:
        with recorder.span("evaluate_many"):
            return original_evaluate(self, *args, **kwargs)

    def run_batch(jobs: Any) -> Any:
        # The pickled size of the prepared job list is what a
        # memory-isolated backend ships; it is measured before the span
        # opens so the extra pickling stays out of the layer's time.
        shipped = len(pickle.dumps(prepare_jobs(jobs))) if shipping else 0
        with recorder.span("run_batch") as span:
            span.attrs = {"jobs": len(jobs), "shipped_bytes": shipped}
            return original_run_batch(jobs)

    class Simulation(original_simulation):  # type: ignore[misc, valid-type]
        def __init__(self, *args: Any, **kwargs: Any) -> None:
            with recorder.span("Simulation.__init__"):
                super().__init__(*args, **kwargs)

        def run(self) -> Any:
            with recorder.span("Simulation.run") as span:
                result = super().run()
            span.attrs = {
                "events": result.events_processed,
                "kernel": self.kernel_name,
                "packets_sent": sum(s.packets_sent for s in result.flow_stats),
                "retransmissions": sum(s.retransmissions for s in result.flow_stats),
                "queue_drops": result.queue_drops,
            }
            recorder.flush_worker()
            return result

    Evaluator.evaluate_many = evaluate_many  # type: ignore[method-assign]
    runner_jobs.Simulation = Simulation  # type: ignore[misc]
    backend.run_batch = run_batch  # type: ignore[method-assign]
    gc.callbacks.append(recorder.on_gc)
    try:
        yield
    finally:
        gc.callbacks.remove(recorder.on_gc)
        del backend.run_batch
        runner_jobs.Simulation = original_simulation  # type: ignore[misc]
        Evaluator.evaluate_many = original_evaluate  # type: ignore[method-assign]


def _covered(span: Span, children: list[Span]) -> float:
    """Seconds of ``span`` covered by the union of ``children``."""
    total, reach = 0.0, span.start
    for child in sorted(children, key=lambda c: c.start):
        start, end = max(child.start, reach, span.start), min(child.end, span.end)
        if end > start:
            total += end - start
            reach = max(reach, end)
    return total


def _self_seconds(
    spans: list[Span], pid: int, names: tuple[str, ...], child_names: tuple[str, ...]
) -> float:
    """Summed self time of the spans named ``names`` recorded by ``pid``."""
    by_parent: dict[int, list[Span]] = {}
    for span in spans:
        if span.pid == pid and span.name in child_names and span.parent is not None:
            by_parent.setdefault(span.parent, []).append(span)
    return sum(
        span.seconds - _covered(span, by_parent.get(index, []))
        for index, span in enumerate(spans)
        if span.pid == pid and span.name in names
    )


def layer_metrics(
    spans: list[Span], workers: int, wall_s: float
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one traced run's (parent + worker) spans.

    ``workers`` is the number of processes that run simulations: 1 for an
    in-process backend, the pool size otherwise.  ``wall_s`` is the traced
    run's wall time; ``trace.unattributed_s`` is the part of it that no
    layer's self time accounts for.
    """
    parent_pid = os.getpid()
    named = lambda *names: [s for s in spans if s.name in names]  # noqa: E731
    evaluations = named("evaluate_many")
    batches = named("run_batch")
    builds, runs = named("Simulation.__init__"), named("Simulation.run")
    gcs = named("gc")

    sims: list[float] = []
    worker_sim_s = 0.0
    for build, run in zip(builds, runs):
        sims.append(build.seconds + run.seconds)
        if build.pid != parent_pid:
            worker_sim_s += build.seconds + run.seconds
    batch_s = sum(s.seconds for s in batches)
    in_process_sim_s = sum(sims) - worker_sim_s
    ranked = sorted(sims)
    # The highest percentile with at least ten simulations beyond it.
    tail_rank = max(0, len(ranked) - 11)
    events = sum(s.attrs["events"] for s in runs)
    run_s = sum(s.seconds for s in runs)

    metrics: dict[str, tuple[float, str]] = {
        "optimizer.self_s": (
            _self_seconds(spans, parent_pid, ("optimize",), ("evaluate_many",)),
            "s",
        ),
        "evaluator.batches": (len(evaluations), "count"),
        "evaluator.batch_max_s": (max((s.seconds for s in evaluations), default=0.0), "s"),
        "evaluator.self_s": (_self_seconds(spans, parent_pid, ("evaluate_many",), ("run_batch",)), "s"),
        "runner.batches": (len(batches), "count"),
        "runner.batch_s": (batch_s, "s"),
        "runner.self_s": (_self_seconds(spans, parent_pid, ("run_batch",), NETSIM_SPANS), "s"),
        "runner.shipped_bytes": (sum(s.attrs["shipped_bytes"] for s in batches), "bytes"),
        "runner.worker_busy_frac": (
            (worker_sim_s if worker_sim_s else in_process_sim_s) / (workers * batch_s)
            if batch_s
            else 0.0,
            "frac",
        ),
        "netsim.sims": (len(sims), "count"),
        "netsim.build_s": (sum(s.seconds for s in builds), "s"),
        "netsim.run_s": (run_s, "s"),
        "netsim.events": (events, "count"),
        "netsim.events_per_s": (events / run_s if run_s else 0.0, "1/s"),
        "netsim.sim_p50_s": (statistics.median(ranked) if ranked else 0.0, "s"),
        "netsim.sim_tail_s": (ranked[tail_rank] if ranked else 0.0, "s"),
        "netsim.sim_tail_pct": (
            100.0 * (tail_rank + 1) / len(ranked) if ranked else 0.0,
            "%",
        ),
        "netsim.sim_max_s": (ranked[-1] if ranked else 0.0, "s"),
        "netsim.top10_share": (sum(ranked[-10:]) / sum(ranked) if ranked else 0.0, "frac"),
        "netsim.flat_sims": (sum(s.attrs["kernel"] == "flat" for s in runs), "count"),
        "netsim.generic_sims": (sum(s.attrs["kernel"] == "generic" for s in runs), "count"),
        "netsim.packets_sent": (sum(s.attrs["packets_sent"] for s in runs), "count"),
        "netsim.retransmissions": (sum(s.attrs["retransmissions"] for s in runs), "count"),
        "netsim.queue_drops": (sum(s.attrs["queue_drops"] for s in runs), "count"),
        "study.self_s": (
            _self_seconds(spans, parent_pid, ("run_study",), ("run_batch",)),
            "s",
        ),
        "py.gc_s": (sum(s.seconds for s in gcs), "s"),
        "py.gc0": (sum(s.attrs["generation"] == 0 for s in gcs), "count"),
        "py.gc1": (sum(s.attrs["generation"] == 1 for s in gcs), "count"),
        "py.gc2": (sum(s.attrs["generation"] == 2 for s in gcs), "count"),
    }
    attributed = (
        metrics["optimizer.self_s"][0]
        + metrics["evaluator.self_s"][0]
        + metrics["runner.self_s"][0]
        + metrics["study.self_s"][0]
        + in_process_sim_s
    )
    metrics["trace.unattributed_s"] = (wall_s - attributed, "s")
    return metrics


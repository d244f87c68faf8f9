"""Garbage collection around one simulation job.

:func:`repro.runner.run_sim_job` pauses the cyclic collector for the job,
restores the caller's setting, and then runs one young collection, which
frees the finished simulation (its object graph is all reference cycles, so
reference counting alone never does).  This suite checks that contract and
the invariant that makes the pause safe: a simulation creates no cyclic
garbage while it runs, so ``gc.collect()`` finds nothing while the finished
``Simulation`` is still referenced.

Gating: the per-cell invariant runs on a strided subset of the registry by
default; set ``SCENARIO_MATRIX=full`` to run every cell.
"""

from __future__ import annotations

import contextlib
import gc
import os
import weakref
from typing import Iterator

import pytest

import repro.runner.jobs as runner_jobs
from repro.core.action import Action
from repro.core.config import ConfigRange, ParameterRange
from repro.core.evaluator import Evaluator, EvaluatorSettings
from repro.core.whisker_tree import WhiskerTree
from repro.netsim.events import SimulationError
from repro.runner import SimJob, run_sim_job
from repro.scenarios import get_scenario, scenario_names

FULL_MATRIX = os.environ.get("SCENARIO_MATRIX", "").lower() in {"full", "all", "1"}
ALL_CELLS = scenario_names()
SMOKE_STRIDE = 4
SMOKE_CELLS = set(ALL_CELLS[::SMOKE_STRIDE])


@contextlib.contextmanager
def collector(enabled: bool) -> Iterator[None]:
    """Run the body with automatic collection on or off, then restore it."""
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was_enabled else gc.disable)()


@pytest.fixture
def recorded(monkeypatch: pytest.MonkeyPatch) -> list[tuple[weakref.ref, bool]]:
    """Swap in a ``Simulation`` that records a weak reference to each instance
    and whether automatic collection was on while it ran."""
    records: list[tuple[weakref.ref, bool]] = []

    class Recording(runner_jobs.Simulation):
        def run(self):
            records.append((weakref.ref(self), gc.isenabled()))
            return super().run()

    monkeypatch.setattr(runner_jobs, "Simulation", Recording)
    return records


def small_job(**overrides: object) -> SimJob:
    return SimJob.from_scenario("fig4-dumbbell8", duration=2.0, **overrides)


class TestRunSimJobCollection:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_restores_the_callers_gc_state(self, enabled, recorded):
        with collector(enabled):
            run_sim_job(small_job())
            assert gc.isenabled() is enabled
        [(_, enabled_during_run)] = recorded
        assert enabled_during_run is False

    @pytest.mark.parametrize("enabled", [True, False])
    def test_restores_the_callers_gc_state_when_the_job_raises(self, enabled):
        with collector(enabled):
            with pytest.raises(SimulationError, match="max_events"):
                run_sim_job(small_job(max_events=100))
            assert gc.isenabled() is enabled

    def test_finished_simulation_is_freed_before_return(self, recorded):
        job = small_job()
        # Automatic collection stays off so that only the job's own
        # collection can free the graph, and leftovers stay countable.
        with collector(False):
            gc.collect()
            result = run_sim_job(job)
            [(simulation, _)] = recorded
            assert simulation() is None
            assert gc.collect() == 0
        assert result.result.events_processed > 0


def assert_no_cyclic_garbage(build):
    """Build and run a simulation with the collector paused, check that
    nothing it allocated is unreachable while it is still referenced, and
    return it."""
    with collector(False):
        gc.collect()
        simulation = build()
        simulation.run()
        assert gc.collect() == 0
    return simulation


@pytest.mark.parametrize("cell_name", ALL_CELLS)
def test_cell_creates_no_cyclic_garbage(cell_name):
    if not FULL_MATRIX and cell_name not in SMOKE_CELLS:
        pytest.skip(
            f"{cell_name} runs in the full matrix only (set SCENARIO_MATRIX=full)"
        )
    assert_no_cyclic_garbage(get_scenario(cell_name).build)


def test_flooding_remycc_specimen_creates_no_cyclic_garbage():
    # A candidate whose tiny intersend floods the evaluator's unbounded
    # training queue: thousands of packets are still in flight at the end.
    evaluator = Evaluator(
        ConfigRange(
            link_speed_bps=ParameterRange(14.5e6, 15.5e6),
            rtt_seconds=ParameterRange(0.145, 0.155),
            n_senders=ParameterRange.exact(4),
            mean_on_seconds=ParameterRange.exact(1000.0),
            mean_off_seconds=ParameterRange.exact(0.0),
        ),
        settings=EvaluatorSettings(num_specimens=1, sim_duration=1.5),
    )
    assert evaluator.settings.queue_kind == "infinite"
    tree = WhiskerTree(default_action=Action(1.01, 1.0, 0.002))
    job = evaluator._job_for(
        tree, evaluator.specimens[0], 0, training=True, job_id=0
    )

    def build() -> runner_jobs.Simulation:
        return runner_jobs.Simulation(
            job.spec,
            job.build_protocols(),
            list(job.workloads),
            duration=job.duration,
            seed=job.seed,
            max_events=job.max_events,
        )

    simulation = assert_no_cyclic_garbage(build)
    assert sum(len(sender.in_flight) for sender in simulation.senders) > 5000

"""The benchmark's workloads: what each one sets up, runs and checks.

Every workload is driven through the package's public API only
(``RemyOptimizer.optimize``, ``Evaluator``, ``backend_from_spec``,
``run_study``) and is a closed loop with one client: the optimizer waits for
each ``evaluate_many`` batch before it submits the next, and the study
submits its whole grid as one batch.  At most two worker processes run.

``design-serial``
    A seeded Remy design run (the paper's §4.3 inner loop) on
    ``SerialBackend``.  Nearly all of its time is spent simulating, and most
    of that in a few candidates whose tiny intersend time floods the
    evaluator's unbounded queue.
``design-pool2``
    The same design run on ``process:2``.  The simulations are identical, so
    the difference isolates the ``repro.runner`` layer: pickling trees and
    jobs, chunk dispatch, the whisker-stat merge and the lazy pool start.
``study-smoke``
    ``run_study`` over the 17 dumbbell/AQM/path cells x 10 schemes on
    ``SerialBackend``.  Cost is spread evenly over many short simulations,
    about half of them on the generic kernel; no optimizer, no training.

The design range differs from ``general_purpose_range()`` on purpose.  That
range draws 1-16 on/off senders per specimen, and the cost of the flooding
candidates grows with the senders' on-time: at 3 s simulations, six seeds
took 17-46 s for the same budget.  A ten-seed benchmark over it cannot stay
within any usable regression bound.  The benchmark range keeps the paper's
unbounded queue and link/RTT model but narrows link speed and RTT to +-3 %
of 15 Mbit/s and 150 ms, fixes four senders per specimen and keeps every
sender on for the whole run, so a seed changes the specimens and therefore
the trained tree, but not how much work the run is.

Seeds: seed 0 is the default and the one whose outputs are pinned; seeds
0-9 were used while the benchmark was tuned.  Seed 1009 is held out: it
was not, so confirm a claimed gain on it too.

Left unmeasured on purpose: ``ResultCache`` (every run here is cold),
``QueueBackend`` (it needs worker processes attached over a socket), and
whisker-tree splitting (the budgets end before the first split).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.analysis.study import StudyResult, run_study, study_cells, study_schemes
from repro.core.config import ConfigRange, ParameterRange
from repro.core.evaluator import Evaluator, EvaluatorSettings
from repro.core.objective import Objective
from repro.core.optimizer import OptimizerSettings, RemyOptimizer
from repro.core.serialization import whisker_tree_to_dict
from repro.runner import ExecutionBackend, backend_from_spec

#: Design-run size.  The budget covers the baseline evaluation and the first
#: candidate neighbourhoods of the most-used rule; no split is reached.
DESIGN_SPECIMENS = 3
DESIGN_SIM_SECONDS = 1.5
DESIGN_BUDGET = 60
DESIGN_OPTIMIZER = dict(
    max_epochs=4, epochs_per_split=2, candidate_magnitudes=1, max_evaluations=DESIGN_BUDGET
)

#: Study size: every study cell and scheme, shortened simulations.
STUDY_RUNS = 2
STUDY_SIM_SECONDS = 2.0


def design_range() -> ConfigRange:
    """The benchmark's design range (see the module docstring for why)."""
    return ConfigRange(
        link_speed_bps=ParameterRange(14.5e6, 15.5e6),
        rtt_seconds=ParameterRange(0.145, 0.155),
        n_senders=ParameterRange.exact(4),
        mean_on_seconds=ParameterRange.exact(1000.0),
        mean_off_seconds=ParameterRange.exact(0.0),
    )


def digest(document: Any) -> str:
    """SHA-256 of a JSON document in canonical form (floats in full)."""
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Outcome:
    """What one run of a workload produced, reduced to what is checked."""

    digest: str
    #: Structural check failures; empty when the output is well formed.
    problems: list[str] = field(default_factory=list)


@dataclass
class Prepared:
    """A workload ready to run: the timed call and the outcome it yields."""

    backend: ExecutionBackend
    #: Simulation jobs one run submits.
    jobs: int
    #: The timed call; returns the raw result handed to ``outcome``.
    run: Callable[[], Any]
    outcome: Callable[[Any], Outcome]
    #: The root span's name in a traced run.
    root: str


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    backend_spec: str
    #: Key of the pinned seed-0 digest in ``pinned.json``.
    pin: str
    build: Callable[[int, str], Prepared]

    def prepare(self, seed: int) -> Prepared:
        return self.build(seed, self.backend_spec)


def _design(seed: int, backend_spec: str) -> Prepared:
    backend = backend_from_spec(backend_spec)
    evaluator = Evaluator(
        design_range(),
        Objective.proportional(1.0),
        EvaluatorSettings(
            num_specimens=DESIGN_SPECIMENS, sim_duration=DESIGN_SIM_SECONDS, seed=seed
        ),
        backend=backend,
    )
    optimizer = RemyOptimizer(evaluator, settings=OptimizerSettings(**DESIGN_OPTIMIZER))

    def outcome(tree: Any) -> Outcome:
        state = optimizer.state
        problems = []
        if state.evaluations_used != DESIGN_BUDGET:
            problems.append(
                f"evaluations_used {state.evaluations_used} != budget {DESIGN_BUDGET}"
            )
        if len(state.score_history) != state.evaluations_used:
            problems.append(
                f"{len(state.score_history)} scores for {state.evaluations_used} evaluations"
            )
        return Outcome(
            digest=digest(
                {"tree": whisker_tree_to_dict(tree), "scores": state.score_history}
            ),
            problems=problems,
        )

    jobs = DESIGN_BUDGET * DESIGN_SPECIMENS
    return Prepared(backend, jobs, optimizer.optimize, outcome, root="optimize")


def _study(seed: int, backend_spec: str) -> Prepared:
    backend = backend_from_spec(backend_spec)
    cells = [dataclasses.replace(cell, seed=seed) for cell in study_cells()]
    schemes = sorted(scheme.name for scheme in study_schemes())

    def run() -> tuple[StudyResult, str]:
        result = run_study(
            cells, n_runs=STUDY_RUNS, duration=STUDY_SIM_SECONDS, backend=backend
        )
        return result, result.to_markdown()

    def outcome(produced: tuple[StudyResult, str]) -> Outcome:
        result, markdown = produced
        problems = []
        if len(result.cells) != len(cells):
            problems.append(f"{len(result.cells)} cells ranked, expected {len(cells)}")
        for cell_study in result.cells:
            ranked = sorted(summary.scheme for summary in cell_study.ranked)
            if ranked != schemes:
                problems.append(f"cell {cell_study.cell.name} ranks {ranked}")
        return Outcome(digest=digest(markdown), problems=problems)

    jobs = len(cells) * len(schemes) * STUDY_RUNS
    return Prepared(backend, jobs, run, outcome, root="run_study")


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "design-serial",
            "the design loop in-process: nearly all time is simulation, most of it "
            "in a few flooding candidates",
            "serial",
            "design",
            _design,
        ),
        Workload(
            "design-pool2",
            "the same design run on a 2-process pool, isolating pickling, dispatch, "
            "stat merge and pool start",
            "process:2",
            "design",
            _design,
        ),
        Workload(
            "study-smoke",
            "the scheme x path x AQM study: many short simulations on both kernels, "
            "ten protocols, no optimizer",
            "serial",
            "study",
            _study,
        ),
    )
}


"""Execution backends: how a batch of simulation jobs actually runs.

The paper parallelized the design phase's specimen evaluations across many
cores (§4.3); this module provides that execution layer as a pluggable
interface so the evaluator, the optimizer's candidate fan-out and the figure
harnesses can share it:

* :class:`SerialBackend` (the default everywhere) runs each job in-process on
  the caller's own objects — training runs mutate the caller's tree in place,
  exactly like the pre-backend code path, so results stay bit-identical.
* :class:`ProcessPoolBackend` ships picklable jobs to a pool of worker
  processes.  Workers operate on isolated copies of the rule table, so
  training statistics come back as explicit per-whisker deltas that the
  caller merges (see :func:`repro.runner.jobs.merge_whisker_stats`).

Backends preserve submission order: ``run_batch(jobs)[i]`` is always the
result of ``jobs[i]``.
"""

from __future__ import annotations

import os
import pickle
from abc import ABC, abstractmethod
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import replace
from typing import Optional, Sequence

from repro.runner.jobs import SimJob, SimJobResult, run_sim_job


def _execute_job_chunk(jobs: Sequence[SimJob], attempt: int = 0) -> list[SimJobResult]:
    """Worker entry point for one chunk: many jobs, one IPC round trip.

    Module-level so it pickles by reference.  The chunk is pickled as a
    single object, so jobs sharing a rule table serialize that table once
    per chunk instead of once per job, and the results travel back as one
    message.

    ``attempt`` is the number of times this chunk has already been tried
    (:class:`~repro.runner.resilience.ResilientPoolBackend` increments it on
    resubmission); it keys the deterministic fault-injection harness, which
    fires only inside armed worker processes (see
    :func:`repro.runner.faults.worker_fault_plan`).
    """
    from repro.runner.faults import worker_fault_plan

    plan = worker_fault_plan()
    results = []
    for job in jobs:
        if plan is not None:
            plan.apply_before_run(job.job_id, attempt)
        result = run_sim_job(job, collect_stats=job.training and job.tree is not None)
        if plan is not None:
            result = plan.apply_after_run(job.job_id, attempt, result)
        results.append(result)
    return results


def available_workers() -> int:
    """CPUs usable by this process (respects affinity masks where available)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def check_factories_picklable(jobs: Sequence[SimJob]) -> None:
    """Fail fast, with a clear error, on factories that cannot ship.

    Without this, a closure ``protocol_factory`` (e.g. a lambda closing
    over a rule table) dies deep inside the executor with a bare pickle
    traceback — after workers have already been spawned.  Each distinct
    factory is probed once per batch.
    """
    probed: set[int] = set()
    for job in jobs:
        factory = job.protocol_factory
        if factory is None or id(factory) in probed:
            continue
        probed.add(id(factory))
        try:
            pickle.dumps(factory)
        except Exception as exc:
            raise ValueError(
                f"protocol_factory {factory!r} (job {job.job_id}) is not "
                "picklable, so it cannot cross a process boundary: "
                "closures and lambdas do not pickle.  Use a module-level "
                "callable (e.g. the protocol class), describe the scheme "
                "by its rule table (tree=...) or a registered scenario "
                "(scenario=...), or run on SerialBackend."
            ) from exc


def prepare_jobs(jobs: Sequence[SimJob]) -> list[SimJob]:
    """Make a batch safe to ship across a process boundary.

    Shared by every memory-isolated backend (process pool and distributed
    queue alike): factories are probed for picklability, scenario *names*
    are resolved against the submitting process's registry (a worker only
    has the built-in cells), and each distinct rule table is replaced by a
    statistics-free copy via the JSON serialization round trip, so workers
    start from zeroed counters and their returned deltas are pure.
    """
    # Imported here rather than at module scope: repro.core's package
    # __init__ imports the evaluator, which imports this package.
    from repro.core.serialization import whisker_tree_from_dict, whisker_tree_to_dict

    check_factories_picklable(jobs)
    clean_trees: dict[int, object] = {}
    prepared = []
    for job in jobs:
        if isinstance(job.scenario, str):
            # Resolve names against the *submitting* process's registry:
            # a worker only has the built-in cells, so a runtime-registered
            # name would die there with a bare KeyError.  (Unknown names
            # also fail fast here, before any worker is spawned.)
            from repro.scenarios import get_scenario

            job = replace(job, scenario=get_scenario(job.scenario))
        if job.tree is not None:
            key = id(job.tree)
            if key not in clean_trees:
                clean_trees[key] = whisker_tree_from_dict(
                    whisker_tree_to_dict(job.tree)
                )
            job = replace(job, tree=clean_trees[key])
        prepared.append(job)
    return prepared


class ChunkExecutionError(RuntimeError):
    """A worker chunk failed under :class:`ProcessPoolBackend`.

    Carries *which* jobs were in the failing chunk (``job_ids``, in
    submission order) and the chunk's batch offset, with the worker's
    exception chained as ``__cause__``.  The plain pool backend does not
    retry — use :class:`~repro.runner.resilience.ResilientPoolBackend` for
    that — but it does cancel and drain the rest of the batch so no futures
    leak, and this error tells the caller exactly what was lost.
    """

    def __init__(self, chunk_start: int, job_ids: Sequence[int], message: str):
        super().__init__(message)
        self.chunk_start = chunk_start
        self.job_ids = list(job_ids)


class ExecutionBackend(ABC):
    """Runs batches of independent :class:`SimJob`\\ s."""

    #: Whether jobs execute on the caller's own objects.  When ``True``,
    #: training runs mutate the submitted tree directly and no statistics
    #: merge is needed; when ``False``, callers must fold the returned
    #: ``whisker_stats`` deltas into their tree.
    shares_memory: bool = True

    @abstractmethod
    def run_batch(self, jobs: Sequence[SimJob]) -> list[SimJobResult]:
        """Execute every job and return results in submission order."""

    def close(self) -> None:
        """Release any resources (worker processes); idempotent."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class SerialBackend(ExecutionBackend):
    """In-process, sequential execution — the bit-identical default."""

    shares_memory = True

    def run_batch(self, jobs: Sequence[SimJob]) -> list[SimJobResult]:
        return [run_sim_job(job) for job in jobs]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SerialBackend()"


class ProcessPoolBackend(ExecutionBackend):
    """Fan jobs out over a pool of worker processes, a chunk at a time.

    Jobs must be picklable: rule-table jobs always are; ``protocol_factory``
    jobs require a module-level factory (a protocol class qualifies — a
    closure does not).  Before shipping, each distinct tree in the batch is
    replaced by a statistics-free copy (via the JSON serialization round
    trip) so workers start from zeroed counters and their returned deltas
    are pure, and so stale sample reservoirs never cross the process
    boundary.

    Submission is *chunked*: the batch is cut into runs of ``chunk_jobs``
    consecutive jobs and each chunk is one worker task — one pickle of the
    jobs (shared rule tables serialize once per chunk), one simulation loop
    in the worker, one result message back.  That amortizes IPC for the
    sub-100 ms jobs the flattened simulator produces, where per-job dispatch
    overhead would otherwise eat the parallel speedup.  Results stream back
    per chunk as workers finish and are reassembled into submission order.
    ``chunk_jobs=None`` (the default) targets four chunks per worker for
    load balance; pass an explicit value to trade balance against IPC
    (bigger chunks = fewer, larger messages).

    The pool is created lazily on first use and reused across batches;
    call :meth:`close` (or use the backend as a context manager) to reap the
    workers.
    """

    shares_memory = False

    def __init__(self, max_workers: Optional[int] = None, chunk_jobs: Optional[int] = None) -> None:
        if max_workers is not None and max_workers <= 0:
            raise ValueError("max_workers must be positive")
        if chunk_jobs is not None and chunk_jobs <= 0:
            raise ValueError("chunk_jobs must be positive")
        self.max_workers = max_workers if max_workers is not None else available_workers()
        self.chunk_jobs = chunk_jobs
        self._executor: Optional[ProcessPoolExecutor] = None

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            # The initializer arms fault injection (a no-op unless a
            # FaultPlan is installed) and, more importantly, marks the
            # process as a *worker*: injected faults must never fire in the
            # submitting process or in serial fallback paths.
            from repro.runner.faults import mark_worker_process

            self._executor = ProcessPoolExecutor(
                max_workers=self.max_workers, initializer=mark_worker_process
            )
        return self._executor

    def _chunk_size(self, n_jobs: int) -> int:
        if self.chunk_jobs is not None:
            return self.chunk_jobs
        # Four chunks per worker keeps the pool balanced when job durations
        # vary while still amortizing IPC over several jobs per task.
        return max(1, -(-n_jobs // (self.max_workers * 4)))

    def _check_factories_picklable(self, jobs: Sequence[SimJob]) -> None:
        check_factories_picklable(jobs)

    def _prepare(self, jobs: Sequence[SimJob]) -> list[SimJob]:
        return prepare_jobs(jobs)

    def run_batch(self, jobs: Sequence[SimJob]) -> list[SimJobResult]:
        jobs = self._prepare(jobs)
        if not jobs:
            return []
        executor = self._ensure_executor()
        chunk = self._chunk_size(len(jobs))
        futures = {
            executor.submit(_execute_job_chunk, jobs[start : start + chunk]): start
            for start in range(0, len(jobs), chunk)
        }
        # Stream results back chunk by chunk as workers finish, reassembling
        # submission order (run_batch's ordering contract) by chunk offset.
        results: list[Optional[SimJobResult]] = [None] * len(jobs)
        pending = set(futures)
        try:
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    start = futures[future]
                    try:
                        chunk_results = future.result()
                    except Exception as exc:
                        failed = jobs[start : start + chunk]
                        raise ChunkExecutionError(
                            chunk_start=start,
                            job_ids=[job.job_id for job in failed],
                            message=(
                                f"chunk at batch offset {start} (jobs "
                                f"{[job.job_id for job in failed]}) failed in "
                                f"the worker: {exc!r}.  The rest of the batch "
                                "was cancelled; completed results are "
                                "discarded (jobs are pure, resubmitting is "
                                "safe).  For automatic retry/poison-job "
                                "isolation use ResilientPoolBackend "
                                "(backend spec 'process:N:C:retries')."
                            ),
                        ) from exc
                    for offset, result in enumerate(chunk_results):
                        results[start + offset] = result
        except BaseException:
            # Don't leak the rest of the batch: cancel whatever has not
            # started and drain what has, so no future is still running when
            # the error surfaces (the pool stays reusable unless the worker
            # itself died).
            for future in pending:
                future.cancel()
            if pending:
                wait(pending)
            raise
        return results  # type: ignore[return-value]  # every slot filled above

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProcessPoolBackend(max_workers={self.max_workers})"


#: Grammar reminder appended to every spec-format error.
_SPEC_GRAMMAR = (
    "expected 'serial', 'process[:workers[:chunk[:retries]]]' (each field a "
    "positive integer or empty for the default — e.g. 'process', "
    "'process:8', 'process:8:4', or 'process:::3'; a retries field selects "
    "ResilientPoolBackend with per-chunk retry and poison-job isolation), "
    "or 'queue:host:port[:wait]' (QueueBackend: bind the distributed "
    "coordinator on host:port — empty host means "
    "127.0.0.1, port 0 picks an ephemeral port — and degrade to in-process "
    "execution if no worker registers within 'wait' seconds)."
)


def _spec_field(spec: str, field: str, value: str) -> Optional[int]:
    """Parse one ``:``-separated spec field: empty → default, else int > 0."""
    if not value:
        return None
    try:
        parsed = int(value)
    except ValueError:
        raise ValueError(
            f"invalid backend spec {spec!r}: {field} field {value!r} is not "
            f"an integer; {_SPEC_GRAMMAR}"
        ) from None
    if parsed <= 0:
        raise ValueError(
            f"invalid backend spec {spec!r}: {field} must be positive, "
            f"got {parsed}; {_SPEC_GRAMMAR}"
        )
    return parsed


def backend_from_spec(spec: str) -> ExecutionBackend:
    """Build a backend from a CLI-style spec string.

    ``"serial"`` → :class:`SerialBackend`; ``"process"`` →
    :class:`ProcessPoolBackend` with one worker per available CPU;
    ``"process:N"`` → a pool of exactly N workers; ``"process:N:C"`` →
    additionally submit C jobs per worker task (chunk size); and
    ``"process:N:C:R"`` → a
    :class:`~repro.runner.resilience.ResilientPoolBackend` allowing up to R
    attempts per chunk (with the default backoff/timeout policy).  Empty
    fields keep their defaults, so ``"process::8"`` sets only the chunk size
    and ``"process:::3"`` only the retry budget.

    ``"queue:host:port[:wait]"`` → a
    :class:`~repro.runner.distributed.QueueBackend`: bind the distributed
    coordinator on ``host:port`` (empty host → ``127.0.0.1``; port ``0`` →
    an ephemeral port, readable from ``backend.port``) and lease job chunks
    to remote workers started with ``python -m repro.runner.distributed
    worker host:port``.  The optional ``wait`` (float seconds) bounds how
    long a batch tolerates having *no* live workers before degrading to
    in-process serial execution.

    Malformed specs raise a :class:`ValueError` that restates the grammar
    instead of a bare ``int()`` traceback.
    """
    name, _, arg = spec.partition(":")
    if name == "serial":
        if arg:
            raise ValueError(
                f"invalid backend spec {spec!r}: serial takes no argument; "
                f"{_SPEC_GRAMMAR}"
            )
        return SerialBackend()
    if name == "process":
        fields = arg.split(":") if arg else []
        if len(fields) > 3:
            raise ValueError(
                f"invalid backend spec {spec!r}: too many fields "
                f"({len(fields)}); {_SPEC_GRAMMAR}"
            )
        fields += [""] * (3 - len(fields))
        workers = _spec_field(spec, "workers", fields[0])
        chunk = _spec_field(spec, "chunk", fields[1])
        retries = _spec_field(spec, "retries", fields[2])
        if retries is not None:
            # Imported here: resilience subclasses ProcessPoolBackend, so a
            # module-level import would be circular.
            from repro.runner.resilience import ResilientPoolBackend, RetryPolicy

            return ResilientPoolBackend(
                max_workers=workers,
                chunk_jobs=chunk,
                retry=RetryPolicy(max_attempts=retries),
            )
        return ProcessPoolBackend(max_workers=workers, chunk_jobs=chunk)
    if name == "queue":
        fields = arg.split(":") if arg else []
        if len(fields) < 2:
            raise ValueError(
                f"invalid backend spec {spec!r}: queue needs both a host and "
                f"a port ('queue:host:port[:wait]', e.g. "
                f"'queue:127.0.0.1:7000' or 'queue::0'); {_SPEC_GRAMMAR}"
            )
        if len(fields) > 3:
            raise ValueError(
                f"invalid backend spec {spec!r}: too many fields "
                f"({len(fields)}); {_SPEC_GRAMMAR}"
            )
        host = fields[0] or "127.0.0.1"
        try:
            port = int(fields[1])
        except ValueError:
            raise ValueError(
                f"invalid backend spec {spec!r}: port field {fields[1]!r} is "
                f"not an integer; {_SPEC_GRAMMAR}"
            ) from None
        if not 0 <= port <= 65535:
            raise ValueError(
                f"invalid backend spec {spec!r}: port must lie in [0, 65535] "
                f"(0 = ephemeral), got {port}; {_SPEC_GRAMMAR}"
            )
        wait: Optional[float] = None
        if len(fields) == 3 and fields[2]:
            try:
                wait = float(fields[2])
            except ValueError:
                raise ValueError(
                    f"invalid backend spec {spec!r}: wait field {fields[2]!r} "
                    f"is not a number of seconds; {_SPEC_GRAMMAR}"
                ) from None
            if wait <= 0:
                raise ValueError(
                    f"invalid backend spec {spec!r}: wait must be positive "
                    f"seconds, got {wait}; {_SPEC_GRAMMAR}"
                )
        # Imported here: distributed imports this module for prepare_jobs.
        from repro.runner.distributed import QueueBackend

        if wait is not None:
            return QueueBackend(host=host, port=port, worker_wait=wait)
        return QueueBackend(host=host, port=port)
    raise ValueError(
        f"unknown backend spec {spec!r}: family {name!r} is not one of "
        f"'serial', 'process', or 'queue'; {_SPEC_GRAMMAR}"
    )

"""Unit tests for the event scheduler."""

import pytest

from repro.netsim.events import SimulationError


def test_initial_time_is_zero(scheduler):
    assert scheduler.now == 0.0
    assert scheduler.events_processed == 0
    assert scheduler.pending == 0


def test_events_run_in_time_order(scheduler):
    order = []
    scheduler.post(2.0, order.append, "b")
    scheduler.post_entry(1.0, order.append, "a")
    scheduler.post(3.0, lambda: order.append(("c", scheduler.now)))
    scheduler.run_until(10.0)
    assert order == ["a", "b", ("c", 3.0)]


def test_ties_run_in_scheduling_order(scheduler):
    order = []
    for label in "abcde":
        scheduler.post(1.0, order.append, label)
    scheduler.run_until(10.0)
    assert order == list("abcde")


def test_post_after_uses_relative_delay(scheduler):
    seen = []

    def chain():
        scheduler.post_after(0.5, lambda: seen.append(scheduler.now))
        scheduler.post_entry_after(0.25, lambda: seen.append(scheduler.now))

    scheduler.post(1.0, chain)
    scheduler.run_until(10.0)
    assert seen == [1.25, 1.5]


def test_cannot_schedule_in_the_past(scheduler):
    scheduler.post_entry(1.0, lambda: None)
    scheduler.run_until(1.0)
    with pytest.raises(SimulationError):
        scheduler.post_entry(0.5, lambda: None)


def test_post_rejects_past_times(scheduler):
    scheduler.post(1.0, lambda: None)
    scheduler.run_until(1.0)
    with pytest.raises(SimulationError):
        scheduler.post(0.5, lambda: None)
    with pytest.raises(SimulationError):
        scheduler.post_after(-0.1, lambda: None)


def test_rounding_error_below_now_is_clamped(scheduler):
    # Float drift of a picosecond below ``now`` is not "the past": the event
    # runs at ``now`` instead of raising.
    seen = []
    scheduler.post(1.0, lambda: None)
    scheduler.run_until(1.0)
    scheduler.post(1.0 - 1e-13, lambda: seen.append(("post", scheduler.now)))
    scheduler.post_entry(1.0 - 1e-13, lambda: seen.append(("entry", scheduler.now)))
    scheduler.run_until(2.0)
    assert seen == [("post", 1.0), ("entry", 1.0)]


def test_negative_delay_rejected(scheduler):
    with pytest.raises(SimulationError):
        scheduler.post_entry_after(-0.1, lambda: None)
    assert scheduler.pending == 0


def test_cancelled_event_does_not_run(scheduler):
    calls = []
    entry = scheduler.post_entry(1.0, calls.append, "x")
    scheduler.cancel_entry(entry)
    scheduler.run_until(10.0)
    assert calls == []
    assert scheduler.events_processed == 0


def test_run_until_stops_at_deadline(scheduler):
    calls = []
    scheduler.post(1.0, calls.append, 1)
    scheduler.post(2.0, calls.append, 2)
    scheduler.post(5.0, calls.append, 5)
    executed = scheduler.run_until(3.0)
    assert executed == 2
    assert calls == [1, 2]
    assert scheduler.now == 3.0
    # The remaining event still runs later.
    scheduler.run_until(10.0)
    assert calls == [1, 2, 5]


def test_run_until_advances_time_even_with_no_events(scheduler):
    scheduler.run_until(7.5)
    assert scheduler.now == 7.5


def test_run_until_on_an_empty_queue_executes_nothing(scheduler):
    assert scheduler.run_until(1.0) == 0
    assert scheduler.events_processed == 0


def test_cancelled_head_is_skipped(scheduler):
    seen = []
    first = scheduler.post_entry(1.0, seen.append, 1)
    scheduler.post_entry(2.0, lambda: seen.append(scheduler.now))
    scheduler.cancel_entry(first)
    assert scheduler.run_until(10.0) == 1
    assert seen == [2.0]


def test_max_events_guard(scheduler):
    def reschedule():
        scheduler.post_after(0.001, reschedule)

    scheduler.post(0.0, reschedule)
    with pytest.raises(SimulationError):
        scheduler.run_until(100.0, max_events=50)


def test_max_events_equal_to_the_queue_is_not_exceeded(scheduler):
    # A budget that exactly covers every queued event drains the queue; the
    # guard fires only when an event beyond the budget is due.
    for i in range(3):
        scheduler.post(1.0 + i, lambda: None)
    assert scheduler.run_until(10.0, max_events=3) == 3
    assert scheduler.pending == 0


def test_events_processed_counter(scheduler):
    for i in range(5):
        scheduler.post(i * 0.1, lambda: None)
    scheduler.run_until(10.0)
    assert scheduler.events_processed == 5


def test_uncounted_event_is_excluded_from_events_processed(scheduler):
    scheduler.post(1.0, scheduler.uncount_event)
    scheduler.post(2.0, lambda: None)
    assert scheduler.run_until(10.0) == 2
    assert scheduler.events_processed == 1


# ---------------------------------------------------------------------------
# Maintained pending counter and raw-entry cancellation semantics.
# ---------------------------------------------------------------------------
def test_pending_is_maintained_not_scanned(scheduler):
    entries = [scheduler.post_entry(1.0 + i, lambda: None) for i in range(4)]
    assert scheduler.pending == 4
    scheduler.cancel_entry(entries[1])
    assert scheduler.pending == 3
    scheduler.cancel_entry(entries[1])  # double cancel must not double-decrement
    assert scheduler.pending == 3
    scheduler.run_until(1.0)
    assert scheduler.pending == 2
    scheduler.run_until(10.0)
    assert scheduler.pending == 0


def test_cancel_after_execution_is_noop(scheduler):
    calls = []
    entry = scheduler.post_entry(1.0, calls.append, "x")
    scheduler.run_until(10.0)
    assert calls == ["x"]
    scheduler.cancel_entry(entry)  # already ran: must not corrupt the counter
    assert scheduler.pending == 0
    assert scheduler.events_processed == 1


def test_cancelling_the_currently_firing_event_is_safe(scheduler):
    holder = {}

    def fire():
        scheduler.cancel_entry(holder["entry"])

    holder["entry"] = scheduler.post_entry(1.0, fire)
    scheduler.run_until(10.0)
    assert scheduler.events_processed == 1
    assert scheduler.pending == 0


def test_post_and_post_entry_share_the_tiebreak_sequence(scheduler):
    order = []
    scheduler.post(1.0, order.append, "a")
    scheduler.post_entry(1.0, order.append, "b")
    scheduler.post_after(1.0, order.append, "c")
    scheduler.post_entry_after(1.0, order.append, "d")
    scheduler.post(1.0, order.append, "e")
    scheduler.run_until(10.0)
    assert order == ["a", "b", "c", "d", "e"]


def test_post_entry_cancellation(scheduler):
    calls = []
    entry = scheduler.post_entry_after(1.0, calls.append, "x")
    assert scheduler.pending == 1
    scheduler.cancel_entry(entry)
    assert entry[2] is None
    assert scheduler.pending == 0
    scheduler.cancel_entry(entry)  # idempotent
    assert scheduler.pending == 0
    scheduler.run_until(10.0)
    assert calls == []


def test_post_entry_absolute_time(scheduler):
    seen = []
    scheduler.post_entry(2.5, lambda: seen.append(scheduler.now))
    scheduler.run_until(10.0)
    assert seen == [2.5]


def test_cancelled_events_do_not_count_as_executed(scheduler):
    kept = []
    entries = [scheduler.post_entry(1.0 + i * 0.1, kept.append, i) for i in range(10)]
    for entry in entries[::2]:
        scheduler.cancel_entry(entry)
    executed = scheduler.run_until(10.0)
    assert executed == 5
    assert scheduler.events_processed == 5
    assert kept == [1, 3, 5, 7, 9]


def test_tiebreak_is_fifo_across_many_same_time_events(scheduler):
    order = []
    for i in range(50):
        scheduler.post_entry(1.0, order.append, i)
    scheduler.run_until(10.0)
    assert order == list(range(50))


# ---------------------------------------------------------------------------
# Same-time FIFO lane (run-to-completion dispatch): zero-delay posts bypass
# the heap but must keep the global (time, sequence) execution order.
# ---------------------------------------------------------------------------
def test_zero_delay_posts_run_after_events_already_due(scheduler):
    order = []

    def first():
        order.append("first")
        scheduler.post_after(0, order.append, "successor")
        scheduler.post(scheduler.now, order.append, "successor2")

    scheduler.post(1.0, first)
    scheduler.post(1.0, order.append, "second")  # already due at t=1.0
    scheduler.run_until(2.0)
    # Successor work posted at t=1.0 runs after everything already queued
    # for t=1.0, in FIFO order — exactly as if it had been heap-pushed.
    assert order == ["first", "second", "successor", "successor2"]


def test_lane_interleaves_with_heap_by_sequence(scheduler):
    order = []

    def fire():
        scheduler.post_after(0, order.append, "lane1")  # seq n
        scheduler.post(scheduler.now, order.append, "lane2")  # seq n+1, lane too
        scheduler.post_entry(scheduler.now, order.append, "heap")  # seq n+2, heap
        scheduler.post_after(0, order.append, "lane3")  # seq n+3

    scheduler.post(1.0, fire)
    scheduler.run_until(2.0)
    assert order == ["lane1", "lane2", "heap", "lane3"]


def test_lane_entries_count_as_pending_and_processed(scheduler):
    scheduler.post(0.0, lambda: None)
    scheduler.post_after(0, lambda: None)
    assert scheduler.pending == 2
    executed = scheduler.run_until(1.0)
    assert executed == 2
    assert scheduler.pending == 0
    assert scheduler.events_processed == 2


def test_run_until_drains_lane_and_heap_in_order(scheduler):
    order = []
    scheduler.post_after(0, order.append, "a")
    scheduler.post_entry(0.0, order.append, "b")
    scheduler.post(0.0, order.append, "c")
    scheduler.run_until(0.0)
    assert order == ["a", "b", "c"]


def test_lane_survives_max_events_abort(scheduler):
    order = []

    def fire():
        for label in ("x", "y"):
            scheduler.post_after(0, order.append, label)

    scheduler.post(1.0, fire)
    with pytest.raises(SimulationError):
        scheduler.run_until(2.0, max_events=1)
    # The aborted run executed only `fire`; the lane still holds x and y
    # and a later run picks them up in order.
    assert order == []
    assert scheduler.pending == 2
    scheduler.run_until(2.0)
    assert order == ["x", "y"]

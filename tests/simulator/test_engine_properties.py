"""Property-based check of the event engine against a reference model.

:class:`Simulator` keeps the earliest event in a cached front slot and
numbers same-time ties lazily.  Both tricks are invisible only if the
dispatch order is exactly the (time, insertion order) total order.
:class:`ReferenceScheduler` is that order written as plainly as
possible — a list, scanned for its minimum — with the same
``run(until, max_events)``/``stop``/``cancel``/``pending`` semantics.

Hypothesis drives both through identical randomized workloads —
schedules from callbacks, zero delays, same-tick ties, far-future
events, lazy cancellation, stops and chunked runs — and requires the
same dispatch sequence, clock, processed count and pending count.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.simulator.engine import Simulator  # noqa: E402


class ReferenceScheduler:
    """The specification: pop the minimum (time, insertion index)."""

    def __init__(self):
        self.now = 0.0
        self.events_processed = 0
        self._queue = []
        self._inserted = 0
        self._stopped = False

    def schedule(self, delay, fn, *args):
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        ev = [self.now + delay, self._inserted, fn, args]
        self._inserted += 1
        self._queue.append(ev)
        return ev

    def cancel(self, ev):
        ev[2], ev[3] = None, ()

    def stop(self):
        self._stopped = True

    def pending(self):
        return sum(1 for ev in self._queue if ev[2] is not None)

    def run(self, until=None, max_events=None):
        self._stopped = False
        processed = 0
        while self._queue and (max_events is None or processed < max_events):
            ev = min(self._queue, key=lambda e: (e[0], e[1]))
            if until is not None and ev[0] > until:
                break
            self._queue.remove(ev)
            if ev[2] is None:
                continue
            self.now = ev[0]
            ev[2](*ev[3])
            processed += 1
            if self._stopped:
                break
        self.events_processed += processed
        if until is not None and self.now < until and not self._stopped:
            self.now = until


#: One scripted action per dispatched event: which follow-up delays to
#: schedule (empty: leaf event), which earlier handle to cancel (None:
#: no cancellation) and whether to stop the run.  Delays include 0.0
#: (same-tick ties) and huge values (far-future events).
ACTIONS = st.lists(
    st.tuples(
        st.lists(
            st.one_of(
                st.just(0.0),
                st.floats(min_value=0.0, max_value=0.02),
                st.floats(min_value=0.0, max_value=20.0),
                st.floats(min_value=1e5, max_value=1e6),
            ),
            max_size=3,
        ),
        st.one_of(st.none(), st.integers(min_value=0, max_value=200)),
        st.sampled_from((False, False, False, False, True)),
    ),
    min_size=1,
    max_size=60,
)

RUN_PLANS = st.lists(
    st.tuples(
        st.one_of(st.none(), st.floats(min_value=0.0, max_value=2e6)),
        st.one_of(st.none(), st.integers(min_value=1, max_value=300)),
    ),
    min_size=1,
    max_size=4,
)


def execute(sim, actions, run_plan):
    """Replay the scripted workload on ``sim``; return the full trace."""
    log = []
    handles = []
    cursor = [0]

    def fire(tag):
        log.append((sim.now, tag))
        delays, cancel_idx, stop = actions[cursor[0] % len(actions)]
        cursor[0] += 1
        for d in delays:
            handles.append(sim.schedule(d, fire, len(handles)))
        if cancel_idx is not None and handles:
            sim.cancel(handles[cancel_idx % len(handles)])
        if stop:
            sim.stop()

    for i, _ in enumerate(actions):
        handles.append(sim.schedule(i * 0.37 % 5.0, fire, 1000 + i))
    for until, max_events in run_plan:
        # Every chunk gets an event budget: a feedback workload can
        # schedule forever inside any time horizon.
        budget = 400 if max_events is None else min(max_events, 400)
        sim.run(until=until, max_events=budget)
    return log, sim.now, sim.events_processed, sim.pending()


@settings(max_examples=200, deadline=None)
@given(actions=ACTIONS, run_plan=RUN_PLANS)
def test_heap_matches_reference_total_order(actions, run_plan):
    ref = execute(ReferenceScheduler(), actions, run_plan)
    got = execute(Simulator(), actions, run_plan)
    assert got[0] == ref[0], "dispatch (time, order) sequence diverged"
    assert got[1] == ref[1], "final clock diverged"
    assert got[2] == ref[2], "events_processed diverged"
    assert got[3] == ref[3], "pending count diverged"


@settings(max_examples=100, deadline=None)
@given(
    times=st.lists(st.floats(min_value=0.0, max_value=100.0),
                   min_size=1, max_size=80),
    cancel=st.sets(st.integers(min_value=0, max_value=79)),
)
def test_static_schedule_identical_order(times, cancel):
    """Pure insert/cancel/drain — no feedback from callbacks."""
    def run(sim):
        log = []
        handles = [sim.schedule(t, log.append, (t, i))
                   for i, t in enumerate(times)]
        for idx in cancel:
            if idx < len(handles):
                sim.cancel(handles[idx])
        sim.run()
        return log, sim.now, sim.events_processed

    assert run(Simulator()) == run(ReferenceScheduler())


@settings(max_examples=50, deadline=None)
@given(times=st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75]),
                      min_size=2, max_size=40))
def test_same_tick_ties_preserve_insertion_order(times):
    """Heavily tied timestamps must drain in insertion order per tick."""
    def run(sim):
        log = []
        for i, t in enumerate(times):
            sim.schedule(t, log.append, (t, i))
        sim.run()
        return log

    order = run(Simulator())
    assert order == run(ReferenceScheduler())
    # Within each tick, the insertion index must be increasing.
    for tick in set(times):
        idxs = [i for t, i in order if t == tick]
        assert idxs == sorted(idxs)


def test_large_scrambled_schedule_matches_reference():
    """Hundreds of pending events in scrambled order: nothing is lost
    and the drain order is the reference order."""
    def run(sim):
        log = []
        n = 300
        for i in range(n):
            sim.schedule((i * 7919 % n) * 0.01, log.append, i)
        assert sim.pending() == n
        sim.run()
        return log

    log = run(Simulator())
    assert sorted(log) == list(range(300))
    assert log == run(ReferenceScheduler())


def test_cancellation_is_lazy_and_excluded():
    """Cancelled events neither fire nor advance the clock."""
    for make in (Simulator, ReferenceScheduler):
        sim = make()
        log = []
        keep = sim.schedule(1.0, log.append, "keep")
        drop = sim.schedule(2.0, log.append, "drop")
        sim.cancel(drop)
        assert sim.pending() == 1
        sim.run()
        assert log == ["keep"]
        assert sim.now == 1.0, f"{make.__name__} advanced on a ghost"
        assert keep[2] is not None

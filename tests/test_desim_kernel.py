"""Tests for repro.desim.kernel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.desim.kernel import Simulator
from repro.errors import ConfigurationError


class TestScheduling:
    def test_events_run_in_time_order(self):
        simulator = Simulator()
        order = []
        simulator.schedule(3.0, order.append, "c")
        simulator.schedule(1.0, order.append, "a")
        simulator.schedule(2.0, order.append, "b")
        simulator.run()
        assert order == ["a", "b", "c"]

    def test_simultaneous_events_fifo(self):
        simulator = Simulator()
        order = []
        for tag in ("first", "second", "third"):
            simulator.schedule(1.0, order.append, tag)
        simulator.run()
        assert order == ["first", "second", "third"]

    def test_now_advances(self):
        simulator = Simulator()
        seen = []
        simulator.schedule(2.5, lambda: seen.append(simulator.now))
        simulator.run()
        assert seen == [2.5]

    def test_nested_scheduling(self):
        simulator = Simulator()
        log = []

        def outer():
            log.append(("outer", simulator.now))
            simulator.schedule(1.0, inner)

        def inner():
            log.append(("inner", simulator.now))

        simulator.schedule(1.0, outer)
        simulator.run()
        assert log == [("outer", 1.0), ("inner", 2.0)]

    def test_rejects_negative_delay(self):
        simulator = Simulator()
        with pytest.raises(ConfigurationError):
            simulator.schedule(-1.0, lambda: None)

    def test_rejects_scheduling_in_past(self):
        simulator = Simulator()
        simulator.schedule(5.0, lambda: None)
        simulator.run()
        with pytest.raises(ConfigurationError):
            simulator.at(1.0, lambda: None)

    def test_rejects_nan_times(self):
        """A NaN key would corrupt the heap order (a later 0.5 event
        ran after 1.0) and leave the clock at NaN, so every entry point
        refuses it and the queue is left untouched."""
        nan = float("nan")
        simulator = Simulator()
        fired = []
        simulator.at(1.0, fired.append, "a")
        with pytest.raises(ConfigurationError):
            simulator.at(nan, fired.append, "nan")
        with pytest.raises(ConfigurationError):
            simulator.schedule(nan, fired.append, "nan-delay")
        simulator.at(0.5, fired.append, "b")
        with pytest.raises(ConfigurationError):
            simulator.run_until(nan)
        simulator.run()
        assert fired == ["b", "a"]
        assert simulator.now == 1.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        simulator = Simulator()
        fired = []
        event = simulator.schedule(1.0, fired.append, 1)
        event.cancel()
        simulator.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        simulator = Simulator()
        event = simulator.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        simulator.run()


class TestRunUntil:
    def test_stops_at_horizon(self):
        simulator = Simulator()
        fired = []
        simulator.schedule(1.0, fired.append, "early")
        simulator.schedule(10.0, fired.append, "late")
        simulator.run_until(5.0)
        assert fired == ["early"]
        assert simulator.now == 5.0

    def test_backwards_rejected(self):
        simulator = Simulator()
        simulator.run_until(5.0)
        with pytest.raises(ConfigurationError):
            simulator.run_until(1.0)

    def test_event_count(self):
        simulator = Simulator()
        for _ in range(4):
            simulator.schedule(1.0, lambda: None)
        simulator.run()
        assert simulator.events_processed == 4

    def test_max_events_cap(self):
        simulator = Simulator()

        def reschedule():
            simulator.schedule(1.0, reschedule)

        simulator.schedule(1.0, reschedule)
        simulator.run(max_events=10)
        assert simulator.events_processed == 10

    def test_stop_predicate_halts_after_current_event(self):
        simulator = Simulator()
        fired = []
        done = []
        simulator.schedule(1.0, fired.append, "a")
        simulator.schedule(2.0, lambda: (fired.append("b"), done.append(True)))
        simulator.schedule(3.0, fired.append, "c")
        simulator.run_until(10.0, stop=lambda: bool(done))
        assert fired == ["a", "b"]
        # Stopped early: the clock stays at the stopping event, not the
        # horizon, and the remaining event is still pending.
        assert simulator.now == 2.0
        simulator.run_until(10.0)
        assert fired == ["a", "b", "c"]
        assert simulator.now == 10.0

    def test_cancelled_head_does_not_admit_overshoot(self):
        """Regression: a cancelled event with time <= horizon at the top
        of the heap must not let run_until execute the next *live* event
        beyond the horizon.  Processes that cancel-and-resample clocks at
        every state change (the plane-degradation DES) keep the heap full
        of early cancelled entries, so the old head-time check routinely
        executed one post-horizon event -- biasing every point
        observation (``capacity_at``) toward post-event states."""
        simulator = Simulator()
        fired = []
        stale = simulator.schedule(1.0, fired.append, "stale")
        stale.cancel()
        simulator.schedule(10.0, fired.append, "late")
        simulator.run_until(5.0)
        assert fired == []
        assert simulator.now == 5.0
        simulator.run_until(20.0)
        assert fired == ["late"]

    def test_stop_predicate_false_runs_to_horizon(self):
        simulator = Simulator()
        fired = []
        simulator.schedule(1.0, fired.append, "a")
        simulator.run_until(5.0, stop=lambda: False)
        assert fired == ["a"]
        assert simulator.now == 5.0


class TestRunUntilCancelResampleProperty:
    """Pin the PR 7 cancelled-head horizon fix beyond its single
    regression case: under adversarial cancel/resample sequences --
    mass cancellations keeping the heap full of stale entries,
    callbacks that cancel peers and reschedule replacements, ``stop=``
    predicates cutting runs short -- the kernel must match a spec-level
    reference model (a plain sorted list with eager filtering, no lazy
    cancellation heap)."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_kernel_matches_reference_model(self, data):
        n = data.draw(st.integers(min_value=2, max_value=7), label="events")
        times = data.draw(
            st.lists(
                st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
                min_size=n,
                max_size=n,
            ),
            label="times",
        )
        # When event i fires it cancels event cancel_map[i] (-1: none)
        # and, if resample[i] is set, schedules a fresh event at
        # now + resample[i] -- the cancel-and-resample pattern the
        # plane-degradation DES hammers the heap with.
        cancel_map = data.draw(
            st.lists(
                st.integers(min_value=-1, max_value=n - 1),
                min_size=n,
                max_size=n,
            ),
            label="cancel_map",
        )
        resample = data.draw(
            st.lists(
                st.one_of(
                    st.none(),
                    st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
                ),
                min_size=n,
                max_size=n,
            ),
            label="resample",
        )
        precancel = data.draw(
            st.sets(st.integers(min_value=0, max_value=n - 1)),
            label="precancel",
        )
        horizons = sorted(
            data.draw(
                st.lists(
                    st.floats(min_value=0.0, max_value=15.0, allow_nan=False),
                    min_size=1,
                    max_size=3,
                ),
                label="horizons",
            )
        )
        stop_after = data.draw(
            st.one_of(st.none(), st.integers(min_value=1, max_value=2 * n)),
            label="stop_after",
        )

        # --- Kernel side -------------------------------------------------
        simulator = Simulator()
        kernel_fired = []
        handles = {}
        next_id = [n]

        def kernel_callback(i):
            def callback():
                kernel_fired.append((i, simulator.now))
                j = cancel_map[i] if i < n else -1
                if j >= 0:
                    handles[j].cancel()
                extra = resample[i] if i < n else None
                if extra is not None:
                    k = next_id[0]
                    next_id[0] += 1
                    handles[k] = simulator.schedule(extra, kernel_callback(k))
            return callback

        for i, t in enumerate(times):
            handles[i] = simulator.at(t, kernel_callback(i))
        for i in precancel:
            handles[i].cancel()

        # --- Reference model: sorted list, eager filtering ---------------
        model_fired = []
        model_now = [0.0]
        model_events = []  # [time, seq, id, cancelled]
        model_by_id = {}
        model_next = [0, n]  # seq counter, id counter

        def model_add(i, t):
            entry = [t, model_next[0], i, False]
            model_next[0] += 1
            model_events.append(entry)
            model_by_id[i] = entry

        for i, t in enumerate(times):
            model_add(i, t)
        for i in precancel:
            model_by_id[i][3] = True

        def model_run_until(horizon, stop):
            while True:
                live = [e for e in model_events if not e[3] and e[0] <= horizon]
                if not live:
                    model_now[0] = horizon
                    return
                entry = min(live)
                model_events.remove(entry)
                time_, _, i, _ = entry
                model_now[0] = time_
                model_fired.append((i, time_))
                j = cancel_map[i] if i < n else -1
                if j >= 0 and model_by_id[j] is not None:
                    model_by_id[j][3] = True
                extra = resample[i] if i < n else None
                if extra is not None:
                    k = model_next[1]
                    model_next[1] += 1
                    model_add(k, model_now[0] + extra)
                if stop is not None and stop():
                    return

        # --- Drive both through the same horizons ------------------------
        for horizon in horizons:
            if stop_after is None:
                kernel_stop = model_stop = None
            else:
                kernel_stop = lambda: len(kernel_fired) >= stop_after
                model_stop = lambda: len(model_fired) >= stop_after
            simulator.run_until(horizon, stop=kernel_stop)
            model_run_until(horizon, model_stop)
            assert kernel_fired == model_fired, (
                f"divergence at horizon {horizon}: kernel {kernel_fired} "
                f"vs model {model_fired}"
            )
            assert simulator.now == model_now[0]

"""Metrics: delay statistics, gating, snapshots."""

import numpy as np
import pytest

from repro.core.metrics import (
    DelayStats,
    MasterMetrics,
    MeasurementWindow,
    SlaveMetrics,
)


class TestDelayStats:
    def test_record_and_mean(self):
        stats = DelayStats()
        stats.record(np.array([1.0, 2.0, 3.0]))
        assert stats.count == 3
        assert stats.mean == pytest.approx(2.0)
        assert stats.minimum == 1.0
        assert stats.maximum == 3.0

    def test_empty_record_is_noop(self):
        stats = DelayStats()
        stats.record(np.empty(0))
        assert stats.count == 0
        assert stats.mean == 0.0

    def test_merge(self):
        a, b = DelayStats(), DelayStats()
        a.record(np.array([1.0]))
        b.record(np.array([3.0]))
        a.merge(b)
        assert a.count == 2
        assert a.mean == pytest.approx(2.0)
        assert a.maximum == 3.0

    def test_percentile_approximation(self):
        stats = DelayStats()
        stats.record(np.full(99, 0.01))
        stats.record(np.full(1, 100.0))
        assert stats.percentile(50) == pytest.approx(0.01, rel=0.3)
        assert stats.percentile(99.9) > 50

    def test_percentile_matches_numpy_within_bin_resolution(self):
        # The histogram has 10 log-spaced bins per decade, so each bin
        # spans a factor of 10**0.1 ≈ 1.26; interpolated percentiles
        # must land within one bin width of the exact value.
        rng = np.random.default_rng(42)
        samples = rng.lognormal(mean=0.0, sigma=1.5, size=5000)
        stats = DelayStats()
        stats.record(samples)
        for q in (10, 25, 50, 75, 90, 99):
            exact = float(np.percentile(samples, q))
            assert stats.percentile(q) == pytest.approx(exact, rel=0.3)

    def test_percentile_interpolates_within_bin(self):
        # All mass in one bin: the answer must still move with q
        # instead of snapping to the bin edge.
        stats = DelayStats()
        stats.record(np.full(100, 5.0))
        assert stats.percentile(50) == pytest.approx(5.0)

    def test_percentile_q100_returns_exact_maximum(self):
        stats = DelayStats()
        stats.record(np.array([0.2, 1.0, 7.3]))
        assert stats.percentile(100) == 7.3
        assert stats.percentile(150) == 7.3

    def test_percentile_clamped_to_observed_range(self):
        stats = DelayStats()
        stats.record(np.array([2.0, 3.0]))
        assert stats.percentile(0) >= 2.0
        assert stats.percentile(99) <= 3.0

    def test_percentile_empty(self):
        assert DelayStats().percentile(50) == 0.0
        assert DelayStats().percentile(100) == 0.0

    def test_merge_with_empty_side(self):
        filled, empty = DelayStats(), DelayStats()
        filled.record(np.array([1.0, 2.0]))
        filled.merge(empty)
        assert filled.count == 2
        assert filled.mean == pytest.approx(1.5)
        assert filled.minimum == 1.0
        assert filled.maximum == 2.0

        # Empty absorbing non-empty must adopt its extrema (the empty
        # side's minimum sentinel is +inf, maximum sentinel is 0).
        other = DelayStats()
        other.merge(filled)
        assert other.count == 2
        assert other.minimum == 1.0
        assert other.maximum == 2.0
        assert other.percentile(100) == 2.0

    def test_merge_two_empty(self):
        a, b = DelayStats(), DelayStats()
        a.merge(b)
        assert a.count == 0
        assert a.mean == 0.0
        assert a.percentile(50) == 0.0

    def test_histogram_total(self):
        stats = DelayStats()
        stats.record(np.random.default_rng(0).uniform(0.001, 500, 1000))
        assert stats.histogram.sum() == 1000

    def test_snapshot_keys(self):
        stats = DelayStats()
        stats.record(np.array([0.5]))
        snap = stats.snapshot()
        assert set(snap) == {"count", "mean", "min", "max", "p50", "p99"}


class TestMeasurementWindow:
    def test_active(self):
        gate = MeasurementWindow(10.0, 20.0)
        assert not gate.active(5.0)
        assert gate.active(10.0)
        assert gate.active(20.0)
        assert not gate.active(21.0)

    def test_overlap(self):
        gate = MeasurementWindow(10.0, 20.0)
        assert gate.overlap(0.0, 5.0) == 0.0
        assert gate.overlap(5.0, 15.0) == 5.0
        assert gate.overlap(12.0, 30.0) == 8.0
        assert gate.overlap(0.0, 30.0) == 10.0


class TestSlaveMetricsGating:
    def test_outputs_before_warmup_ignored(self):
        metrics = SlaveMetrics(1, MeasurementWindow(10.0))
        metrics.record_outputs(5.0, np.array([4.0]))
        assert metrics.delays.count == 0
        metrics.record_outputs(15.0, np.array([14.0]))
        assert metrics.delays.count == 1

    def test_cpu_charge_clipped_to_gate(self):
        metrics = SlaveMetrics(1, MeasurementWindow(10.0, 20.0))
        metrics.charge_cpu("probe", 8.0, 12.0)  # half inside
        assert metrics.cpu_probe == pytest.approx(2.0)
        metrics.charge_cpu("probe", 0.0, 5.0)  # fully outside
        assert metrics.cpu_probe == pytest.approx(2.0)

    def test_cpu_kinds_accumulate_separately(self):
        metrics = SlaveMetrics(1, MeasurementWindow(0.0))
        metrics.charge_cpu("probe", 0.0, 1.0)
        metrics.charge_cpu("expire", 1.0, 1.5)
        metrics.charge_cpu("tune", 1.5, 1.75)
        metrics.charge_cpu("state_move", 2.0, 2.5)
        assert metrics.cpu_total == pytest.approx(1.0 + 0.5 + 0.25 + 0.5)

    def test_unknown_cpu_kind_rejected(self):
        metrics = SlaveMetrics(1, MeasurementWindow(0.0))
        with pytest.raises(ValueError):
            metrics.charge_cpu("bogus", 0.0, 1.0)

    def test_comm_recording(self):
        metrics = SlaveMetrics(1, MeasurementWindow(0.0))
        metrics.record_comm(0.0, 2.0, 4096, sent=False)
        assert metrics.comm_time == pytest.approx(2.0)
        assert metrics.bytes_received == 4096
        assert metrics.messages == 1

    def test_pop_unreported_resets(self):
        metrics = SlaveMetrics(1, MeasurementWindow(0.0))
        metrics.record_outputs(1.0, np.array([0.5]))
        first = metrics.pop_unreported()
        assert first.count == 1
        assert metrics.pop_unreported().count == 0
        # Local (lifetime) stats unaffected by popping.
        assert metrics.delays.count == 1

    def test_record_outputs_bins_once_for_both_accumulators(self):
        """Delay vectors are stashed and binned once per read into the
        lifetime and the unreported stats.  Count, extremes and
        histogram must equal, exactly, what recording each vector into
        each accumulator would have given; the total is the same sum in
        another order."""
        rng = np.random.default_rng(3)
        metrics = SlaveMetrics(1, MeasurementWindow(0.0))
        lifetime, unreported = DelayStats(), DelayStats()

        def same(a, b):
            assert (a.count, a.minimum, a.maximum) == (
                b.count, b.minimum, b.maximum
            )
            assert a.histogram.tolist() == b.histogram.tolist()
            assert a.total == pytest.approx(b.total, rel=1e-12)

        for step in range(6):
            emit = 100.0 + step
            newer = emit - rng.exponential(0.7, size=int(rng.integers(1, 50)))
            metrics.record_outputs(emit, newer)
            for stats in (lifetime, unreported):
                stats.record(emit - newer)
            if step == 2:
                same(metrics.pop_unreported(), unreported)
                unreported = DelayStats()
            if step == 4:  # a read between two reports bins what it finds
                same(metrics.delays, lifetime)
        same(metrics.delays, lifetime)
        same(metrics.pop_unreported(), unreported)

    def test_reports_race_recording_without_losing_outputs(self):
        """The loop records outputs and pops the unreported stats for
        the collector while the admin endpoint's thread reads the delay
        view.  Every output must land in exactly one report, and every
        view the reader takes must be a consistent one: no output
        binned twice, none missed, none counted before it exists."""
        import sys
        import threading
        import time

        metrics = SlaveMetrics(1, MeasurementWindow(0.0))
        n_records, per_record = 100_000, 3
        newer = np.zeros(per_record)
        errors: list[BaseException] = []
        recorded = threading.Event()
        reported: list[int] = []
        give_up = time.monotonic() + 60.0

        def record_and_report():
            try:
                for i in range(n_records):
                    if time.monotonic() > give_up:
                        raise TimeoutError("recording loop overran its bound")
                    metrics.record_outputs(1.0 + i, newer)
                    if i % 97 == 0:
                        reported.append(metrics.pop_unreported().count)
            except BaseException as error:  # noqa: BLE001 - asserted below
                errors.append(error)
            finally:
                recorded.set()

        def read():
            try:
                seen = 0
                while not recorded.is_set():
                    if time.monotonic() > give_up:
                        raise TimeoutError("read loop overran its bound")
                    emitted = metrics.outputs_emitted
                    view = metrics.delays
                    # Whole outputs only, never more than exist by now,
                    # never fewer than an earlier view saw.
                    assert view.count % per_record == 0
                    assert seen <= view.count <= metrics.outputs_emitted
                    assert view.count >= emitted - per_record
                    assert int(view.histogram.sum()) == view.count
                    seen = view.count
            except BaseException as error:  # noqa: BLE001 - asserted below
                errors.append(error)

        threads = [
            threading.Thread(target=record_and_report, daemon=True),
            threading.Thread(target=read, daemon=True),
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=90.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        reported.append(metrics.pop_unreported().count)  # the final flush
        assert sum(reported) == n_records * per_record
        assert metrics.delays.count == n_records * per_record
        assert metrics.outputs_emitted == n_records * per_record

    def test_window_sampling_tracks_max(self):
        metrics = SlaveMetrics(1, MeasurementWindow(0.0))
        metrics.sample_window(1.0, 100)
        metrics.sample_window(2.0, 500)
        metrics.sample_window(3.0, 300)
        assert metrics.max_window_bytes == 500

    def test_comm_span_straddling_gate_start(self):
        # A transfer beginning before warm-up and ending inside the
        # window counts only its inside portion; the message itself is
        # attributed to its completion time, which is inside.
        metrics = SlaveMetrics(1, MeasurementWindow(10.0, 20.0))
        metrics.record_comm(8.0, 12.0, 1000, sent=True)
        assert metrics.comm_time == pytest.approx(2.0)
        assert metrics.messages == 1
        assert metrics.bytes_sent == 1000

    def test_comm_span_straddling_gate_stop(self):
        # Completion after the window: the overlap still counts but the
        # message/bytes do not (completion time is outside).
        metrics = SlaveMetrics(1, MeasurementWindow(10.0, 20.0))
        metrics.record_comm(19.0, 21.0, 1000, sent=False)
        assert metrics.comm_time == pytest.approx(1.0)
        assert metrics.messages == 0
        assert metrics.bytes_received == 0

    def test_comm_span_fully_outside(self):
        metrics = SlaveMetrics(1, MeasurementWindow(10.0, 20.0))
        metrics.record_comm(21.0, 25.0, 1000, sent=True)
        assert metrics.comm_time == 0.0
        assert metrics.messages == 0

    def test_idle_span_straddling_gate(self):
        metrics = SlaveMetrics(1, MeasurementWindow(10.0, 20.0))
        metrics.record_idle(5.0, 15.0)
        metrics.record_idle(18.0, 30.0)
        metrics.record_idle(0.0, 9.0)
        assert metrics.idle_time == pytest.approx(5.0 + 2.0)

    def test_occupancy_last_sample_wins_ungated(self):
        metrics = SlaveMetrics(1, MeasurementWindow(10.0, 20.0))
        metrics.sample_occupancy(1.0, 0.9)  # before the gate opens
        metrics.sample_occupancy(2.0, 0.4)
        assert metrics.occupancy == 0.4
        assert metrics.series()["occupancy"] == {"kind": "gauge", "value": 0.4}

    def test_snapshot_contains_everything(self):
        metrics = SlaveMetrics(1, MeasurementWindow(0.0))
        snap = metrics.snapshot()
        for key in (
            "cpu_total",
            "comm_time",
            "idle_time",
            "max_window_bytes",
            "outputs",
            "splits",
            "merges",
            "delay",
        ):
            assert key in snap


class TestStepGating:
    """A retired run of work units is charged and recorded unit by unit:
    what ``charge_cpu_units`` / array ``record_outputs`` leave is to the
    bit what one scalar call per unit leaves."""

    #: Unit ``i`` runs from ``EDGES[i]`` to ``EDGES[i + 1]`` and emits
    #: ``ROWS[i]`` output rows.
    EDGES = np.add.accumulate([9.2, 0.3, 0.30000000000000004, 0.7, 0.1, 0.45])
    ROWS = [2, 0, 3, 1, 2]

    def per_unit(self, gate, kind="probe"):
        """Reference: one ``charge_cpu`` + one ``record_outputs`` a unit."""
        m = SlaveMetrics(0, gate)
        edges = self.EDGES.tolist()
        for i, n in enumerate(self.ROWS):
            m.charge_cpu(kind, edges[i], edges[i + 1])
            m.record_outputs(edges[i + 1], np.full(n, edges[i] - 1.0))
        return m

    def stepwise(self, gate, cuts, kind="probe"):
        """The same units retired in prefixes ending at *cuts*."""
        m = SlaveMetrics(0, gate)
        rows, lo = np.asarray(self.ROWS), 0
        for hi in cuts:
            ends = self.EDGES[lo + 1 : hi + 1]
            m.charge_cpu_units(kind, float(self.EDGES[lo]), ends)
            m.record_outputs(
                np.repeat(ends, rows[lo:hi]),
                np.repeat(self.EDGES[lo:hi] - 1.0, rows[lo:hi]),
            )
            lo = hi
        return m

    @staticmethod
    def same(a, b):
        assert (a.cpu_probe, a.cpu_expire, a.cpu_tuning) == (
            b.cpu_probe, b.cpu_expire, b.cpu_tuning
        )
        assert a.outputs_emitted == b.outputs_emitted
        assert a.delays.total == b.delays.total
        assert a.delays.snapshot() == b.delays.snapshot()
        assert a.delays.histogram.tolist() == b.delays.histogram.tolist()

    @pytest.mark.parametrize("cuts", [[5], [1, 2, 3, 4, 5], [2, 5], [3, 4, 5]])
    def test_step_straddling_gate_start(self, cuts):
        # The gate opens in the middle of unit 1 (9.5 .. 9.8).
        gate = MeasurementWindow(9.65)
        step = self.stepwise(gate, cuts)
        self.same(step, self.per_unit(gate))
        # Unit 0 ends before the gate: charges nothing, records nothing.
        # Unit 1 straddles it: charges its overlap only (and emits, at
        # 9.8, inside — but it has no rows).
        edges = self.EDGES.tolist()
        expected = edges[2] - 9.65
        for a, b in zip(edges[2:], edges[3:]):
            expected += b - a
        assert step.cpu_probe == expected
        assert step.outputs_emitted == sum(self.ROWS[1:])

    @pytest.mark.parametrize("cuts", [[5], [1, 2, 3, 4, 5], [2, 5], [4, 5]])
    def test_step_straddling_gate_stop(self, cuts):
        # The gate closes in the middle of unit 3 (10.1 .. 10.8).
        gate = MeasurementWindow(0.0, 10.5)
        step = self.stepwise(gate, cuts)
        self.same(step, self.per_unit(gate))
        edges = self.EDGES.tolist()
        expected = 0.0
        for a, b in zip(edges[:3], edges[1:4]):
            expected += b - a
        expected += 10.5 - edges[3]
        assert step.cpu_probe == expected
        # Unit 3 emits at 10.8, past the gate: its row is not recorded,
        # nor are unit 4's.
        assert step.outputs_emitted == sum(self.ROWS[:3])

    def test_step_wholly_outside_charges_and_records_nothing(self):
        step = self.stepwise(MeasurementWindow(50.0), [5], kind="tune")
        assert (step.cpu_tuning, step.outputs_emitted) == (0.0, 0)
        assert step.delays.count == 0

    def test_kinds_accrue_to_their_own_accounts(self):
        gate = MeasurementWindow(0.0)
        for kind, attr in (
            ("probe", "cpu_probe"), ("expire", "cpu_expire"), ("tune", "cpu_tuning")
        ):
            step, ref = self.stepwise(gate, [2, 5], kind), self.per_unit(gate, kind)
            assert getattr(step, attr) == getattr(ref, attr) > 0.0
            assert step.cpu_total == getattr(step, attr)
        with pytest.raises(ValueError):
            SlaveMetrics(0, gate).charge_cpu_units("bogus", 0.0, np.array([1.0]))


class TestMasterMetrics:
    def test_buffer_sampling(self):
        metrics = MasterMetrics(MeasurementWindow(0.0))
        metrics.sample_buffer(1.0, 1000)
        metrics.sample_buffer(2.0, 400)
        assert metrics.max_buffer_bytes == 1000

    def test_comm_gated(self):
        metrics = MasterMetrics(MeasurementWindow(10.0))
        metrics.record_comm(0.0, 1.0, 64, sent=True)
        assert metrics.comm_time == 0.0
        assert metrics.messages == 0

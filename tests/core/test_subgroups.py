"""Sub-group communication scheduling and the master-buffer bound."""

import pytest

from repro.config import SystemConfig
from repro.core.subgroups import (
    SlotSchedule,
    build_schedules,
    effective_groups,
    group_of,
    groups_in_order,
    is_reorg_epoch,
    max_master_buffer_bytes,
    round_slots,
)


class TestGrouping:
    def test_single_group(self):
        assert group_of(0, 4, 1) == 0
        assert group_of(3, 4, 1) == 0

    def test_even_split(self):
        groups = [group_of(i, 4, 2) for i in range(4)]
        assert groups == [0, 0, 1, 1]

    def test_uneven_split(self):
        groups = [group_of(i, 5, 2) for i in range(5)]
        assert groups == [0, 0, 0, 1, 1]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            group_of(4, 4, 2)

    def test_effective_groups_clamped(self):
        assert effective_groups(2, 4) == 2
        assert effective_groups(0, 4) == 1
        assert effective_groups(5, 2) == 2


class TestSchedules:
    def test_slot_offsets(self):
        schedules = build_schedules([10, 11, 12, 13], 2, dist_epoch=2.0)
        assert schedules[10].slot_offset == 0.0
        assert schedules[11].slot_offset == 0.0
        assert schedules[12].slot_offset == 1.0
        assert schedules[13].slot_offset == 1.0

    def test_groups_in_order_flattens_consistently(self):
        active = [10, 11, 12, 13, 14]
        groups = groups_in_order(active, 2)
        assert [s for g in groups for s in g] == active
        schedules = build_schedules(active, 2, 2.0)
        for g, members in enumerate(groups):
            for m in members:
                assert schedules[m].group_index == g

    def test_single_member(self):
        schedules = build_schedules([5], 4, 2.0)
        assert schedules[5] == SlotSchedule(0, 1, 2.0)


class TestRoundSlots:
    @pytest.fixture
    def cfg(self):
        # dist_epoch 2 s, a reorganization every second round.
        return SystemConfig.paper_defaults().scaled(0.01).with_(
            reorg_epoch=4.0, num_subgroups=2
        )

    def test_reorg_rounds_recur_every_reorg_epoch(self, cfg):
        assert [is_reorg_epoch(cfg, k) for k in range(6)] == [
            False, True, False, True, False, True,
        ]

    def test_distribution_round_walks_groups_in_slot_order(self, cfg):
        slots = round_slots(cfg, 2, [10, 11, 12, 13, 14])
        assert slots == [(6.0, [10, 11, 12]), (7.0, [13, 14])]

    def test_reorganization_round_is_one_slot_of_everyone(self, cfg):
        assert round_slots(cfg, 3, [10, 11, 12]) == [(8.0, [10, 11, 12])]

    def test_empty_active_set_still_has_a_slot(self, cfg):
        assert round_slots(cfg, 0, []) == [(2.0, [])]


class TestBufferBound:
    def test_single_group_is_full_epoch(self):
        # ng=1: M_buf per stream = r*td/2*(1+1) = r*td.
        bound = max_master_buffer_bytes(1500.0, 2.0, 1, 64, n_streams=1)
        assert bound == pytest.approx(1500 * 2 * 64)

    def test_many_groups_halve_the_buffer(self):
        one = max_master_buffer_bytes(1500.0, 2.0, 1, 64)
        many = max_master_buffer_bytes(1500.0, 2.0, 1000, 64)
        assert many == pytest.approx(one / 2, rel=0.01)

    def test_paper_equation_shape(self):
        # M_buf = (r*td/2)(1 + 1/ng) per stream.
        for ng in (1, 2, 4, 8):
            bound = max_master_buffer_bytes(1000.0, 2.0, ng, 64, n_streams=2)
            expected = 1000 * 2.0 / 2 * (1 + 1 / ng) * 64 * 2
            assert bound == pytest.approx(expected)

"""Sub-group communication (Section V-B).

The active slaves are divided into ``ng`` groups; the distribution
epoch is divided into ``ng`` slots, and a group's slaves exchange with
the master only inside their slot.  This both shortens the worst-case
wait of a slave for its tuples and bounds the master's buffer at::

    M_buf = (r * t_d / 2) * (1 + 1 / ng)

per stream (the paper's equation), versus ``r * t_d`` with a single
group.
"""

from __future__ import annotations

import typing as t

if t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config import SystemConfig


class SlotSchedule(t.NamedTuple):
    """One slave's communication slot within the distribution epoch."""

    group_index: int
    n_groups: int
    dist_epoch: float

    @property
    def slot_offset(self) -> float:
        """Offset of this slave's slot from the epoch boundary."""
        return self.group_index * (self.dist_epoch / self.n_groups)


def effective_groups(n_active: int, n_subgroups: int) -> int:
    return max(1, min(n_subgroups, n_active))


def group_of(position: int, n_active: int, n_groups: int) -> int:
    """Contiguous chunking: slave at *position* (in sorted active order)
    belongs to this group."""
    if not 0 <= position < n_active:
        raise ValueError(f"position {position} out of range for {n_active} actives")
    return position * n_groups // n_active


def build_schedules(
    active_sorted: t.Sequence[int], n_subgroups: int, dist_epoch: float
) -> dict[int, SlotSchedule]:
    """Slot schedule for every active slave (keyed by node id)."""
    ng = effective_groups(len(active_sorted), n_subgroups)
    return {
        node: SlotSchedule(group_of(i, len(active_sorted), ng), ng, dist_epoch)
        for i, node in enumerate(active_sorted)
    }


def groups_in_order(
    active_sorted: t.Sequence[int], n_subgroups: int
) -> list[list[int]]:
    """Active slaves partitioned into their groups, in slot order."""
    ng = effective_groups(len(active_sorted), n_subgroups)
    groups: list[list[int]] = [[] for _ in range(ng)]
    for i, node in enumerate(active_sorted):
        groups[group_of(i, len(active_sorted), ng)].append(node)
    return groups


def is_reorg_epoch(cfg: SystemConfig, k: int) -> bool:
    """Whether round *k* is a reorganization round."""
    return (k + 1) % max(1, round(cfg.reorg_epoch / cfg.dist_epoch)) == 0


def round_slots(
    cfg: SystemConfig, k: int, members: t.Sequence[int]
) -> list[tuple[float, list[int]]]:
    """Start time and slaves of each communication slot of round *k*.

    A distribution round walks *members*' groups in slot order; a
    reorganization round is one slot, at the epoch boundary, holding
    every slave in *members*.
    """
    t_round = (k + 1) * cfg.dist_epoch
    if is_reorg_epoch(cfg, k):
        return [(t_round, list(members))]
    groups = groups_in_order(members, cfg.num_subgroups)
    slot_len = cfg.dist_epoch / len(groups)
    return [(t_round + g * slot_len, group) for g, group in enumerate(groups)]


def max_master_buffer_bytes(
    rate: float, dist_epoch: float, n_groups: int, tuple_bytes: int,
    n_streams: int = 2,
) -> float:
    """The paper's analytic bound on the master's buffer (all streams)."""
    per_stream = rate * dist_epoch / 2.0 * (1.0 + 1.0 / n_groups)
    return per_stream * tuple_bytes * n_streams

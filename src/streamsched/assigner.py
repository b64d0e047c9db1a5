"""Pass 2: replay the job stream against a plan and emit a feasible schedule.

Each incoming job is matched to a remaining (machine, group) slot by rounded
processing time; when a bucket's slots are exhausted (or the job rounds below
every group) the job joins the small pile on machine 1. Working space is the
plan's m-by-mu counters, a map from the buckets seen to their groups and the
single in-flight job.

Large jobs start exactly at their slot time. The slots are laid out on the
profiles pass 2 is given, and a job's true length never exceeds the rounded
length its slot was sized for, so slots are pairwise disjoint regardless of
arrival order. Small jobs fill the head reservation on machine 1; any small
that no longer fits ahead of machine 1's first large slot is appended past
the end of its slot timeline instead.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .model import MachineProfile, PlacedJob, Schedule, work_to_time
from .planner import Plan
from .sketch import bucket_index, rounded_value


class StreamMismatchError(Exception):
    """Pass-2 job count differs from the plan's n."""


@dataclass
class EmitReport:
    n_jobs: int = 0
    small_placed: int = 0
    # jobs that rounded into a plan bucket whose slots were already consumed;
    # nonzero means pass 1 and pass 2 disagreed near the largeness threshold
    bucket_overflow: int = 0
    # small jobs that no longer fit ahead of machine 1's first large slot
    reservation_overflow: int = 0

    @property
    def mismatch(self) -> bool:
        return self.bucket_overflow > 0


class EmitterState:
    """Mutable pass-2 cursors; O(m * number of groups) counters.

    Slots are kept in work coordinates: `slot_work[i][g]` is the work machine
    i has delivered when the next unused slot of group g starts. Groups run
    back to back in size order, machine 1's after the small-job reservation
    at its head, so the table is built from the plan's counts alone."""

    def __init__(self, plan: Plan, profiles: tuple[MachineProfile, ...]):
        self.plan = plan
        self.group_by_rp = {rp: g for g, (rp, _nk) in enumerate(plan.groups)}
        self.group_by_bucket: dict[int, int | None] = {}  # filled as buckets arrive
        self.remaining = [list(row) for row in plan.counts]
        # per group: the first machine that may still have a slot of it
        self.next_machine = [0] * len(plan.groups)
        self.slot_work = []
        ends = []
        for i, row in enumerate(plan.counts):
            w = profiles[0].work_at(plan.small_reservation) if i == 0 else 0.0
            starts = []
            for (rp, _nk), c in zip(plan.groups, row):
                starts.append(w)
                w += c * rp
            self.slot_work.append(starts)
            ends.append(w)
        self.small_cursor = 0.0
        # smalls must finish before machine 1's first large slot; the ones
        # that do not fit go past the end of its timeline
        self.head_limit = plan.small_reservation if any(plan.counts[0]) else math.inf
        self.tail_cursor = profiles[0].time_at(ends[0])

    def bucket_group(self, k: int):
        """The plan group of bucket k, or None when no group has its rounded size."""
        if k not in self.group_by_bucket:
            rp = rounded_value(k, self.plan.tau)
            self.group_by_bucket[k] = self.group_by_rp.get(rp)
        return self.group_by_bucket[k]

    def free_machine(self, g: int):
        """First machine with an unconsumed slot of group g, else None."""
        remaining = self.remaining
        i = self.next_machine[g]
        while i < len(remaining) and remaining[i][g] == 0:
            i += 1
        self.next_machine[g] = i
        return i if i < len(remaining) else None


def emit(
    plan: Plan, stream, profiles: tuple[MachineProfile, ...]
) -> tuple[Schedule, EmitReport]:
    """Place every job of the stream; the stream must be the pass-1 multiset
    (any order). A large job starts where its slot starts, G^-1 of the slot's
    work coordinate, and completes after its true processing time; the slot
    coordinate then advances by the rounded length, to the next slot.
    Raises ValueError when the profile count differs from the plan's."""
    if len(profiles) != len(plan.counts):
        raise ValueError(
            f"plan is for {len(plan.counts)} machines, got {len(profiles)} profiles"
        )
    state = EmitterState(plan, profiles)
    report = EmitReport()
    placements = []
    for job_id, p in enumerate(stream, start=1):
        report.n_jobs += 1
        if p < 1:
            raise ValueError("processing time must be >= 1")
        g = state.bucket_group(bucket_index(p, plan.tau))
        if g is not None and state.free_machine(g) is None:
            report.bucket_overflow += 1
            g = None
        if g is None:
            placements.append(_place_small(state, report, job_id, p, profiles[0]))
        else:
            placements.append(_place_large(state, job_id, p, g, profiles))
    if report.n_jobs != plan.n:
        raise StreamMismatchError(
            f"pass 2 saw {report.n_jobs} jobs, plan expects {plan.n}"
        )
    return Schedule(tuple(placements)), report


def _place_large(state, job_id, p, g, profiles):
    machine = state.next_machine[g]
    profile = profiles[machine]
    w = state.slot_work[machine][g]
    start = profile.time_at(w)
    # the completion is walked from the start, not read off G^-1(w + p):
    # deep in a timeline the difference of two G^-1 values loses the digits
    # the evaluator needs to see exactly p units of work
    completion = work_to_time(profile, start, float(p))
    state.slot_work[machine][g] = w + state.plan.groups[g][0]
    state.remaining[machine][g] -= 1
    return PlacedJob(job_id, profile.machine_index, start, completion)


def _place_small(state, report, job_id, p, profile):
    start = state.small_cursor
    completion = work_to_time(profile, start, float(p))
    if completion > state.head_limit:
        # would run into machine 1's first large slot: append past the
        # planned horizon instead
        report.reservation_overflow += 1
        start = state.tail_cursor
        completion = work_to_time(profile, start, float(p))
        state.tail_cursor = completion
    else:
        state.small_cursor = completion
    report.small_placed += 1
    return PlacedJob(job_id, profile.machine_index, start, completion)

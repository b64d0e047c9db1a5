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
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

from .model import MachineProfile, PlacedJob, Schedule, work_to_time
from .planner import Plan
from .sketch import FLOAT_EXACT, power_table, rounded_value


class StreamMismatchError(Exception):
    """Pass-2 job count differs from the plan's n."""


@dataclass
class EmitReport:
    small_placed: int = 0
    # jobs that rounded into a plan bucket whose slots were already consumed;
    # nonzero means pass 1 and pass 2 disagreed near the largeness threshold
    bucket_overflow: int = 0
    # small jobs that no longer fit ahead of machine 1's first large slot
    reservation_overflow: int = 0

    @property
    def mismatch(self) -> bool:
        return self.bucket_overflow > 0


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
    tau, groups, m = plan.tau, plan.groups, len(profiles)
    if tau <= 0:
        raise ValueError("tau must be > 0")
    first = profiles[0]
    # group_of[k]: the group of bucket k, None when no group has its rounded
    # value; every bucket from len(group_of) up rounds past the largest group
    group_by_rp = {rp: g for g, (rp, _nk) in enumerate(groups)}
    largest = max(group_by_rp, default=0)
    group_of = [None]  # there is no bucket 0
    while (rp := rounded_value(len(group_of), tau)) <= largest:
        group_of.append(group_by_rp.get(rp))
    table = power_table(tau, len(group_of))
    top = table[len(group_of) - 1]  # the p below it have a bucket in group_of
    rps = [rp for rp, _nk in groups]
    remaining = [list(row) for row in plan.counts]
    # free[g]: the first machine with an unused slot of group g, m when there
    # is none; slots are used up in machine order, so it only moves forward
    free = [
        next((i for i in range(m) if remaining[i][g]), m) for g in range(len(groups))
    ]
    # slot_work[i][g]: the work machine i has delivered when its next unused
    # slot of group g starts. Groups run back to back in size order, machine
    # 1's after the small-job reservation at its head; the extra last entry
    # is where the machine's timeline ends.
    heads = [first.work_at(plan.small_reservation)] + [0.0] * (m - 1)
    slot_work = [
        list(accumulate((c * rp for rp, c in zip(rps, row)), initial=w))
        for w, row in zip(heads, plan.counts)
    ]
    # slot_piece[i][g]: the profile interval holding slot_work[i][g], the one
    # time_at() would bisect for; it is walked forward as the slot advances
    slot_piece = [
        [bisect_right(prof._works, w) - 1 for w in row]
        for prof, row in zip(profiles, slot_work)
    ]
    # smalls must finish before machine 1's first large slot; the ones that
    # do not fit go past the end of its timeline
    small_cursor = 0.0
    head_limit = plan.small_reservation if any(plan.counts[0]) else math.inf
    tail_cursor = first.time_at(slot_work[0][-1])
    small_placed = bucket_overflow = reservation_overflow = 0
    placements = []
    place = placements.append
    new = tuple.__new__  # PlacedJob(...) without its Python-level __new__
    job_id = 0
    for job_id, p in enumerate(stream, start=1):
        if p < 1:
            raise ValueError("processing time must be >= 1")
        fp = float(p)
        x = fp if p < FLOAT_EXACT else p
        g = group_of[bisect_right(table, x)] if x < top else None
        if g is not None and free[g] == m:
            bucket_overflow += 1
            g = None
        if g is None:
            profile = first
            start = small_cursor
            completion = work_to_time(profile, start, fp)
            if completion > head_limit:
                reservation_overflow += 1
                start = tail_cursor
                completion = work_to_time(profile, start, fp)
                tail_cursor = completion
            else:
                small_cursor = completion
            small_placed += 1
        else:
            i = free[g]
            profile = profiles[i]
            w = slot_work[i][g]
            works = profile._works
            j = slot_piece[i][g]
            while j + 1 < len(works) and works[j + 1] <= w:
                j += 1
            slot_piece[i][g] = j
            start = profile._starts[j] + (w - works[j]) / profile._alphas[j]
            # the completion is walked from the start, not read off
            # G^-1(w + p): deep in a timeline the difference of two G^-1
            # values loses the digits the evaluator needs to see exactly p
            # units of work
            completion = work_to_time(profile, start, fp)
            slot_work[i][g] = w + rps[g]
            row = remaining[i]
            row[g] -= 1
            if row[g] == 0:  # machine i has used up its slots of group g
                while i < m and remaining[i][g] == 0:
                    i += 1
                free[g] = i
        place(new(PlacedJob, (job_id, profile.machine_index, start, completion)))
    if job_id != plan.n:
        raise StreamMismatchError(f"pass 2 saw {job_id} jobs, plan expects {plan.n}")
    report = EmitReport(small_placed, bucket_overflow, reservation_overflow)
    return Schedule(tuple(placements)), report

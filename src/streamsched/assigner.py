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
from itertools import accumulate

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
    first = profiles[0]
    group_by_rp = {rp: g for g, (rp, _nk) in enumerate(groups)}
    group_by_bucket: dict[int, int | None] = {}  # filled as buckets arrive
    remaining = [list(row) for row in plan.counts]
    # slot_work[i][g]: the work machine i has delivered when its next unused
    # slot of group g starts. Groups run back to back in size order, machine
    # 1's after the small-job reservation at its head; the extra last entry
    # is where the machine's timeline ends.
    heads = [first.work_at(plan.small_reservation)] + [0.0] * (m - 1)
    slot_work = [
        list(accumulate((c * rp for (rp, _nk), c in zip(groups, row)), initial=w))
        for w, row in zip(heads, plan.counts)
    ]
    # smalls must finish before machine 1's first large slot; the ones that
    # do not fit go past the end of its timeline
    small_cursor = 0.0
    head_limit = plan.small_reservation if any(plan.counts[0]) else math.inf
    tail_cursor = first.time_at(slot_work[0][-1])
    report = EmitReport()
    placements = []
    for job_id, p in enumerate(stream, start=1):
        report.n_jobs += 1
        if p < 1:
            raise ValueError("processing time must be >= 1")
        k = bucket_index(p, tau)
        if k not in group_by_bucket:
            group_by_bucket[k] = group_by_rp.get(rounded_value(k, tau))
        g = group_by_bucket[k]
        if g is not None:
            # the first machine with an unused slot of group g
            i = 0
            while i < m and remaining[i][g] == 0:
                i += 1
            if i == m:
                report.bucket_overflow += 1
                g = None
        if g is None:
            profile = first
            start = small_cursor
            completion = work_to_time(profile, start, float(p))
            if completion > head_limit:
                report.reservation_overflow += 1
                start = tail_cursor
                completion = work_to_time(profile, start, float(p))
                tail_cursor = completion
            else:
                small_cursor = completion
            report.small_placed += 1
        else:
            profile = profiles[i]
            w = slot_work[i][g]
            start = profile.time_at(w)
            # the completion is walked from the start, not read off
            # G^-1(w + p): deep in a timeline the difference of two G^-1
            # values loses the digits the evaluator needs to see exactly p
            # units of work
            completion = work_to_time(profile, start, float(p))
            slot_work[i][g] = w + groups[g][0]
            remaining[i][g] -= 1
        placements.append(PlacedJob(job_id, profile.machine_index, start, completion))
    if report.n_jobs != plan.n:
        raise StreamMismatchError(
            f"pass 2 saw {report.n_jobs} jobs, plan expects {plan.n}"
        )
    return Schedule(tuple(placements)), report

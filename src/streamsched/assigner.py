"""Pass 2: replay the job stream against a plan and emit a feasible schedule.

Each incoming job is matched to a remaining (machine, group) slot by rounded
processing time; a job that rounds below every group joins the small pile on
machine 1, and any other job that finds no slot left, in its group or in none,
is a stream mismatch. Working space is an m-by-mu table of first-slot work
coordinates, one slot cursor per group, a map from the buckets seen to their
groups and the single in-flight job. The schedule itself is held as it is
emitted, in the typed columns of a Schedule: each job appends its machine,
start and completion, 24 bytes, and the job ids 1..n, 8 bytes each, are
filled in when the stream ends.

Large jobs start exactly at their slot time. The slots are laid out on the
profiles pass 2 is given, and a job's true length never exceeds the rounded
length its slot was sized for, so slots are pairwise disjoint regardless of
arrival order. Small jobs run back to back from time 0 in the reservation
ahead of machine 1's slots, which holds their work on pass 1's stream and
profile (budget step 4); a small job that overruns it is a mismatch too.
"""
from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

from . import budget
from .model import (
    RP_LIMIT, MachineProfile, Schedule, require_below_rp_limit, work_to_time,
)
from .planner import Plan
from .sketch import FLOAT_EXACT, bucket_groups, power_table


class StreamMismatchError(ValueError):
    """Pass 2's stream or machine 1's profile is not pass 1's: another job
    count, a large job with no slot left, or small jobs past the reservation."""


@dataclass
class EmitReport:
    small_placed: int = 0
    # both always 0, kept while the benchmark reads them: emit raises instead
    bucket_overflow: int = 0
    reservation_overflow: int = 0


def emit(
    plan: Plan, stream, profiles: tuple[MachineProfile, ...]
) -> tuple[Schedule, EmitReport]:
    """Place every job of the stream; the stream must be the pass-1 multiset
    (any order). A large job starts where its slot starts, G^-1 of the slot's
    work coordinate, and completes after its true processing time; the slot
    coordinate then advances by the rounded length, to the next slot.
    Raises ValueError when the profile count differs from the plan's,
    naming the group when a group's rp is no rounded size at the plan's
    tau, or naming the job when a processing time is below 1 or at or
    past RP_LIMIT. Raises StreamMismatchError on another job count, or naming
    the job, and its group if any, when a job too large to be small finds
    no slot, or a small job overruns machine 1's reservation."""
    if len(profiles) != len(plan.counts):
        raise ValueError(
            f"plan is for {len(plan.counts)} machines, got {len(profiles)} profiles"
        )
    tau, groups, m = budget.tau(plan.eps, plan.alpha0), plan.groups, len(profiles)
    first = profiles[0]
    rps = [rp for rp, _nk in groups]
    # a group that no bucket maps to would keep its slots empty while its
    # jobs fall to the small pile, far past the plan's bound; bucket_groups
    # rejects it
    group_of = bucket_groups(rps, tau, "plan group")
    table = power_table(tau, len(group_of))
    top = table[len(group_of) - 1]  # the p below it have a bucket in group_of
    # a small job rounds to theta or less, below every group's rp
    low = table[group_of.index(0) - 1] if groups else math.inf
    # slot_work[i][g]: the work machine i has delivered when its first slot
    # of group g starts. Groups run back to back in size order, machine 1's
    # after the small-job reservation at its head, which holds heads[0] work.
    heads = [first.work_at(plan.small_reservation)] + [0.0] * (m - 1)
    slot_work = [
        list(accumulate((c * rp for rp, c in zip(rps, row)), initial=w))
        for w, row in zip(heads, plan.counts)
    ]
    # each machine's interval tables; works gets an infinite sentinel so the
    # cursor walk needs no bound check
    tables = [
        (prof._starts, prof._ends, prof._works + (math.inf,), prof._alphas, prof)
        for prof in profiles
    ]

    def load(g: int, i: int):
        """Group g's cursor on the first machine from i with a slot of it:
        (work coordinate of its next slot, the interval holding it, slots
        left there, slot length, machine, its tables), or None when no
        machine has one. Slots are used up in machine order, so a group's
        cursor only moves forward."""
        while i < m and not plan.counts[i][g]:
            i += 1
        if i == m:
            return None
        w = slot_work[i][g]
        j = bisect_right(tables[i][2], w) - 1
        return (w, j, plan.counts[i][g], rps[g], i, tables[i])

    cursor = [load(g, 0) for g in range(len(groups))]
    small_cursor, small_sum, small_placed = 0.0, 0, 0  # an int sum is exact
    # the schedule's columns but job_ids, which is 1..n; see Schedule
    out_machines, out_starts, out_completions = array("q"), array("d"), array("d")
    put_machine, put_start, put_completion = (
        out_machines.append, out_starts.append, out_completions.append
    )
    job_id = 0
    for job_id, p in enumerate(stream, start=1):
        if p < 1:
            raise ValueError(f"job {job_id}: processing time must be >= 1")
        # float(p) is exact below 2**53 and bisects faster; past it p stays
        # an int, which compares exactly, and int - float or int / float
        # converts it as float(p) would
        x = float(p) if p < FLOAT_EXACT else p
        g = group_of[bisect_right(table, x)] if x < top else None
        cur = None if g is None else cursor[g]
        if cur is None:
            # every p from RP_LIMIT up lands here, past all groups, before
            # any arithmetic would convert it to a float
            if p >= RP_LIMIT:
                require_below_rp_limit(p, f"job {job_id}: processing time")
            if x >= low:  # too large to be small, and no slot is left
                where = (
                    f"into plan group {g} (rp={rps[g]}), whose {groups[g][1]} "
                    "slots are all taken" if g is not None else
                    f"to no plan group, but not below the smallest (rp={rps[0]})"
                )
                raise StreamMismatchError(f"job {job_id} (p={p}) rounds {where}")
            small_sum += p
            if small_sum > heads[0]:
                raise StreamMismatchError(
                    f"job {job_id} (p={p}) takes the small jobs' work to {small_sum}, "
                    f"past the {heads[0]} of machine 1's reservation: the "
                    "stream or machine 1's profile differs from pass 1's"
                )
            profile, start = first, small_cursor
            completion = small_cursor = work_to_time(first, start, x)
            small_placed += 1
        else:
            w, j, left, rp, i, tab = cur
            starts, ends, works, alphas, profile = tab
            while works[j + 1] <= w:
                j += 1
            alpha = alphas[j]
            start = starts[j] + (w - works[j]) / alpha
            # the completion is walked from the start, not read off
            # G^-1(w + p): deep in a timeline the difference of two
            # G^-1 values loses the digits the evaluator needs to see
            # exactly p units of work. A job that ends in interval j is
            # work_to_time's first case, inlined; the rest call it. A
            # start rounded onto interval j's end fails the test by
            # itself, as x > 0.
            if x - alpha * (ends[j] - start) <= 0:
                completion = start + x / alpha
            else:
                completion = work_to_time(profile, start, x)
            if left > 1:
                cursor[g] = (w + rp, j, left - 1, rp, i, tab)
            else:  # machine i has used up its slots of group g
                cursor[g] = load(g, i + 1)
        put_machine(profile.machine_index)
        put_start(start)
        put_completion(completion)
    if job_id != plan.n:
        raise StreamMismatchError(f"pass 2 saw {job_id} jobs, plan expects {plan.n}")
    report = EmitReport(small_placed)
    job_ids = array("q", range(1, job_id + 1))
    schedule = Schedule.from_columns(
        job_ids, out_machines, out_starts, out_completions
    )
    return schedule, report

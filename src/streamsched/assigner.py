"""Pass 2: replay the job stream against a plan and emit a feasible schedule.

Each incoming job is matched to a remaining (machine, group) slot by rounded
processing time; a job that rounds below every group joins the small pile on
machine 1, and any other job that finds no slot left, in its group or in none,
is a stream mismatch. Each group's slots come from one generator, which walks
them machine by machine in the order they are used up and holds only the next
slot's work coordinate and profile interval. Working space is an m-by-mu
table of first-slot work coordinates, the mu generators, a map from the
buckets seen to their groups and the single in-flight job. The schedule
itself is held as it is emitted, in the typed columns of a Schedule: each
job appends its machine, start and completion, 24 bytes, and the job ids
1..n, 8 bytes each, are filled in when the stream ends.

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

from . import budget
from .model import (
    RP_LIMIT, MachineProfile, Schedule, require_below_rp_limit, work_to_time,
)
from .planner import Plan, slot_works
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
    tau, groups = budget.tau(plan.eps, plan.alpha0), plan.groups
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
    # of group g starts; machine 1's reservation holds head = slot_work[0][0]
    slot_work = slot_works(plan.counts, rps, profiles, plan.small_reservation)
    head = slot_work[0][0]
    # each machine's interval tables; works gets an infinite sentinel so the
    # interval walk needs no bound check
    tables = [
        (prof, prof._starts, prof._ends, prof._works + (math.inf,), prof._alphas)
        for prof in profiles
    ]

    def group_slots(g: int):
        """Group g's slots in the order they are used up, machine by machine:
        (profile, start, end of the interval holding the start, its alpha).
        A slot's work coordinate w only grows on its machine, so the
        interval index is walked forward from one bisection per machine."""
        rp = rps[g]
        # the garbage collector tracks a zip or enumerate iterator but not a
        # range one; mu suspended zips made emit trigger extra collections
        for i in range(len(tables)):
            profile, starts, ends, works, alphas = tables[i]
            w = slot_work[i][g]
            j = bisect_right(works, w) - 1
            for _ in range(plan.counts[i][g]):
                while works[j + 1] <= w:
                    j += 1
                alpha = alphas[j]
                yield profile, starts[j] + (w - works[j]) / alpha, ends[j], alpha
                w += rp

    slots = [group_slots(g) for g in range(len(groups))]
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
        slot = None if g is None else next(slots[g], None)
        if slot is None:
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
            if small_sum > head:
                raise StreamMismatchError(
                    f"job {job_id} (p={p}) takes the small jobs' work to {small_sum}, "
                    f"past the {head} of machine 1's reservation: the "
                    "stream or machine 1's profile differs from pass 1's"
                )
            profile, start = first, small_cursor
            completion = small_cursor = work_to_time(first, start, x)
            small_placed += 1
        else:
            profile, start, end, alpha = slot
            # the completion is walked from the start, not read off
            # G^-1(w + p): deep in a timeline the difference of two
            # G^-1 values loses the digits the evaluator needs to see
            # exactly p units of work. A job that ends in the start's
            # interval is work_to_time's first case, inlined; the rest call
            # it. A start rounded onto the interval's end fails the test by
            # itself, as x > 0.
            if x - alpha * (end - start) <= 0:
                completion = start + x / alpha
            else:
                completion = work_to_time(profile, start, x)
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

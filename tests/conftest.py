import math
import random
from bisect import bisect_right

import pytest

from streamsched import budget
from streamsched.model import (
    CapacityInterval, MachineProfile, PlacedJob, Schedule, flat_profile,
    random_instance, work_to_time,
)
from streamsched.sketch import bucket_index, rounded_value, sketch_stream


def make_profile(pieces, machine_index=1):
    """pieces: list of (length, alpha); a final unbounded piece reuses the
    last alpha if the list ends with (None, alpha)."""
    intervals = []
    t = 0.0
    for length, alpha in pieces:
        end = math.inf if length is None else t + length
        intervals.append(CapacityInterval(t, end, alpha))
        t = end
    if intervals[-1].end != math.inf:
        intervals.append(CapacityInterval(t, math.inf, intervals[-1].alpha))
    return MachineProfile(machine_index, tuple(intervals))


def boundary_streams(tau):
    """Sizes around 2^53, where float(p) stops being exact, and around 2^60;
    each stream adds both sides of the first power-table entry t above its
    anchor. Above 2^60 floats are 256 apart, so float(t - 1) == t there."""
    streams = []
    for anchor, extra in ((2**53, (2**53 - 1, 2**53 + 1)), (2**60, ())):
        t = rounded_value(bucket_index(anchor, tau), tau)
        streams.append([anchor, *extra, t - 1, t, t + 1])
    return streams


def exact_fit_stream(rng, n_small, n_large):
    """(stream, eps, alpha0) whose n_small small jobs each equal an integral
    theta, so that together they hold exactly n_s*theta, the most work the
    reservation is sized for; or None when the draw gives no such theta.
    The largest of the n_large jobs after them sets theta."""
    n = n_small + n_large
    eps, alpha0 = rng.randint(1, 20) / 20, rng.randint(2, 20) / 20
    tau = budget.tau(eps, alpha0)
    theta = rng.randint(1, 40)
    if rounded_value(bucket_index(theta, tau), tau) != theta:
        return None  # a job of theta would round above theta, so be large
    p0 = round(3 * n * n * theta / (eps * alpha0))
    for p_max in (p0 - 1, p0, p0 + 1):
        if budget.threshold(eps, alpha0, n, p_max) == theta:
            large = [rng.randint(theta + 1, p_max) for _ in range(n_large - 1)]
            return [theta] * n_small + large + [p_max], eps, alpha0
    return None


def golden_instance(seed):
    """(stream, profiles, eps, alpha0) of the seeded plan and emit golden
    files: m <= 3 random profiles and up to 14 jobs (9 at m = 3)."""
    rng = random.Random(seed)
    m = rng.randint(1, 3)
    n = rng.randint(1, 14 if m < 3 else 9)
    max_p = rng.choice((5, 20, 100, 1000))
    eps, alpha0 = rng.choice((0.3, 0.5, 1.0)), rng.choice((0.3, 0.5, 1.0))
    inst = random_instance(rng, n, m, max_p, alpha0)
    return [j.p for j in inst.jobs], inst.machines, eps, alpha0


def golden_case(seed):
    """(sketch, profiles, eps, alpha0) of golden_instance(seed)."""
    stream, profiles, eps, alpha0 = golden_instance(seed)
    return sketch_stream(stream, eps, alpha0), profiles, eps, alpha0


def mutants(rng, inst, placements):
    """Schedules one edit away from an emitted one: shifted starts, moved,
    shortened or stretched jobs, wrong machines, duplicated, dropped or
    swapped jobs, and jobs moved onto or across interval boundaries."""
    profiles = {p.machine_index: p for p in inst.machines}
    sizes = {j.id: j.p for j in inst.jobs}
    out = []
    for _ in range(4):
        pls = list(placements)
        k = rng.randrange(len(pls))
        job_id, mi, start, completion = pls[k]
        prof = profiles[mi]
        p = float(sizes[job_id])
        kind = rng.randrange(10)
        if kind == 0:  # start shifted, completion kept
            shift = rng.choice([-1, 1]) * rng.choice([1e-12, 1e-6, 0.3, 2.0])
            pls[k] = PlacedJob(job_id, mi, start + shift, completion)
        elif kind == 1:  # the whole job moved, its completion recomputed
            new_start = max(0.0, start + rng.uniform(-3.0, 3.0))
            pls[k] = PlacedJob(job_id, mi, new_start, work_to_time(prof, new_start, p))
        elif kind == 2:  # completion shortened or stretched
            scale = rng.choice([1e-13, 1e-8, 0.1]) * rng.choice([-1, 1])
            pls[k] = PlacedJob(
                job_id, mi, start, completion + scale * (completion - start)
            )
        elif kind == 3:  # another machine, present or not
            other = rng.choice([*profiles, max(profiles) + 1])
            pls[k] = PlacedJob(job_id, other, start, completion)
        elif kind == 4:
            pls.insert(rng.randrange(len(pls) + 1), pls[k])
        elif kind == 5:
            del pls[k]
        elif kind == 6 and len(pls) > 1:  # two jobs swap ids
            k2 = rng.randrange(len(pls))
            a, b = pls[k], pls[k2]
            pls[k], pls[k2] = a._replace(job_id=b.job_id), b._replace(job_id=a.job_id)
        elif kind in (7, 8):  # the job starts on a boundary or just before one
            i = rng.randrange(len(prof.intervals))
            new_start = prof.intervals[i].start
            if kind == 8 and i > 0:
                before = new_start - prof.intervals[i - 1].start
                new_start -= rng.uniform(0.0, 0.5) * before
            pls[k] = PlacedJob(job_id, mi, new_start, work_to_time(prof, new_start, p))
        else:  # ends exactly where its start's interval ends
            i = bisect_right(prof._starts, start) - 1
            pls[k] = PlacedJob(job_id, mi, start, prof.intervals[i].end)
        out.append(Schedule(tuple(pls)))
    return out


@pytest.fixture
def unit_profile():
    return flat_profile(1.0)

"""Core domain types: jobs, piecewise-constant capacity profiles, schedules.

Also the exact evaluator that converts work into time under a varying
capacity and the SPT helper used by the brute-force oracle.
"""
from __future__ import annotations

import csv
import itertools
import json
import math
import random
from array import array
from bisect import bisect_right
from collections import namedtuple
from collections.abc import Sequence

REL_TOL = 1e-9

# processing times and rounded sizes stay below this: tau is at most 1/15,
# so the first power of (1+tau) past a value below it is still a finite float
RP_LIMIT = 2**1023


def require_below_rp_limit(value: int, what: str) -> None:
    """Raise ValueError naming `what` when value is at or past RP_LIMIT."""
    if value >= RP_LIMIT:
        raise ValueError(
            f"{what} must be below 2**1023, got an integer of "
            f"{len(str(value))} digits"
        )


class ScheduleError(Exception):
    """Base class for schedule feasibility violations."""


class OverlapError(ScheduleError):
    """Two placements intersect in time on the same machine."""


class WorkMismatchError(ScheduleError):
    """A placement's completion is inconsistent with the machine profile."""


class MissingJobError(ScheduleError):
    """A job is missing from, or duplicated in, a schedule."""


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


class Job(namedtuple("Job", "id p")):
    __slots__ = ()

    def __new__(cls, id: int, p: int):
        if id < 1:
            raise ValueError(f"job id must be >= 1, got {id}")
        if not 1 <= p < RP_LIMIT:
            if p < 1:
                raise ValueError(f"job {id}: processing time must be >= 1")
            require_below_rp_limit(p, f"job {id}: processing time")
        return tuple.__new__(cls, (id, p))


class CapacityInterval(namedtuple("CapacityInterval", "start end alpha")):
    """end is math.inf for the last, unbounded interval."""

    __slots__ = ()

    def __new__(cls, start: float, end: float, alpha: float):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"capacity must be in (0, 1], got {alpha}")
        if end <= start:
            raise ValueError(f"interval end {end} <= start {start}")
        return tuple.__new__(cls, (start, end, alpha))


class MachineProfile(namedtuple("MachineProfile", "machine_index intervals")):
    """intervals: a tuple of CapacityIntervals. The interval tables _starts,
    _ends, _works and _alphas live in the instance dict, not in the tuple,
    so ==, hash and repr skip them."""

    def __new__(cls, machine_index: int, intervals: tuple[CapacityInterval, ...]):
        if not intervals:
            raise ValueError("profile needs at least one interval")
        if intervals[0].start != 0.0:
            raise ValueError("intervals must start at time 0")
        for prev, cur in zip(intervals, intervals[1:]):
            if cur.start != prev.end:
                raise ValueError("intervals must be contiguous")
        if intervals[-1].end != math.inf:
            raise ValueError("last interval must be unbounded")
        self = tuple.__new__(cls, (machine_index, intervals))
        # the cumulative-capacity table: work delivered by each interval start
        works = [0.0]
        for iv in intervals[:-1]:
            works.append(works[-1] + iv.alpha * (iv.end - iv.start))
        self._starts = tuple(iv.start for iv in intervals)
        self._ends = tuple(iv.end for iv in intervals)
        self._works = tuple(works)
        self._alphas = tuple(iv.alpha for iv in intervals)
        return self

    # _replace builds through _make: check and derive the tables again
    _make = classmethod(lambda cls, fields: cls(*fields))

    def interval_index_at(self, t: float) -> int:
        return bisect_right(self._starts, t) - 1

    def work_at(self, t: float) -> float:
        """G(t): the work delivered over [0, t)."""
        i = bisect_right(self._starts, t) - 1
        return self._works[i] + self._alphas[i] * (t - self._starts[i])

    def time_at(self, work: float) -> float:
        """G^-1(work): the earliest time by which `work` has been delivered."""
        i = bisect_right(self._works, work) - 1
        return self._starts[i] + (work - self._works[i]) / self._alphas[i]

    @property
    def min_alpha(self) -> float:
        return min(iv.alpha for iv in self.intervals)


def flat_profile(alpha: float, machine_index: int = 1) -> MachineProfile:
    """Single unbounded interval at constant capacity; test/CLI convenience."""
    return MachineProfile(
        machine_index, (CapacityInterval(0.0, math.inf, alpha),)
    )


def random_profile(
    rng: random.Random, alpha0: float, machine_index: int = 1, max_pieces: int = 4
) -> MachineProfile:
    """1 to max_pieces pieces of length U[0.5, 8] and capacity U[alpha0, 1];
    the last piece is unbounded."""
    pieces = rng.randint(1, max_pieces)
    intervals = []
    t = 0.0
    for j in range(pieces):
        alpha = rng.uniform(alpha0, 1.0)
        end = math.inf if j == pieces - 1 else t + rng.uniform(0.5, 8.0)
        intervals.append(CapacityInterval(t, end, alpha))
        t = end
    return MachineProfile(machine_index, tuple(intervals))


def require_alpha0(profiles, alpha0: float) -> None:
    """Raise ValueError naming the first machine whose capacity dips below alpha0."""
    for prof in profiles:
        if prof.min_alpha < alpha0 - REL_TOL:
            raise ValueError(
                f"machine {prof.machine_index} has capacity {prof.min_alpha} "
                f"below alpha0 {alpha0}"
            )


def require_distinct_machines(profiles) -> None:
    """Raise ValueError naming the first machine index that appears twice."""
    seen = set()
    for prof in profiles:
        if prof.machine_index in seen:
            raise ValueError(f"machine index {prof.machine_index} appears twice")
        seen.add(prof.machine_index)


class Instance(namedtuple("Instance", "machines jobs alpha0")):
    """Job ids are distinct. _sizes maps each id to float(p), for
    evaluate_schedule to copy; it lives in the instance dict, not in the
    tuple, so ==, hash and repr skip it."""

    def __new__(cls, machines: tuple[MachineProfile, ...], jobs: tuple[Job, ...],
                alpha0: float):
        if not 0.0 < alpha0 <= 1.0:
            raise ValueError(f"alpha0 must be in (0, 1], got {alpha0}")
        require_alpha0(machines, alpha0)
        require_distinct_machines(machines)
        sizes = {job.id: float(job.p) for job in jobs}
        if len(sizes) < len(jobs):
            # popping each id in turn, the first repeat finds its id gone
            repeat = next(j.id for j in jobs if sizes.pop(j.id, None) is None)
            raise ValueError(f"job id {repeat} appears twice")
        self = tuple.__new__(cls, (machines, jobs, alpha0))
        self._sizes = sizes
        return self

    # _replace builds through _make: check and derive the size map again
    _make = classmethod(lambda cls, fields: cls(*fields))


def random_instance(
    rng: random.Random, n: int, m: int, max_p: int, alpha0: float
) -> Instance:
    """m random profiles (see random_profile), then n job sizes U{1..max_p}."""
    machines = tuple(random_profile(rng, alpha0, i + 1) for i in range(m))
    jobs = tuple(Job(i + 1, rng.randint(1, max_p)) for i in range(n))
    return Instance(machines, jobs, alpha0)


# one placement, as Schedule.placements hands it out; a tuple, so that it
# unpacks like one and compares equal to a plain tuple with its values
PlacedJob = namedtuple("PlacedJob", "job_id machine_index start completion")

# every value an array('q') column can hold
INT64 = range(-(2**63), 2**63)


class Schedule(namedtuple("Schedule", "job_ids machines starts completions")):
    """Placements held as four typed columns, 32 bytes per job: row k places
    job job_ids[k] on machine machines[k] over [starts[k], completions[k]).
    job_ids and machines are array('q'), starts and completions array('d').

    Schedule(placements) takes an iterable of PlacedJobs or 4-tuples, and
    Schedule.from_columns the columns themselves. A value that an 'q' column
    cannot hold raises OverflowError; the file readers check for it first.
    """

    __slots__ = ()

    def __new__(cls, placements=()):
        columns = job_ids, machines, starts, completions = (
            array("q"), array("q"), array("d"), array("d")
        )
        for job_id, machine, start, completion in placements:
            job_ids.append(job_id)
            machines.append(machine)
            starts.append(start)
            completions.append(completion)
        return tuple.__new__(cls, columns)

    @classmethod
    def from_columns(cls, job_ids, machines, starts, completions) -> "Schedule":
        """A schedule holding the given arrays, not copies; raises ValueError
        unless they have one length."""
        if not len(job_ids) == len(machines) == len(starts) == len(completions):
            raise ValueError("schedule columns differ in length")
        return tuple.__new__(cls, (job_ids, machines, starts, completions))

    @property
    def placements(self) -> "Placements":
        return Placements(self)


class Placements(Sequence):
    """Read-only sequence view of a schedule's rows: len() costs O(1), and
    each item is a PlacedJob built when it is read."""

    __slots__ = ("_columns",)

    def __init__(self, schedule: Schedule):
        self._columns = (
            schedule.job_ids, schedule.machines, schedule.starts,
            schedule.completions,
        )

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self[i] for i in range(*k.indices(len(self))))
        return PlacedJob._make(column[k] for column in self._columns)

    def __iter__(self):
        return map(PlacedJob._make, zip(*self._columns))


def work_to_time(profile: MachineProfile, start: float, work: float) -> float:
    """Smallest t >= start such that the capacity integral over [start, t) is `work`.

    Work that fits in the interval holding `start` is divided by its capacity
    there. Otherwise the interval holding G(start) + work is found by one
    bisect in the profile's cumulative-capacity table, whatever the number of
    intervals crossed, and the work left after the start's own interval is
    spent from there; with one boundary crossed, no table entry enters the
    result, so a short job deep in the timeline keeps its digits.
    """
    if start < 0:
        raise ValueError("start must be >= 0")
    if work < 0:
        raise ValueError("work must be >= 0")
    if work == 0:
        return start
    starts, alphas = profile._starts, profile._alphas
    i = bisect_right(starts, start) - 1
    alpha = alphas[i]
    rest = work - alpha * (profile._ends[i] - start)  # left at the end of interval i
    if rest <= 0:
        return start + work / alpha
    works = profile._works
    j = bisect_right(works, works[i + 1] + rest) - 1
    return starts[j] + (rest - (works[j] - works[i + 1])) / alphas[j]


def work_between(profile: MachineProfile, t0: float, t1: float) -> float:
    """Capacity integral over [t0, t1)."""
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    ends, alphas = profile._ends, profile._alphas
    i = bisect_right(profile._starts, t0) - 1
    total = 0.0
    t = t0
    while t < t1:
        end = ends[i]
        seg_end = t1 if t1 < end else end
        total += alphas[i] * (seg_end - t)
        t = seg_end
        i += 1
    return total


def run_batch(
    profile: MachineProfile, start: float, count: int, length: float
) -> float:
    """Total completion time of `count` identical jobs of `length` run back
    to back from `start`.

    Job j (from 1) completes at G^-1(G(start) + j*length). G^-1 is affine
    within one interval, so the completions that fall in it form an
    arithmetic series, summed in closed form: the cost grows with the
    intervals the batch crosses, not with `count`.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if length <= 0:
        raise ValueError("length must be > 0")
    if count == 0:
        return 0.0
    starts, works, alphas = profile._starts, profile._works, profile._alphas
    last = len(works) - 1
    i = bisect_right(starts, start) - 1
    w0 = works[i] + alphas[i] * (start - starts[i])
    base = start  # where job j completes at base + j * length / alpha
    sigma = 0.0
    done = 0
    while True:
        step = length / alphas[i]
        # jobs done+1..hi complete in interval i: w0 + j*length <= works[i+1]
        hi = count if i == last else min(count, int((works[i + 1] - w0) // length))
        if hi > done:
            c = hi - done
            sigma += c * base + step * ((done + 1 + hi) * c // 2)
            done = hi
            if done == count:
                return sigma
        i += 1
        base = starts[i] - (works[i] - w0) / alphas[i]


def evaluate_schedule(instance: Instance, schedule: Schedule) -> float:
    """Total completion time of a schedule; raises on any feasibility violation.

    Every placement must satisfy 0 <= start < completion < inf, and a copy
    of the instance's size map holds the jobs not yet placed. Each
    machine's rows are then walked by number over the schedule's columns,
    in start order, with a cursor on its profile intervals that only moves
    forward: a job that ends in the interval holding its start delivers
    that interval's capacity times its length, which is what work_between
    computes for it, and only a job that crosses a boundary calls it.
    """
    unplaced = instance._sizes.copy()
    profiles = {p.machine_index: p for p in instance.machines}
    starts, completions = schedule.starts, schedule.completions
    # machines in the order of their first placement, the order of the sum
    per_machine: dict[int, list[int]] = {}
    sizes = []  # sizes[row]: the size of the job placed in that row
    inf = math.inf
    for row, job_id, mi, start, completion in zip(
        itertools.count(), schedule.job_ids, schedule.machines, starts, completions
    ):
        p = unplaced.pop(job_id, None)
        if p is None:
            if job_id in instance._sizes:
                raise MissingJobError(f"job {job_id} placed more than once")
            raise MissingJobError(f"placement for unknown job {job_id}")
        rows = per_machine.get(mi)
        if rows is None:
            if mi not in profiles:
                raise ScheduleError(f"unknown machine {mi}")
            rows = per_machine[mi] = []
        if not 0.0 <= start < completion < inf:
            if completion <= start:
                raise WorkMismatchError(
                    f"job {job_id}: completion {completion} <= start {start}"
                )
            raise ScheduleError(
                f"job {job_id}: start {start} and completion {completion} "
                "must satisfy 0 <= start < completion < inf"
            )
        rows.append(row)
        sizes.append(p)
    if unplaced:
        ids = sorted(unplaced)
        more = f" and {len(ids) - 10} more, {len(ids)} in all" if len(ids) > 10 else ""
        raise MissingJobError(f"jobs never placed: {ids[:10]}{more}")

    total = 0.0  # by +=: from Python 3.12 on, sum() compensates
    for mi, rows in per_machine.items():
        profile = profiles[mi]
        ends, alphas = profile._ends, profile._alphas
        rows.sort(key=starts.__getitem__)  # stable: equal starts keep their order
        prev_end = 0.0
        i, end = 0, ends[0]  # the interval holding the start, and its end
        for row in rows:
            start, completion, p = starts[row], completions[row], sizes[row]
            if start < prev_end and not _close(start, prev_end):
                raise OverlapError(
                    f"machine {mi}: job {schedule.job_ids[row]} starts at {start} "
                    f"before previous completion {prev_end}"
                )
            while end <= start:
                i += 1
                end = ends[i]
            if completion <= end:
                delivered = alphas[i] * (completion - start)
            else:
                delivered = work_between(profile, start, completion)
            # not _close(delivered, p), for delivered >= 0 and p >= 1
            if abs(delivered - p) > REL_TOL * (p if p > delivered else delivered):
                raise WorkMismatchError(
                    f"job {schedule.job_ids[row]} on machine {mi}: "
                    f"delivered {delivered}, needs {p:.17g}"
                )
            prev_end = completion
            total += completion
    return total


def spt_on_assignment(instance: Instance, assignment: dict[int, int]) -> Schedule:
    """SPT order per machine for a fixed job->machine assignment, from time 0.

    SPT per machine is optimal for a fixed assignment: the completion of the
    j-th job on a machine is a nondecreasing function of the cumulative work
    prefix, which sorting by processing time minimizes pointwise.
    """
    profiles = {p.machine_index: p for p in instance.machines}
    by_machine: dict[int, list[Job]] = {}
    for job in instance.jobs:
        by_machine.setdefault(assignment[job.id], []).append(job)
    placements = []
    for mi, jobs in by_machine.items():
        profile = profiles[mi]
        t = 0.0
        for job in sorted(jobs, key=lambda j: (j.p, j.id)):
            end = work_to_time(profile, t, float(job.p))
            placements.append(PlacedJob(job.id, mi, t, end))
            t = end
    return Schedule(tuple(placements))


# ---------------------------------------------------------------------------
# File formats


def load_profiles(path: str) -> tuple[MachineProfile, ...]:
    """Profile JSON: [{"machine": i, "pieces": [{"end": t|null, "alpha": a}]}].

    Pieces are implicitly contiguous from time 0; exactly the last piece has
    end=null (unbounded).
    """
    with open(path) as fh:
        raw = json.load(fh)
    return profiles_from_obj(raw)


def require_keys(obj, keys, what: str) -> None:
    """Raise ValueError naming `what` unless obj is a JSON object (a dict)
    holding every key."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object")
    for key in keys:
        if key not in obj:
            raise ValueError(f"{what} has no {key!r} key")


def require_numbers(obj, keys, what: str) -> None:
    """Raise ValueError naming `what` and the key unless obj[key] is a JSON
    number (not null, a string, a boolean or a container) for every key."""
    for key in keys:
        value = obj[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(
                f"{what} {key!r} must be a number, got {json.dumps(value)}"
            )


def require_integers(obj, keys, what: str) -> None:
    """require_numbers, and raise ValueError naming `what` and the key
    unless obj[key] is also finite and integral (3 and 3.0, not 2.5)."""
    require_numbers(obj, keys, what)
    for key in keys:
        value = obj[key]
        if isinstance(value, float) and not value.is_integer():
            raise ValueError(
                f"{what} {key!r} must be an integer, got {json.dumps(value)}"
            )


def require_positive(obj, keys, what: str, top: float = math.inf) -> None:
    """Raise ValueError naming `what` and the key unless obj[key] is finite,
    above 0 and at most `top`; call it after require_numbers."""
    for key in keys:
        value = obj[key]
        if not 0.0 < value <= top or value == math.inf:
            want = "> 0 and finite" if top == math.inf else f"in (0, {top:g}]"
            raise ValueError(f"{what}: {key} must be {want}, got {json.dumps(value)}")


def require_at_least(obj, keys, what: str, low: float) -> None:
    """Raise ValueError naming `what` and the key unless obj[key] is finite
    and at least `low`; call it after require_numbers."""
    for key in keys:
        value = obj[key]
        if not low <= value < math.inf:
            raise ValueError(
                f"{what}: {key} must be >= {low:g} and finite, got {json.dumps(value)}"
            )


def require_list(value, what: str) -> list:
    """Return `value` unless it is not a JSON list; then raise ValueError
    naming `what`."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, got {json.dumps(value)}")
    return value


def profiles_from_obj(raw: list[dict]) -> tuple[MachineProfile, ...]:
    """Raises ValueError naming the problem when raw is not a non-empty list
    of machines, each with a non-empty list of pieces."""
    if not isinstance(raw, list) or not raw:
        raise ValueError("profile JSON must hold a non-empty list of machines")
    profiles = []
    for entry in raw:
        require_keys(entry, ("machine", "pieces"), "profile JSON machine entry")
        require_integers(entry, ("machine",), "profile JSON machine entry")
        machine, pieces = int(entry["machine"]), entry["pieces"]
        if machine not in INT64:
            raise ValueError(
                f"profile JSON machine {machine} is outside the signed 64-bit range"
            )
        if not isinstance(pieces, list) or not pieces:
            raise ValueError(
                f"profile JSON machine {machine} needs a non-empty list of pieces"
            )
        what = f"profile JSON machine {machine} piece"
        for piece in pieces:
            require_keys(piece, ("end", "alpha"), what)
            bounded = piece["end"] is not None
            require_numbers(piece, ("end", "alpha") if bounded else ("alpha",), what)
        if any(p["end"] is None for p in pieces[:-1]) or pieces[-1]["end"] is not None:
            raise ValueError("exactly the last piece must have end=null")
        intervals = []
        t = 0.0
        for piece in pieces:
            end = math.inf if piece["end"] is None else float(piece["end"])
            intervals.append(CapacityInterval(t, end, float(piece["alpha"])))
            t = end
        profiles.append(MachineProfile(machine, tuple(intervals)))
    require_distinct_machines(profiles)
    return tuple(profiles)


def profiles_to_obj(profiles: tuple[MachineProfile, ...]) -> list[dict]:
    out = []
    for prof in profiles:
        pieces = [
            {"end": None if iv.end == math.inf else iv.end, "alpha": iv.alpha}
            for iv in prof.intervals
        ]
        out.append({"machine": prof.machine_index, "pieces": pieces})
    return out


def dump_profiles(profiles: tuple[MachineProfile, ...], path: str) -> None:
    with open(path, "w") as fh:
        json.dump(profiles_to_obj(profiles), fh, indent=2)
        fh.write("\n")


def write_schedule_csv(schedule: Schedule, path: str) -> None:
    """CSV with header job_id,machine,start,completion. The csv module writes
    floats as repr, so reading the file back gives the same floats."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["job_id", "machine", "start", "completion"])
        writer.writerows(
            zip(
                schedule.job_ids, schedule.machines, schedule.starts,
                schedule.completions,
            )
        )


def read_schedule_csv(path: str) -> Schedule:
    """Raises ValueError naming the first missing column, or naming the row
    and the column of a job id or machine outside the signed 64-bit range; a
    short row reads its missing fields as empty, which float() and int()
    reject."""

    def placements(reader):
        for k, row in enumerate(reader, start=1):
            job_id, machine = int(row["job_id"]), int(row["machine"])
            if job_id not in INT64 or machine not in INT64:
                bad = "job_id" if job_id not in INT64 else "machine"
                raise ValueError(
                    f"schedule CSV row {k}: {bad} {row[bad].strip()} is outside "
                    "the signed 64-bit range"
                )
            yield job_id, machine, float(row["start"]), float(row["completion"])

    with open(path, newline="") as fh:
        reader = csv.DictReader(fh, restval="")
        for column in ("job_id", "machine", "start", "completion"):
            if column not in (reader.fieldnames or ()):
                raise ValueError(f"schedule CSV has no {column!r} column")
        return Schedule(placements(reader))

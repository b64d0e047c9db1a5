"""Seeded workload inputs and the instance-level bounds the gate checks.

Everything here is derived from the workload name and the seed alone, so the
same seed writes byte-identical job and profile files.  Only the standard
library is used for generation; the bounds call ``streamsched.model`` for
``work_to_time`` so that UB is the program's own timing of an SPT schedule.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

WORKLOADS = ("dp-small", "stream-wide", "stream-narrow-known")


@dataclass(frozen=True)
class InstanceSpec:
    """One instance of a workload: where its files are and how to plan it."""

    jobs: str
    profiles: str
    n: int
    m: int
    eps: float
    alpha0: float
    n_upper: int | None = None
    pmax_lower: int | None = None


def _pattern_jobs(rng: random.Random, pattern: list[int], p_hi: int) -> list[int]:
    """Distinct sizes from U[1, p_hi]; the i-th smallest occurs pattern[i] times.

    The planner's work grows steeply with the number of distinct sizes
    (groups) and with where the repeated sizes fall in the group order, so
    the pattern pins both; the seed picks the sizes and the arrival order.
    """
    values = sorted(rng.sample(range(1, p_hi + 1), len(pattern)))
    jobs = [v for v, c in zip(values, pattern) for _ in range(c)]
    rng.shuffle(jobs)
    return jobs


def _step_profiles(
    rng: random.Random, m: int, alpha0: float, pieces: int, lo: float, hi: float
) -> list[list[tuple[float | None, float]]]:
    """Per machine: `pieces` contiguous pieces with lengths U[lo, hi] and
    capacities U[alpha0, 1]; the last piece is unbounded (end None)."""
    machines = []
    for _ in range(m):
        t = 0.0
        row = []
        for j in range(pieces):
            alpha = rng.uniform(alpha0, 1.0)
            if j == pieces - 1:
                row.append((None, alpha))
            else:
                t += rng.uniform(lo, hi)
                row.append((t, alpha))
        machines.append(row)
    return machines


def _write(path, jobs, machines):
    with open(path + ".jobs", "w") as fh:
        fh.write("".join(f"{p}\n" for p in jobs))
    obj = [
        {"machine": i, "pieces": [{"end": end, "alpha": a} for end, a in row]}
        for i, row in enumerate(machines, start=1)
    ]
    with open(path + ".profile.json", "w") as fh:
        json.dump(obj, fh)


def make_workload(
    name: str, seed: int, workdir: str, tiny: bool = False
) -> list[InstanceSpec]:
    """Write the workload's job and profile files; return one spec per instance.

    `tiny` shrinks every instance to a size the smoke test can run in seconds.
    """
    rng = random.Random(f"{name}:{seed}")
    specs = []

    def add(tag, jobs, machines, eps, alpha0, **known):
        path = f"{workdir}/{tag}"
        _write(path, jobs, machines)
        specs.append(
            InstanceSpec(
                path + ".jobs", path + ".profile.json", len(jobs),
                len(machines), eps, alpha0, **known,
            )
        )

    if name == "dp-small":
        # n=20, m=2, 11 groups; then n=12, m=3, 7 groups (oracle-sized)
        one = [2] * 4 + [1] * 2 if tiny else [3, 3] + [2] * 5 + [1] * 4
        two = [2] + [1] * 4 if tiny else [2] * 5 + [1] * 2
        jobs = _pattern_jobs(rng, one, 20)
        add("one", jobs, _step_profiles(rng, 2, 0.5, 3, 1.0, 10.0), 0.5, 0.5)
        jobs = _pattern_jobs(rng, two, 20)
        add("two", jobs, _step_profiles(rng, 3, 0.5, 3, 1.0, 10.0), 1.0, 0.5)
    elif name == "stream-wide":
        n = 2_000 if tiny else 200_000
        jobs = [rng.randint(1, 1_000_000) for _ in range(n)]
        add("wide", jobs, _step_profiles(rng, 1, 0.5, 3, 1.0, 10.0), 1.0, 0.5)
    elif name == "stream-narrow-known":
        n = 3_000 if tiny else 300_000
        pieces = 50 if tiny else 2_000
        jobs = [rng.randint(500_000, 1_000_000) for _ in range(n)]
        # pieces of mean length horizon/pieces, where the horizon is the
        # expected total work at the mean capacity 0.75
        mean = n * 750_000 / 0.75 / pieces
        machines = _step_profiles(rng, 1, 0.5, pieces, 0.5 * mean, 1.5 * mean)
        add("narrow", jobs, machines, 1.0, 0.5, n_upper=n, pmax_lower=500_000)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    return specs


def read_jobs(path: str) -> list[int]:
    with open(path) as fh:
        return [int(line) for line in fh if line.strip()]


def speed1_bound(jobs: list[int], m: int) -> float:
    """Optimum at full speed 1: SPT round-robin, the k-th largest job waits
    for ceil(k/m) jobs.  A lower bound because every capacity is <= 1."""
    ordered = sorted(jobs, reverse=True)
    return float(sum(p * ((k + m - 1) // m) for k, p in enumerate(ordered, 1)))


def capacity_bound(jobs: list[int], profiles) -> float:
    """Sum over k of G^-1(S_k), G(t) = total capacity of all machines in
    [0, t), S_k = the k smallest sizes summed.

    A lower bound: when the k-th job completes, at least S_k work has been
    delivered, and the machines deliver at most G(t) by time t.  With one
    machine it is the SPT schedule's total completion time, i.e. OPT.
    """
    cuts = sorted({iv.end for prof in profiles for iv in prof.intervals})
    total = 0.0
    seg = 0
    t = 0.0
    done = 0.0  # G(t)
    rate = sum(prof.intervals[0].alpha for prof in profiles)
    s = 0.0
    for p in sorted(jobs):
        s += p
        while True:
            end = cuts[seg]
            if end == math.inf or done + rate * (end - t) >= s:
                break
            done += rate * (end - t)
            t = end
            seg += 1
            rate = sum(
                prof.intervals[prof.interval_index_at(t)].alpha for prof in profiles
            )
        total += t + (s - done) / rate
    return total


def spt_list_bound(jobs: list[int], profiles, work_to_time) -> float:
    """Total completion of SPT list scheduling: each job, smallest first, goes
    to the machine where it completes earliest.  Feasible, so >= OPT."""
    finish = [0.0] * len(profiles)
    total = 0.0
    for p in sorted(jobs):
        best = None
        for i, prof in enumerate(profiles):
            end = work_to_time(prof, finish[i], float(p))
            if best is None or end < best[0]:
                best = (end, i)
        finish[best[1]] = best[0]
        total += best[0]
    return total

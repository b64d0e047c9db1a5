"""Ground-truth optimal solver for desk-scale instances.

Exhausts all m^n job-to-machine assignments; for a fixed assignment SPT per
machine is optimal because each completion time is a nondecreasing function
of the cumulative work prefix, so the n! orderings collapse away.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .model import Instance, Schedule, evaluate_schedule, spt_on_assignment, work_to_time

MAX_JOBS = 12
MAX_MACHINES = 3


class TooLargeError(ValueError):
    """Instance exceeds the brute-force enumeration guard."""


@dataclass(frozen=True)
class OracleResult:
    opt_value: float
    opt_schedule: Schedule
    assignments_explored: int


def brute_force_opt(instance: Instance) -> OracleResult:
    n = len(instance.jobs)
    m = len(instance.machines)
    if n == 0:
        raise ValueError("instance has no jobs")
    if n > MAX_JOBS or m > MAX_MACHINES:
        raise TooLargeError(f"n={n}, m={m} exceeds guard ({MAX_JOBS}, {MAX_MACHINES})")

    jobs = sorted(instance.jobs, key=lambda j: (j.p, j.id))
    profiles = instance.machines
    best_value = float("inf")
    best_assignment = None
    explored = 0
    for choice in itertools.product(range(m), repeat=n):
        explored += 1
        finish = [0.0] * m
        sigma = 0.0
        for job, mi in zip(jobs, choice):
            end = work_to_time(profiles[mi], finish[mi], float(job.p))
            finish[mi] = end
            sigma += end
            if sigma >= best_value:
                break
        else:
            best_value = sigma
            best_assignment = choice

    assignment = {
        job.id: profiles[mi].machine_index
        for job, mi in zip(jobs, best_assignment)
    }
    schedule = spt_on_assignment(instance, assignment)
    value = evaluate_schedule(instance, schedule)
    return OracleResult(value, schedule, explored)

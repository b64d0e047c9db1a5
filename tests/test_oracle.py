import random

import pytest

from streamsched.model import (
    Instance,
    Job,
    evaluate_schedule,
    flat_profile,
    random_instance,
    spt_on_assignment,
)
from streamsched.oracle import TooLargeError, brute_force_opt



def spt_list_value(ps, m):
    """Classical SPT list scheduling for identical full-capacity machines:
    jobs ascending, each to the machine with the fewest jobs so far (round
    robin over sorted order), which is optimal for total completion time."""
    ps = sorted(ps)
    loads = [[] for _ in range(m)]
    for idx, p in enumerate(ps):
        loads[idx % m].append(p)
    total = 0.0
    for stack in loads:
        t = 0.0
        for p in stack:
            t += p
            total += t
    return total


class TestBruteForce:
    def test_two_machines(self):
        jobs = (Job(1, 1), Job(2, 2), Job(3, 3))
        inst = Instance((flat_profile(1.0, 1), flat_profile(1.0, 2)), jobs, 1.0)
        res = brute_force_opt(inst)
        assert res.opt_value == pytest.approx(7.0)
        assert res.assignments_explored == 8
        assert evaluate_schedule(inst, res.opt_schedule) == pytest.approx(7.0)

    def test_single_machine_spt(self):
        jobs = tuple(Job(i + 1, p) for i, p in enumerate([1, 2, 2, 3, 4]))
        inst = Instance((flat_profile(1.0),), jobs, 1.0)
        assert brute_force_opt(inst).opt_value == pytest.approx(29.0)

    def test_fast_machine_dominates(self):
        jobs = (Job(1, 4),)
        inst = Instance((flat_profile(1.0, 1), flat_profile(0.5, 2)), jobs, 0.5)
        res = brute_force_opt(inst)
        assert res.opt_value == pytest.approx(4.0)
        assert res.opt_schedule.placements[0].machine_index == 1

    def test_guard(self):
        jobs = tuple(Job(i + 1, 1) for i in range(13))
        inst = Instance((flat_profile(1.0),), jobs, 1.0)
        with pytest.raises(TooLargeError):
            brute_force_opt(inst)

    def test_matches_classical_spt_optimum(self):
        rng = random.Random(17)
        for _ in range(10):
            n = rng.randint(2, 8)
            m = rng.randint(1, 3)
            ps = [rng.randint(1, 15) for _ in range(n)]
            jobs = tuple(Job(i + 1, p) for i, p in enumerate(ps))
            machines = tuple(flat_profile(1.0, i + 1) for i in range(m))
            inst = Instance(machines, jobs, 1.0)
            assert brute_force_opt(inst).opt_value == pytest.approx(
                spt_list_value(ps, m)
            )

    def test_lower_bounds_every_feasible_schedule(self):
        rng = random.Random(19)
        for _ in range(10):
            inst = random_instance(rng, rng.randint(2, 6), rng.randint(1, 3), 15, 0.5)
            opt = brute_force_opt(inst).opt_value
            for _ in range(5):
                assignment = {
                    j.id: rng.choice(inst.machines).machine_index for j in inst.jobs
                }
                value = evaluate_schedule(inst, spt_on_assignment(inst, assignment))
                assert opt <= value * (1 + 1e-9)

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamsched.assigner import emit
from streamsched.model import (
    Instance,
    Job,
    MissingJobError,
    OverlapError,
    PlacedJob,
    Schedule,
    WorkMismatchError,
    evaluate_schedule,
    flat_profile,
    random_profile,
    read_schedule_csv,
    run_batch,
    spt_on_assignment,
    work_between,
    work_to_time,
    write_schedule_csv,
)
from streamsched.planner import plan
from streamsched.sketch import sketch_stream

from conftest import make_profile


class TestWorkToTime:
    def test_piecewise_integration(self):
        prof = make_profile([(2, 1.0), (2, 0.5), (None, 1.0)])
        assert work_to_time(prof, 0, 3) == pytest.approx(4.0)

    def test_zero_work_identity(self):
        prof = make_profile([(2, 1.0), (2, 0.5), (None, 1.0)])
        assert work_to_time(prof, 3.7, 0) == 3.7

    def test_mid_interval_start(self):
        prof = make_profile([(2, 1.0), (2, 0.5), (None, 1.0)])
        assert work_to_time(prof, 3, 2) == pytest.approx(5.5)

    def test_full_capacity_is_additive(self):
        prof = flat_profile(1.0)
        for s, w in [(0.0, 1.0), (2.5, 3.25), (10.0, 0.5)]:
            assert work_to_time(prof, s, w) == s + w


class TestRunBatch:
    def test_full_capacity_prefix_sums(self, unit_profile):
        sigma = run_batch(unit_profile, 0, 3, 1)
        completions = [work_to_time(unit_profile, 0, j) for j in (1, 2, 3)]
        assert completions == [1, 2, 3]
        assert sigma == sum(completions) == 6
        assert work_to_time(unit_profile, 0, 3 * 1) == 3

    def test_half_capacity_doubles(self):
        prof = flat_profile(0.5)
        sigma = run_batch(prof, 0, 3, 1)
        completions = [work_to_time(prof, 0, j) for j in (1, 2, 3)]
        assert completions == [2, 4, 6]
        assert sigma == sum(completions) == 12
        assert work_to_time(prof, 0, 3 * 1) == 6

    def test_empty_batch(self, unit_profile):
        assert run_batch(unit_profile, 5.0, 0, 1) == 0
        assert work_to_time(unit_profile, 5.0, 0 * 1) == 5.0


class TestInstance:
    def test_repeated_machine_index_rejected(self):
        # evaluate_schedule keys profiles by index and would drop one
        profiles = (flat_profile(1.0, 1), flat_profile(0.5, 1))
        with pytest.raises(ValueError, match="machine index 1 appears twice"):
            Instance(profiles, (Job(1, 4), Job(2, 4)), 0.5)


class TestWorkCoordinates:
    def test_work_at_and_time_at_invert(self):
        prof = make_profile([(2, 1.0), (2, 0.5), (None, 0.25)])
        for t, w in [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 2.5), (6.0, 3.5)]:
            assert prof.work_at(t) == w
            assert prof.time_at(w) == t


class TestEvaluateSchedule:
    def _spt_instance(self):
        jobs = tuple(Job(i + 1, p) for i, p in enumerate([1, 2, 2, 3, 4]))
        return Instance((flat_profile(1.0),), jobs, 1.0)

    def test_spt_back_to_back(self):
        inst = self._spt_instance()
        sched = spt_on_assignment(inst, {j.id: 1 for j in inst.jobs})
        assert evaluate_schedule(inst, sched) == pytest.approx(29.0)

    def test_single_job_half_capacity(self):
        inst = Instance((flat_profile(0.5),), (Job(1, 4),), 0.5)
        sched = Schedule((PlacedJob(1, 1, 0.0, 8.0),))
        assert evaluate_schedule(inst, sched) == pytest.approx(8.0)

    def test_overlap_rejected(self):
        inst = Instance((flat_profile(1.0),), (Job(1, 2), Job(2, 2)), 1.0)
        sched = Schedule((PlacedJob(1, 1, 0.0, 2.0), PlacedJob(2, 1, 1.0, 3.0)))
        with pytest.raises(OverlapError):
            evaluate_schedule(inst, sched)

    def test_work_mismatch_rejected(self):
        inst = Instance((flat_profile(1.0),), (Job(1, 2),), 1.0)
        sched = Schedule((PlacedJob(1, 1, 0.0, 3.0),))
        with pytest.raises(WorkMismatchError):
            evaluate_schedule(inst, sched)

    def test_missing_job_rejected(self):
        inst = Instance((flat_profile(1.0),), (Job(1, 2), Job(2, 2)), 1.0)
        sched = Schedule((PlacedJob(1, 1, 0.0, 2.0),))
        with pytest.raises(MissingJobError):
            evaluate_schedule(inst, sched)

    def test_duplicate_placement_rejected(self):
        inst = Instance((flat_profile(1.0),), (Job(1, 2),), 1.0)
        sched = Schedule((PlacedJob(1, 1, 0.0, 2.0), PlacedJob(1, 1, 2.0, 4.0)))
        with pytest.raises(MissingJobError):
            evaluate_schedule(inst, sched)


class TestScheduleCsv:
    def test_emitted_schedule_survives_round_trip(self, tmp_path):
        # completion times up to ~1e8 on a fractional-capacity machine need
        # more than 12 significant digits to re-derive each job's work
        rng = random.Random(5)
        profiles = (random_profile(rng, 0.5),)
        stream = [rng.randint(1, 1000) for _ in range(10**5)]
        plan_ = plan(sketch_stream(stream, 1.0, 0.5), profiles, 1.0, 0.5)
        schedule, _ = emit(plan_, stream, profiles)
        path = tmp_path / "schedule.csv"
        write_schedule_csv(schedule, str(path))
        back = read_schedule_csv(str(path))
        assert back == schedule
        jobs = tuple(Job(i, p) for i, p in enumerate(stream, 1))
        sigma = sum(placed.completion for placed in schedule.placements)
        inst = Instance(profiles, jobs, 0.5)
        assert evaluate_schedule(inst, back) == pytest.approx(sigma)


class TestSptOnAssignment:
    def test_two_machine_split(self):
        jobs = (Job(1, 1), Job(2, 2), Job(3, 3))
        inst = Instance((flat_profile(1.0, 1), flat_profile(1.0, 2)), jobs, 1.0)
        sched = spt_on_assignment(inst, {1: 1, 2: 2, 3: 1})
        assert evaluate_schedule(inst, sched) == pytest.approx(7.0)

    def test_empty_machine_contributes_nothing(self):
        jobs = (Job(1, 1),)
        inst = Instance((flat_profile(1.0, 1), flat_profile(1.0, 2)), jobs, 1.0)
        sched = spt_on_assignment(inst, {1: 1})
        assert all(p.machine_index == 1 for p in sched.placements)
        assert evaluate_schedule(inst, sched) == pytest.approx(1.0)


profile_strategy = st.builds(
    lambda seed, alpha0: (random_profile(random.Random(seed), alpha0), alpha0),
    st.integers(0, 10**6),
    st.sampled_from([0.3, 0.5, 0.8, 1.0]),
)


@given(profile_strategy, st.floats(0, 50), st.floats(0, 100))
def test_work_to_time_inverse_consistency(prof_alpha, start, work):
    prof, _ = prof_alpha
    t = work_to_time(prof, start, work)
    assert work_between(prof, start, t) == pytest.approx(work, rel=1e-9, abs=1e-9)


@given(profile_strategy, st.floats(0, 20), st.integers(0, 40), st.integers(1, 9))
def test_batch_matches_job_by_job_walk(prof_alpha, start, count, p):
    # the closed form against the walk it replaced, one job at a time
    prof, _ = prof_alpha
    t, sigma = start, 0.0
    for _ in range(count):
        t = work_to_time(prof, t, p)
        sigma += t
    finish = work_to_time(prof, start, count * p)
    assert finish == pytest.approx(t, rel=1e-12)
    assert run_batch(prof, start, count, p) == pytest.approx(sigma, rel=1e-12)


@given(profile_strategy, st.floats(0, 20), st.integers(0, 5), st.integers(0, 5),
       st.integers(1, 9))
def test_batch_concatenation(prof_alpha, start, a, b, p):
    prof, _ = prof_alpha
    first_finish = work_to_time(prof, start, a * p)
    whole = run_batch(prof, start, a + b, p)
    first = run_batch(prof, start, a, p)
    second = run_batch(prof, first_finish, b, p)
    whole_finish = work_to_time(prof, start, (a + b) * p)
    assert whole_finish == pytest.approx(
        work_to_time(prof, first_finish, b * p), rel=1e-12
    )
    assert whole == pytest.approx(first + second, rel=1e-12)


@given(profile_strategy, st.floats(0, 30), st.integers(1, 8), st.integers(1, 10))
def test_identical_batch_sigma_bounds(prof_alpha, t0, x, p):
    prof, alpha0 = prof_alpha
    sigma = run_batch(prof, t0, x, p)
    lo = x * t0 + x * (1 + x) * p / 2.0
    hi = x * t0 + x * (1 + x) * p / (2.0 * alpha0)
    assert lo <= sigma * (1 + 1e-12)
    assert sigma <= hi * (1 + 1e-12)


@given(profile_strategy, st.floats(0.1, 30), st.integers(1, 8), st.integers(1, 10),
       st.floats(0.01, 1.0))
@settings(max_examples=200)
def test_batch_shift_inequality(prof_alpha, t0, x, p, delta):
    prof, alpha0 = prof_alpha
    base = run_batch(prof, t0, x, p)
    shifted = run_batch(prof, (1 + delta) * t0, x, p)
    assert shifted <= (1 + delta / alpha0) * base * (1 + 1e-12)


@given(profile_strategy, st.floats(0, 30), st.integers(1, 8), st.integers(1, 10),
       st.floats(0.01, 1.0))
@settings(max_examples=200)
def test_batch_append_inequality(prof_alpha, t0, x, p, delta):
    prof, alpha0 = prof_alpha
    base = run_batch(prof, t0, x, p)
    extended = run_batch(prof, t0, x + math.floor(x * delta), p)
    assert extended <= (1 + 3 * delta / alpha0) * base * (1 + 1e-12)

import math
import random
import tracemalloc
from operator import itemgetter

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
    ScheduleError,
    WorkMismatchError,
    evaluate_schedule,
    flat_profile,
    profiles_from_obj,
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

from conftest import make_profile, mutants


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

    def test_repeated_job_id_rejected(self):
        # 7 is the first id seen a second time, though 3 comes first
        jobs = (Job(3, 1), Job(7, 2), Job(7, 4), Job(3, 1))
        with pytest.raises(ValueError, match="^job id 7 appears twice$"):
            Instance((flat_profile(1.0),), jobs, 1.0)

    def test_equality_hash_and_repr_ignore_the_size_map(self):
        jobs = (Job(1, 2), Job(2, 3))
        a = Instance((flat_profile(1.0),), jobs, 1.0)
        b = Instance((flat_profile(1.0),), jobs, 1.0)
        object.__setattr__(b, "_sizes", {})
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert "_sizes" not in repr(a) and "3.0" not in repr(a)
        assert a._fields == ("machines", "jobs", "alpha0")

    def test_evaluate_leaves_the_size_map_whole(self):
        # a rejected schedule pops sizes from evaluate's copy, not the map
        inst = Instance((flat_profile(0.5),), (Job(1, 3), Job(2, 1)), 0.5)
        schedule = Schedule(((1, 1, 0.0, 6.0), (2, 1, 6.0, 8.0)))
        repeated = Schedule(((1, 1, 0.0, 6.0), (1, 1, 0.0, 6.0), (2, 1, 6.0, 8.0)))
        sigma = evaluate_schedule(inst, schedule)
        with pytest.raises(MissingJobError, match="job 1 placed more than once"):
            evaluate_schedule(inst, repeated)
        assert evaluate_schedule(inst, schedule).hex() == sigma.hex() == (14.0).hex()
        assert inst._sizes == {1: 3.0, 2: 1.0}


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

    def test_many_unplaced_jobs_named_in_one_short_line(self):
        # a schedule cut off halfway names ten ids and the count, not 5,000
        n = 10**4
        jobs = tuple(Job(i, 1) for i in range(1, n + 1))
        inst = Instance((flat_profile(1.0),), jobs, 1.0)
        sched = Schedule((i, 1, i - 1.0, float(i)) for i in range(1, n // 2 + 1))
        with pytest.raises(MissingJobError) as caught:
            evaluate_schedule(inst, sched)
        text = str(caught.value)
        assert len(text) < 200 and "\n" not in text
        assert text.startswith("jobs never placed: [5001, 5002,")
        assert "5000 in all" in text

    def test_duplicate_placement_rejected(self):
        inst = Instance((flat_profile(1.0),), (Job(1, 2),), 1.0)
        sched = Schedule((PlacedJob(1, 1, 0.0, 2.0), PlacedJob(1, 1, 2.0, 4.0)))
        with pytest.raises(MissingJobError):
            evaluate_schedule(inst, sched)


    @pytest.mark.parametrize(
        "start, completion",
        [(-1e-10, 3 - 1e-10), (0.0, math.inf), (math.nan, 4.0), (0.0, math.nan)],
        ids=["negative-start", "infinite-completion", "nan-start", "nan-completion"],
    )
    def test_placement_outside_the_timeline_rejected(self, start, completion):
        # at -1e-10 the overlap check's 1e-9 slack would let the job through,
        # and it would be measured on the last interval: by t = 3 the machine
        # has delivered only 2 units
        prof = make_profile([(2, 0.5), (None, 1.0)])
        inst = Instance((prof,), (Job(1, 3),), 0.5)
        sched = Schedule((PlacedJob(1, 1, start, completion),))
        with pytest.raises(ScheduleError, match="job 1: start .* must satisfy"):
            evaluate_schedule(inst, sched)

    def test_completion_at_start_keeps_its_message(self):
        inst = Instance((flat_profile(1.0),), (Job(1, 2),), 1.0)
        sched = Schedule((PlacedJob(1, 1, -1.0, -1.0),))
        with pytest.raises(WorkMismatchError, match="completion -1.0 <= start -1.0"):
            evaluate_schedule(inst, sched)

    def test_job_ending_on_a_boundary(self):
        # one job ends where its interval ends, the next crosses two
        # boundaries; the cursor must measure both as work_between does
        prof = make_profile([(2, 0.5), (1, 1.0), (2, 0.5), (None, 1.0)])
        inst = Instance((prof,), (Job(1, 1), Job(2, 2)), 0.5)
        sched = Schedule((PlacedJob(1, 1, 0.0, 2.0), PlacedJob(2, 1, 2.0, 5.0)))
        assert evaluate_schedule(inst, sched) == 7.0


def reference_evaluate(instance, schedule):
    """evaluate_schedule as it was before its interval cursor: a bisection
    and work_between for every job, without the timeline check on starts
    and completions; the equivalence test compares the two."""
    sizes = {j.id: j.p for j in instance.jobs}
    seen = set()
    profiles = {p.machine_index: p for p in instance.machines}
    per_machine = {}
    for pl in schedule.placements:
        job_id, mi, start, completion = pl
        if job_id not in sizes:
            raise MissingJobError(f"placement for unknown job {job_id}")
        if job_id in seen:
            raise MissingJobError(f"job {job_id} placed more than once")
        seen.add(job_id)
        if mi not in profiles:
            raise ScheduleError(f"unknown machine {mi}")
        if completion <= start:
            raise WorkMismatchError(f"job {job_id}: completion <= start")
        per_machine.setdefault(mi, []).append(pl)
    if set(sizes) - seen:
        raise MissingJobError("jobs never placed")
    total = 0.0
    for mi, placed in per_machine.items():
        profile = profiles[mi]
        placed.sort(key=itemgetter(2))
        prev_end = 0.0
        for job_id, _mi, start, completion in placed:
            if start < prev_end and not _close(start, prev_end):
                raise OverlapError(f"machine {mi}: job {job_id} overlaps")
            delivered = work_between(profile, start, completion)
            if not _close(delivered, float(sizes[job_id])):
                raise WorkMismatchError(f"job {job_id}: delivered {delivered}")
            prev_end = completion
            total += completion
    return total


def _close(a, b):
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def _outcome(evaluate, inst, sched):
    try:
        return evaluate(inst, sched)
    except ScheduleError as exc:
        return type(exc)


def test_evaluator_matches_reference_on_emitted_and_mutated_schedules():
    rng = random.Random(41)
    outcomes = []
    rejected = 0
    for _ in range(400):
        m = rng.randint(1, 3)
        profiles = tuple(random_profile(rng, 0.5, i + 1, 8) for i in range(m))
        max_p = rng.choice([5, 30])
        stream = [rng.randint(1, max_p) for _ in range(rng.randint(2, 9))]
        jobs = tuple(Job(i, p) for i, p in enumerate(stream, 1))
        inst = Instance(profiles, jobs, 0.5)
        pl = plan(sketch_stream(stream, 1.0, 0.5), profiles, 1.0, 0.5)
        sched, _ = emit(pl, stream, profiles)
        for s in [sched, *mutants(rng, inst, sched.placements)]:
            new = _outcome(evaluate_schedule, inst, s)
            if any(
                completion > start and not 0.0 <= start < completion < math.inf
                for _j, _mi, start, completion in s.placements
            ):  # the reference does not check this
                assert isinstance(new, type) and issubclass(new, ScheduleError)
                rejected += 1
                continue
            assert new == _outcome(reference_evaluate, inst, s)
            outcomes.append(new if isinstance(new, type) else float)
    assert len(outcomes) > 1800 and rejected > 0
    assert set(outcomes) == {
        float, OverlapError, WorkMismatchError, MissingJobError, ScheduleError
    }


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


    def test_rejects_ids_outside_int64(self, tmp_path):
        path = tmp_path / "schedule.csv"
        header = "job_id,machine,start,completion\n"
        path.write_text(header + f"1,1,0.0,1.0\n{2**63},1,1.0,2.0\n")
        with pytest.raises(ValueError, match=f"row 2: job_id {2**63} is outside"):
            read_schedule_csv(str(path))
        path.write_text(header + f"1,{-2**63 - 1},0.0,1.0\n")
        with pytest.raises(ValueError, match=f"row 1: machine {-2**63 - 1} is"):
            read_schedule_csv(str(path))
        path.write_text(header + f"{2**63 - 1},{-2**63},0.0,1.0\n")
        back = read_schedule_csv(str(path))
        assert list(back.placements) == [(2**63 - 1, -2**63, 0.0, 1.0)]


class TestSchedule:
    ROWS = [(1, 2, 0.0, 1.5), PlacedJob(3, 1, 0.5, 2.0), (2, 2, 1.5, 4.0)]

    def test_columns_and_view(self):
        schedule = Schedule(self.ROWS)
        assert schedule.job_ids.typecode == schedule.machines.typecode == "q"
        assert schedule.starts.typecode == schedule.completions.typecode == "d"
        assert list(schedule.job_ids) == [1, 3, 2]
        view = schedule.placements
        assert len(view) == 3
        assert all(type(pl) is PlacedJob for pl in view)
        assert list(view) == self.ROWS
        assert view[1].completion == 2.0 and view[-1].job_id == 2
        assert view[1:] == tuple(self.ROWS[1:])
        with pytest.raises(IndexError):
            view[3]

    def test_equality_and_from_columns(self):
        schedule = Schedule(self.ROWS)
        same = Schedule.from_columns(
            schedule.job_ids, schedule.machines, schedule.starts,
            schedule.completions,
        )
        assert same == schedule == Schedule(iter(self.ROWS))
        assert Schedule(self.ROWS[:2]) != schedule
        assert Schedule() == Schedule([]) and len(Schedule().placements) == 0
        with pytest.raises(ValueError, match="differ in length"):
            Schedule.from_columns(
                schedule.job_ids, schedule.machines, schedule.starts,
                schedule.completions[:2],
            )

    def test_view_builds_no_tuple_of_placements(self):
        # the whole tuple would take about 10 MB
        n = 10**5
        schedule = Schedule((k, 1, float(k), k + 1.0) for k in range(1, n + 1))
        tracemalloc.start()
        try:
            view = schedule.placements
            size = len(view)
            first, last = view[0], view[-1]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size == n
        assert first == (1, 1, 1.0, 2.0) and last == (n, 1, float(n), n + 1.0)
        assert peak < 10_000


@pytest.mark.parametrize("machine", [2**63, -2**63 - 1, 10**30])
def test_profile_machine_outside_int64_rejected(machine):
    raw = [{"machine": machine, "pieces": [{"end": None, "alpha": 1.0}]}]
    with pytest.raises(ValueError, match=f"machine {machine} is outside the signed"):
        profiles_from_obj(raw)
    raw[0]["machine"] = 2**63 - 1
    assert profiles_from_obj(raw)[0].machine_index == 2**63 - 1


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

import gc
import hashlib
import itertools
import json
import math
import random
import tracemalloc
from pathlib import Path

import pytest
from conftest import (
    boundary_streams, exact_fit_stream, golden_instance, make_profile, mutants,
)

from streamsched import budget
from streamsched.assigner import StreamMismatchError, emit
from streamsched.model import (
    CapacityInterval,
    Instance,
    Job,
    MachineProfile,
    PlacedJob,
    Schedule,
    ScheduleError,
    evaluate_schedule,
    flat_profile,
    random_profile,
    work_to_time,
)
from streamsched.oracle import brute_force_opt
from streamsched.planner import Plan, plan, plan_at
from streamsched.sketch import (
    KnowledgeMode, bucket_index, rounded_value, sketch_stream,
)


def build_plan(stream, profiles, eps=1.0, alpha0=1.0, mode=None):
    sk = sketch_stream(stream, eps, alpha0, mode)
    return plan(sk, profiles, eps, alpha0)


def reference_slots(pl, stream, profiles):
    """Each job's slot by the rule `emit` documents, from bucket_index and
    rounded_value: (profile, work coordinate at the slot's start) for a
    large job, None for a small one."""
    tau, groups = budget.tau(pl.eps, pl.alpha0), pl.groups
    group_of = {rp: g for g, (rp, _nk) in enumerate(groups)}
    remaining = [list(row) for row in pl.counts]
    cursors = []
    for i, (profile, row) in enumerate(zip(profiles, pl.counts)):
        w = profile.work_at(pl.small_reservation) if i == 0 else 0.0
        starts = []
        for (rp, _nk), count in zip(groups, row):
            starts.append(w)
            w = w + count * rp
        cursors.append(starts)
    slots = []
    for p in stream:
        g = group_of.get(rounded_value(bucket_index(p, tau), tau))
        free = [i for i, row in enumerate(remaining) if g is not None and row[g]]
        if not free:
            slots.append(None)
            continue
        i = free[0]
        slots.append((profiles[i], cursors[i][g]))
        cursors[i][g] += groups[g][0]
        remaining[i][g] -= 1
    return slots


def assert_large_jobs_match_reference(pl, stream, profiles):
    """Every large job starts at G^-1 of its slot's work coordinate and
    completes where work_to_time puts p units of work after that start,
    both compared with ==."""
    sched, report = emit(pl, stream, profiles)
    slots = reference_slots(pl, stream, profiles)
    assert report.small_placed == slots.count(None)
    for placed, p, slot in zip(sched.placements, stream, slots):
        if slot is None:
            continue
        profile, w = slot
        assert placed.machine_index == profile.machine_index
        assert placed.start == profile.time_at(w)
        assert placed.completion == work_to_time(profile, placed.start, float(p))
    return sched, report


class TestEmit:
    def test_reference_replay(self, unit_profile):
        pl = build_plan([1, 1, 2], (unit_profile,))
        schedule, report = emit(pl, [1, 1, 2], (unit_profile,))
        # every job is in the sketch, so machine 1 reserves nothing
        assert pl.small_reservation == 0.0
        completions = sorted(p.completion for p in schedule.placements)
        assert completions == pytest.approx([1, 2, 4])
        sigma = sum(completions)
        assert sigma == pytest.approx(7)
        assert sigma <= pl.V
        assert report.small_placed == 0

    def test_small_jobs_in_arrival_order(self, unit_profile):
        # only p=100 survives the sketch; the two unit jobs are small
        pl = build_plan([1, 1, 100], (unit_profile,))
        schedule, report = emit(pl, [1, 1, 100], (unit_profile,))
        smalls = [p for p in schedule.placements if p.job_id in (1, 2)]
        assert smalls[0].start == 0.0
        assert smalls[1].start == smalls[0].completion
        assert report.small_placed == 2

    def test_permuted_stream_same_sigma(self):
        # exact sigma invariance needs constant per-machine capacity; under a
        # varying profile the slot matching is nonlinear in the true lengths
        rng = random.Random(13)
        profiles = (flat_profile(1.0, 1), flat_profile(0.5, 2))
        stream = [rng.randint(1, 30) for _ in range(8)]
        pl = build_plan(stream, profiles, eps=0.5, alpha0=0.5)
        base, _ = emit(pl, stream, profiles)
        sigma0 = sum(p.completion for p in base.placements)
        for _ in range(5):
            rng.shuffle(stream)
            sched, _ = emit(pl, stream, profiles)
            assert sum(p.completion for p in sched.placements) == pytest.approx(sigma0)

    def test_permuted_stream_feasible_on_varying_profiles(self):
        rng = random.Random(14)
        profiles = tuple(random_profile(rng, 0.5, i + 1) for i in range(2))
        stream = [rng.randint(1, 30) for _ in range(8)]
        pl = build_plan(stream, profiles, eps=0.5, alpha0=0.5)
        jobs_sorted = sorted(stream)
        for _ in range(5):
            rng.shuffle(stream)
            sched, _ = emit(pl, stream, profiles)
            jobs = tuple(Job(i + 1, p) for i, p in enumerate(stream))
            inst = Instance(profiles, jobs, 0.5)
            sigma = evaluate_schedule(inst, sched)
            assert sigma <= pl.V * (1 + 1e-9)
            assert sorted(stream) == jobs_sorted

    def test_emitted_schedules_feasible(self):
        rng = random.Random(21)
        for _ in range(20):
            m = rng.randint(1, 3)
            profiles = tuple(random_profile(rng, 0.5, i + 1) for i in range(m))
            stream = [rng.randint(1, 20) for _ in range(rng.randint(3, 8))]
            pl = build_plan(stream, profiles, eps=1.0, alpha0=0.5)
            sched, _ = emit(pl, stream, profiles)
            jobs = tuple(Job(i + 1, p) for i, p in enumerate(stream))
            inst = Instance(profiles, jobs, 0.5)
            sigma = evaluate_schedule(inst, sched)
            assert sigma == pytest.approx(
                sum(p.completion for p in sched.placements)
            )

    def test_profiles_other_than_planned_stay_feasible(self):
        # slots are laid out on the profiles pass 2 is given, not the
        # planned ones, so a slower machine stretches them instead of
        # making them overlap
        stream = [5, 9, 9, 14, 20]
        pl = build_plan(stream, (flat_profile(1.0, 1),), eps=1.0, alpha0=0.5)
        slow = (flat_profile(0.5, 1),)
        sched, _ = emit(pl, stream, slow)
        jobs = tuple(Job(i + 1, p) for i, p in enumerate(stream))
        sigma = evaluate_schedule(Instance(slow, jobs, 0.5), sched)
        assert sigma == pytest.approx(sum(p.completion for p in sched.placements))

    @pytest.mark.parametrize("m", [1, 3])
    def test_profile_count_must_match_plan(self, m):
        profiles = (flat_profile(1.0, 1), flat_profile(1.0, 2))
        pl = build_plan([1, 2, 3], profiles)
        given = tuple(flat_profile(1.0, i + 1) for i in range(m))
        with pytest.raises(ValueError, match=f"2 machines, got {m} profiles"):
            emit(pl, [1, 2, 3], given)

    def test_repeated_machine_number_rejected(self):
        # a job that crosses its slot's interval finds its profile by number
        pl = build_plan([1, 2, 3], (flat_profile(1.0, 1), flat_profile(1.0, 2)))
        given = (flat_profile(1.0, 2), flat_profile(0.5, 2))
        with pytest.raises(ValueError, match="^machine index 2 appears twice$"):
            emit(pl, [1, 2, 3], given)

    def test_groups_past_two_to_the_53(self):
        profiles = (flat_profile(0.75),)
        for stream in boundary_streams(budget.tau(1.0, 0.75)):
            pl = build_plan(stream, profiles, alpha0=0.75)
            assert len(pl.groups) == 2  # t - 1 and t round apart
            _, report = assert_large_jobs_match_reference(pl, stream, profiles)
            assert report.small_placed == 0

    def test_many_pieces_two_machines_shuffled(self):
        rng = random.Random(31)
        profiles = tuple(
            make_profile(
                [(rng.uniform(20, 60), rng.uniform(0.5, 1.0)) for _ in range(600)]
                + [(None, 0.8)],
                machine_index=i + 1,
            )
            for i in range(2)
        )
        stream = [1] * 3 + [3] * 4 + [100] * 7 + [230] * 6 + [5000] * 5
        # at the proven delta the plan splits the 5000s 3-2; plan()'s
        # certified coarse run puts 4 on machine 2, short of piece 300 on 1
        sk = sketch_stream(stream, 1.0, 0.5)
        delta = budget.delta(1.0, 0.5, len(sk.entries))
        pl = plan_at(sk, profiles, 1.0, 0.5, delta)
        assert all(any(row) for row in pl.counts)
        for _ in range(4):
            rng.shuffle(stream)
            sched, report = assert_large_jobs_match_reference(pl, stream, profiles)
            assert report.small_placed == 3
            # the slots reach deep into both 600-piece profiles
            for profile in profiles:
                last = max(
                    pj.completion for pj in sched.placements
                    if pj.machine_index == profile.machine_index
                )
                assert profile.interval_index_at(last) > 300

    def test_slots_on_and_across_interval_boundaries(self):
        # every piece delivers exactly one unit of work, so slots of whole
        # rounded sizes start on boundaries and a job of its slot's size ends
        # on one; larger jobs cross many, and those rounded up end mid-piece
        rng = random.Random(32)
        profiles = (
            make_profile([(2, 0.5), (1, 1.0)] * 200 + [(None, 1.0)], 1),
            make_profile([(1, 1.0), (2, 0.5)] * 200 + [(None, 0.5)], 2),
        )
        stream = [1] * 40 + [2] * 30 + [3] * 20 + [100] * 5 + [230] * 4
        pl = build_plan(stream, profiles, eps=1.0, alpha0=0.5)
        assert all(any(row) for row in pl.counts)
        by_machine = {p.machine_index: p for p in profiles}
        for _ in range(4):
            rng.shuffle(stream)
            sched, report = assert_large_jobs_match_reference(pl, stream, profiles)
            assert report.small_placed == 0
            kinds = set()
            for pj in sched.placements:
                prof = by_machine[pj.machine_index]
                i = prof.interval_index_at(pj.start)
                end = prof.intervals[i].end
                kinds.add(
                    "on" if pj.completion == end
                    else "inside" if pj.completion < end else "across"
                )
            assert kinds == {"on", "inside", "across"}

    def test_stream_mismatch(self, unit_profile):
        pl = build_plan([1, 1, 2], (unit_profile,))
        with pytest.raises(StreamMismatchError):
            emit(pl, [1, 2], (unit_profile,))

    def test_large_job_in_no_group_is_a_mismatch(self, unit_profile):
        # a small job rounds below every group, so a job that rounds to no
        # group from the smallest one up belongs to another stream: past
        # every group, or between two of them
        pl = build_plan([1, 1, 2], (unit_profile,))
        for p in (3, 1000, 2**60):
            match = rf"job 3 \(p={p}\) rounds to no plan group"
            with pytest.raises(StreamMismatchError, match=match):
                emit(pl, [1, 1, p], (unit_profile,))
        pl = build_plan([1, 1, 5], (unit_profile,))
        assert [rp for rp, _nk in pl.groups] == [1, 5]
        with pytest.raises(StreamMismatchError, match=r"job 1 \(p=3\)"):
            emit(pl, [3, 1, 1], (unit_profile,))
        # the float-range check still comes first
        with pytest.raises(ValueError, match="job 3: processing time"):
            emit(pl, [1, 1, 2**1023], (unit_profile,))


def hand_plan(groups, counts, n, small_reservation=0.0):
    """A plan pass 2 can replay, without running pass 1 or the planner."""
    return Plan(
        V=0.0, sigma_S_prime=0.0, eps=1.0, alpha0=0.5, n=n,
        small_reservation=small_reservation, groups=groups, counts=counts,
    )


class TestHandBuiltPlans:
    def test_small_job_past_the_reservation_is_a_mismatch(self):
        # the second job rounds below the plan's only group, so it is small,
        # and its 3 units of work cannot fit in the 0.005 that machine 1
        # delivers in the 0.01 reservation ahead of the group's slot
        tau = 1 / 30
        rp = rounded_value(bucket_index(7, tau), tau)
        pl = hand_plan(((rp, 1),), ((1,),), 2, small_reservation=0.01)
        match = r"^job 2 \(p=3\) takes the small jobs' work to 3, past the 0\.005 "
        with pytest.raises(StreamMismatchError, match=match):
            emit(pl, [rp, 3], (flat_profile(0.5),))

    def test_deep_slots_keep_their_work(self):
        # slots past 6e7 units of work: the job's 3 units must survive the
        # evaluator's 1e-9 check there (G^-1(w + 3) - G^-1(w) does not); the
        # state is built from the counts, not by walking the 6e7 unit slots
        tau = 1 / 30
        rp3 = rounded_value(bucket_index(3, tau), tau)
        pl = hand_plan(((1, 6 * 10**7), (rp3, 2000)), ((6 * 10**7, 2000),), 2000)
        profile = MachineProfile(1, (
            CapacityInterval(0.0, 1.4781709706385704, 0.7963204553135828),
            CapacityInterval(1.4781709706385704, math.inf, 0.9579724058654906),
        ))
        sched, report = emit(pl, [3] * 2000, (profile,))
        assert report.small_placed == 0
        jobs = tuple(Job(i, 3) for i in range(1, 2001))
        sigma = evaluate_schedule(Instance((profile,), jobs, 0.5), sched)
        assert sigma == pytest.approx(sum(p.completion for p in sched.placements))


class TestThresholdBoundary:
    def test_mismatch_stays_feasible_and_bounded(self, unit_profile):
        # With a job-count bound the largeness threshold moves during pass 1:
        # it is 1040/27 once 1040 has arrived. 38 lies below it but rounds to
        # 39 above it, so it counts in every order, and pass 2 finds each
        # large job a slot whatever order either pass reads.
        mode = KnowledgeMode(n_upper=3)
        eps = alpha0 = 1.0
        inst = Instance(
            (unit_profile,), (Job(1, 38), Job(2, 39), Job(3, 1040)), alpha0
        )
        opt = brute_force_opt(inst).opt_value
        for pass1 in itertools.permutations([39, 1040, 38]):
            pl = build_plan(list(pass1), (unit_profile,), eps, alpha0, mode)
            sched, report = emit(pl, [38, 39, 1040], (unit_profile,))
            assert report.small_placed == 0
            sigma = evaluate_schedule(inst, sched)
            assert sigma <= pl.V * (1 + 1e-9)
            assert sigma <= (1 + eps) * opt * (1 + 1e-9)
        # a replay of the same length but another multiset is not the
        # stream pass 1 sketched: the plan has one slot of rp 2, and a
        # second job of 2 finds it taken
        pl = build_plan([1, 1, 2], (unit_profile,))
        message = (
            r"^job 3 \(p=2\) rounds into plan group 1 \(rp=2\), whose 1 slots "
            r"are all taken$"
        )
        with pytest.raises(StreamMismatchError, match=message):
            emit(pl, [1, 2, 2], (unit_profile,))

    def test_job_after_the_threshold_rise_keeps_its_slot(self, unit_profile):
        # the second 99 arrives once the threshold is 2700/27 = 100, but it
        # rounds to 104 like the first, so the sketch counts both and pass 2
        # finds each a slot
        stream = [99, 2700, 99]
        sk = sketch_stream(stream, 1.0, 1.0, KnowledgeMode(n_upper=3))
        assert sk.entries == ((104, 2), (2802, 1))
        pl = plan(sk, (unit_profile,), 1.0, 1.0)
        _, report = emit(pl, stream, (unit_profile,))
        assert report.small_placed == 0


class TestExactFitReservation:
    def test_small_jobs_that_fill_the_reservation_keep_the_bound(self):
        # the n_s small jobs each equal an integral theta, so they hold
        # exactly the n_s*theta work machine 1 reserves; a chained float
        # completion may still end an ulp past the reservation. [30]*6 +
        # [7000] is one such stream at eps=0.7, alpha0=0.9, flat 0.9.
        rng = random.Random(25)
        cases = [([30] * 6 + [7000], 0.7, 0.9, (flat_profile(0.9),))]
        while len(cases) < 150:
            drawn = exact_fit_stream(rng, rng.randint(1, 6), rng.randint(1, 3))
            if drawn is not None:
                stream, eps, alpha0 = drawn
                m = rng.randint(1, 2)
                profiles = tuple(
                    random_profile(rng, alpha0, i, max_pieces=8)
                    for i in range(1, m + 1)
                )
                cases.append((stream, eps, alpha0, profiles))
        for stream, eps, alpha0, profiles in cases:
            pl = build_plan(stream, profiles, eps, alpha0)
            shuffled = stream[:]
            rng.shuffle(shuffled)
            opt = None
            if len(stream) <= 8:
                jobs = tuple(Job(i, p) for i, p in enumerate(stream, 1))
                opt = brute_force_opt(Instance(profiles, jobs, alpha0)).opt_value
            for order in (stream, sorted(stream), shuffled):
                sched, report = emit(pl, order, profiles)
                assert report.small_placed == stream.count(stream[0])
                jobs = tuple(Job(i, p) for i, p in enumerate(order, 1))
                sigma = evaluate_schedule(Instance(profiles, jobs, alpha0), sched)
                assert sigma <= pl.V, (stream, eps, alpha0, profiles)
                if opt is not None:
                    assert sigma <= (1 + eps) * opt, (stream, eps, alpha0, profiles)


@pytest.fixture(scope="module")
def emitted_at_scale():
    """(stream, profiles, schedule, emit's tracemalloc peak) of 2*10**5 jobs
    up to 10**6 on one machine, planned at eps = 1, alpha0 = 0.5."""
    rng = random.Random(3)
    n = 2 * 10**5
    profiles = (random_profile(rng, 0.5),)
    stream = [rng.randint(1, 10**6) for _ in range(n)]
    pl = build_plan(stream, profiles, 1.0, 0.5)
    tracemalloc.start()
    try:
        schedule, _report = emit(pl, stream, profiles)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return stream, profiles, schedule, peak


def test_emit_holds_at_most_40_bytes_per_job(emitted_at_scale):
    # the schedule's four columns take 32 bytes per job; the peak counts
    # them, their growth and everything else emit allocates
    stream, _profiles, schedule, peak = emitted_at_scale
    n = len(stream)
    assert len(schedule.placements) == n
    assert peak <= 40 * n, f"{peak / n:.1f} bytes per job"


def test_evaluate_holds_at_most_160_bytes_per_job_and_collects_nothing(
    emitted_at_scale,
):
    # the copied size map, a row number and a size per job; a tuple per
    # row (252 bytes per job) would also set off hundreds of collections
    stream, profiles, schedule, _peak = emitted_at_scale
    n = len(stream)
    inst = Instance(profiles, tuple(Job(i, p) for i, p in enumerate(stream, 1)), 0.5)
    collections = []

    def count_collections(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    gc.collect()  # the call starts with the youngest generation empty
    gc.callbacks.append(count_collections)
    tracemalloc.start()
    try:
        sigma = evaluate_schedule(inst, schedule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.callbacks.remove(count_collections)
    assert sigma > 0
    assert peak <= 160 * n, f"{peak / n:.1f} bytes per job"
    assert collections == []


def _emit_golden_cases():
    """(name, plan, stream, profiles) of the emit golden file: the 100 plan
    golden instances at the proven delta; 20 exact-fit streams, whose small
    jobs fill the reservation; 10 instances of 400 to 600 jobs on two or
    three 30-piece profiles, whose pieces are scaled to the work so that
    slots cross interval boundaries throughout and each group's slots move
    between machines, planned at 16,384 times the proven delta (the
    proven-delta DP takes minutes there); and a hand-built plan on three
    machines whose only group has no slot on machine 2."""
    def plan_times(stream, profiles, eps, alpha0, k=1):
        sk = sketch_stream(stream, eps, alpha0)
        delta = budget.delta(eps, alpha0, len(sk.entries))
        return plan_at(sk, profiles, eps, alpha0, k * delta)

    for seed in range(100):
        stream, profiles, eps, alpha0 = golden_instance(seed)
        yield f"golden {seed}", plan_times(stream, profiles, eps, alpha0), stream, profiles
    rng = random.Random(28)
    drawn = []
    while len(drawn) < 20:
        case = exact_fit_stream(rng, rng.randint(1, 6), rng.randint(1, 3))
        if case is not None:
            stream, eps, alpha0 = case
            profiles = tuple(
                random_profile(rng, alpha0, i, max_pieces=8)
                for i in range(1, rng.randint(1, 2) + 1)
            )
            drawn.append((stream, profiles, eps, alpha0))
    for k, (stream, profiles, eps, alpha0) in enumerate(drawn):
        yield f"exact fit {k}", plan_times(stream, profiles, eps, alpha0), stream, profiles
    for seed in range(10):
        rng = random.Random(seed)
        m, n = rng.randint(2, 3), rng.randint(400, 600)
        eps, alpha0 = rng.choice((0.5, 1.0)), rng.choice((0.5, 1.0))
        sizes = [rng.randint(1, 1000) for _ in range(rng.randint(3, 8))]
        stream = [rng.choice(sizes) for _ in range(n)]
        scale = sum(stream) / (m * 30 * 4.25)  # 4.25, the mean piece length
        profiles = tuple(
            make_profile(
                [(rng.uniform(0.5, 8.0) * scale, rng.uniform(alpha0, 1.0))
                 for _ in range(29)] + [(None, rng.uniform(alpha0, 1.0))],
                machine_index=i,
            )
            for i in range(1, m + 1)
        )
        pl = plan_times(stream, profiles, eps, alpha0, 16384)
        yield f"deep {seed}", pl, stream, profiles
    rng = random.Random(29)
    rp = rounded_value(bucket_index(7, 1 / 30), 1 / 30)
    pl = hand_plan(((rp, 5),), ((2,), (0,), (3,)), 5)
    profiles = tuple(random_profile(rng, 0.5, i) for i in (1, 2, 3))
    yield "skip machine 2", pl, [rp] * 5, profiles


def _emit_digest(case_index, pl, stream, profiles):
    """SHA-256 over every placement (job id, machine, start and completion
    as float.hex) and the EmitReport of the stream in given, ascending and
    descending order, then the error class and text of a given-order replay
    with one job edited: to twice the largest job, to 1 or to one more."""
    digest = hashlib.sha256()
    for order in (stream, sorted(stream), sorted(stream, reverse=True)):
        schedule, report = emit(pl, order, profiles)
        for job_id, machine, start, completion in schedule.placements:
            digest.update(
                f"{job_id} {machine} {start.hex()} {completion.hex()}\n".encode()
            )
        digest.update(f"{tuple(report)}\n".encode())
    k = case_index % len(stream)
    edited = list(stream)
    edited[k] = (2 * max(stream), 1, stream[k] + 1)[case_index % 3]
    try:
        emit(pl, edited, profiles)
        outcome = "no error"
    except ValueError as e:
        outcome = f"{type(e).__name__}: {e}"
    digest.update(outcome.encode())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def emit_golden_cases():
    return list(_emit_golden_cases())


def test_emits_match_golden_file(emit_golden_cases):
    """Every placement, the EmitReport and the error of an edited replay of
    131 cases (see _emit_golden_cases), pinned bit for bit.
    tests/data/emit_golden.json was written with the emit that kept one slot
    cursor tuple per group, by

        rows = [{"case": name, "sha256": _emit_digest(k, pl, stream, profiles)}
                for k, (name, pl, stream, profiles)
                in enumerate(_emit_golden_cases())]

    one row per line, with json.dumps(row, sort_keys=True)."""
    path = Path(__file__).parent / "data" / "emit_golden.json"
    rows = json.loads(path.read_text())
    cases = emit_golden_cases
    assert [row["case"] for row in rows] == [name for name, *_rest in cases]
    for k, ((name, pl, stream, profiles), row) in enumerate(zip(cases, rows)):
        assert _emit_digest(k, pl, stream, profiles) == row["sha256"], name


def _eval_golden_cases(emit_cases):
    """(name, instance, schedule) of the evaluator golden file: each emit
    golden schedule in arrival order, 4 seeded mutants of it (see
    conftest.mutants) and its rows reversed; then one hand-built schedule
    per rejection."""
    for k, (name, pl, stream, profiles) in enumerate(emit_cases):
        jobs = tuple(Job(i, p) for i, p in enumerate(stream, 1))
        alpha0 = min(prof.min_alpha for prof in profiles)
        inst = Instance(profiles, jobs, alpha0)
        schedule, _report = emit(pl, stream, profiles)
        yield name, inst, schedule
        edited = mutants(random.Random(k), inst, schedule.placements)
        for e, mutant in enumerate(edited):
            yield f"{name} mutant {e}", inst, mutant
        yield f"{name} reversed", inst, Schedule(reversed(schedule.placements))
    inst = Instance(
        (make_profile([(2, 0.5), (None, 1.0)]), flat_profile(1.0, 2)),
        (Job(1, 3), Job(2, 2)), 0.5,
    )
    rows = {
        "unknown job": [(1, 1, 0.0, 4.0), (2, 2, 0.0, 2.0), (3, 2, 2.0, 4.0)],
        "repeated row": [(1, 1, 0.0, 4.0), (2, 2, 0.0, 2.0), (2, 2, 0.0, 2.0)],
        "unknown machine": [(1, 1, 0.0, 4.0), (2, 3, 0.0, 2.0)],
        "completion at start": [(1, 1, 0.0, 4.0), (2, 2, 1.5, 1.5)],
        "nan start": [(1, 1, 0.0, 4.0), (2, 2, math.nan, 2.0)],
        "infinite completion": [(1, 1, 0.0, math.inf), (2, 2, 0.0, 2.0)],
        "negative start": [(1, 1, 0.0, 4.0), (2, 2, -1e-10, 2.0 - 1e-10)],
        "job never placed": [(2, 2, 0.0, 2.0)],
    }
    for name, placed in rows.items():
        yield name, inst, Schedule(PlacedJob(*row) for row in placed)


def _eval_outcome(inst, schedule):
    """sigma as float.hex, or the error's class and text."""
    try:
        return evaluate_schedule(inst, schedule).hex()
    except ScheduleError as e:
        return f"{type(e).__name__}: {e}"


def test_evaluations_match_golden_file(emit_golden_cases):
    """sigma to the bit, or the error's class and text, of 794 schedules
    (see _eval_golden_cases). tests/data/eval_golden.json was written with
    the evaluator that sorted one (start, completion, job id, size) tuple
    per row, by

        rows = [{"case": name, "outcome": _eval_outcome(inst, schedule)}
                for name, inst, schedule
                in _eval_golden_cases(_emit_golden_cases())]

    one row per line, with json.dumps(row, sort_keys=True)."""
    path = Path(__file__).parent / "data" / "eval_golden.json"
    rows = json.loads(path.read_text())
    cases = list(_eval_golden_cases(emit_golden_cases))
    assert [row["case"] for row in rows] == [name for name, *_rest in cases]
    for (name, inst, schedule), row in zip(cases, rows):
        assert _eval_outcome(inst, schedule) == row["outcome"], name

import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from streamsched import budget, planner
from streamsched.assigner import emit
from streamsched.model import (
    Instance,
    Job,
    evaluate_schedule,
    flat_profile,
    random_instance,
    random_profile,
    run_batch,
    work_to_time,
)
from streamsched.oracle import brute_force_opt
from streamsched.partition import enumerate_partitions
from streamsched.planner import (
    EmptySketchError,
    FrontierBoundError,
    Plan,
    ZERO,
    expand_group,
    lower_bound,
    plan,
    plan_at,
    signature,
)
from streamsched.sketch import sketch_stream

import random

from conftest import exact_fit_stream, golden_case, make_profile


def make_sketch(stream, eps=1.0, alpha0=1.0):
    return sketch_stream(stream, eps, alpha0)


def delta_of(sketch, eps, alpha0):
    """The planner's proven delta for a sketch: one mu per group."""
    return budget.delta(eps, alpha0, len(sketch.entries))


def plan_proven(sketch, profiles, eps, alpha0, trace=None):
    """The DP at the proven delta, the run plan() falls back to."""
    return plan_at(sketch, profiles, eps, alpha0, delta_of(sketch, eps, alpha0), trace)


class TestDelta:
    def test_two_groups(self):
        sk = make_sketch([1, 1, 2])
        assert delta_of(sk, 1.0, 1.0) == pytest.approx(1 / 48)

    def test_one_group(self):
        sk = make_sketch([1])
        assert delta_of(sk, 0.5, 0.5) == pytest.approx(0.25 / 24)

    def test_ten_groups(self):
        stream = [round(100 * 1.5**i) for i in range(10)]
        sk = make_sketch(stream)
        assert len(sk.entries) == 10
        assert delta_of(sk, 1.0, 1.0) == pytest.approx(1 / 240)

    def test_empty(self, unit_profile):
        sk = make_sketch([1])
        empty = sk.__class__(
            entries=(), n=1, p_max=1, eps=1.0, alpha0=1.0,
        )
        with pytest.raises(EmptySketchError):
            plan(empty, (unit_profile,), 1.0, 1.0)


INV_LOG_1 = 1.0 / math.log1p(1.0)  # signature scale at delta = 1


def frontier_of(*states):
    """A frontier: each (sigma, work, part, prev) state under its work
    signature at delta = 1."""
    return {signature(state[1], INV_LOG_1): state for state in states}


ROOT = (0.0, (0.0,), None, None)  # the empty schedule on one machine


class TestAppendGroup:
    def test_single_machine_growth(self, unit_profile):
        profiles = (unit_profile,)
        f1 = expand_group(frontier_of(ROOT), 1, {(2,)}, profiles, INV_LOG_1)
        (s1, w1, part, prev), = f1.values()
        assert work_to_time(unit_profile, 0.0, w1[0]) == 2.0
        assert w1 == (2.0,)
        assert (s1, part, prev) == (3.0, (2,), (None, None))
        (s2, w2, part, prev), = expand_group(
            f1, 2, {(1,)}, profiles, INV_LOG_1
        ).values()
        assert work_to_time(unit_profile, 0.0, w2[0]) == 4.0
        assert w2 == (4.0,)
        assert (s2, part, prev) == (7.0, (1,), ((2,), (None, None)))

    def test_zero_count_is_identity(self):
        profiles = (flat_profile(1.0, 1), flat_profile(1.0, 2))
        root = frontier_of((0.0, (0.0, 0.0), None, None))
        (s1, w1, _part, _prev), = expand_group(
            root, 3, {(0, 2)}, profiles, INV_LOG_1
        ).values()
        assert w1[0] == 0.0 and s1 == 3.0 + 6.0  # machine 2's batch only
        assert work_to_time(profiles[1], 0.0, w1[1]) == 6.0


class TestSignature:
    def test_bucket_values(self):
        assert signature((10.0,), INV_LOG_1) == (3,)

    def test_similar_states_share_signature(self):
        a = signature((10.0,), INV_LOG_1)
        assert a == signature((15.0,), INV_LOG_1)

    def test_zero_symbol(self):
        assert signature((0.0,), INV_LOG_1) == (ZERO,)


class TestPrune:
    # states are (sigma, work, part, prev). One job of 3 on a unit
    # machine takes A from work 10 to 13 (sigma 20 + 13) and B from 7 to 10
    # (sigma 30 + 10): distinct signatures before, one after (delta = 1)
    A = (20.0, (10.0,), (1,), None)
    B = (30.0, (7.0,), (1,), None)

    @staticmethod
    def survivors(*states):
        kept = expand_group(
            frontier_of(*states), 3, {(1,)}, (flat_profile(1.0),), INV_LOG_1
        )
        return {state[1]: state[0] for state in kept.values()}

    def test_keeps_smaller_sigma(self):
        assert self.survivors(self.A, self.B) == {(13.0,): 33.0}
        assert self.survivors(self.B, self.A) == {(13.0,): 33.0}

    def test_equal_sigma_keeps_lower_work(self):
        B = (23.0, (7.0,), (1,), None)
        assert self.survivors(self.A, B) == {(10.0,): 33.0}
        assert self.survivors(B, self.A) == {(10.0,): 33.0}

    def test_full_tie_keeps_first_arrival(self):
        # both states reach work (1, 1) at sigma 2 on unit machines
        profiles = (flat_profile(1.0, 1), flat_profile(1.0, 2))
        a, b = (1.0, (1.0, 0.0), (1, 0), None), (1.0, (0.0, 1.0), (0, 1), None)
        kept = expand_group(
            frontier_of(a, b), 1, {(1, 0), (0, 1)}, profiles, INV_LOG_1
        )
        (sigma, _work, _part, prev), = (
            state for state in kept.values() if state[1] == (1.0, 1.0)
        )
        assert sigma == 2.0 and prev == a[2:]

    def test_distinct_signatures_all_survive(self):
        far = (300.0, (100.0,), (1,), None)
        assert len(self.survivors(self.A, far)) == 2

    def test_empty(self):
        assert self.survivors() == {}


class TestPlan:
    def test_m1_reference_instance(self, unit_profile):
        sk = make_sketch([1, 1, 2])
        pl = plan(sk, (unit_profile,), 1.0, 1.0)
        assert pl.sigma_S_prime == pytest.approx(7.0)
        # no job is small, so V is the slot ends 1 + 2 + 4, rounded up
        assert pl.V == 7.0 * (1.0 + budget.FLOAT_MARGIN)
        inst = Instance((unit_profile,), (Job(1, 1), Job(2, 1), Job(3, 2)), 1.0)
        opt = brute_force_opt(inst).opt_value
        assert opt <= pl.V <= 2 * opt + 1e-9

    def test_single_group_single_machine(self, unit_profile):
        sk = make_sketch([3, 3, 3])
        pl = plan(sk, (unit_profile,), 1.0, 1.0)
        assert pl.max_states == 1
        assert pl.counts == ((3,),)

    def test_m2_sandwich(self):
        profiles = (flat_profile(1.0, 1), flat_profile(1.0, 2))
        sk = make_sketch([1, 2, 3])
        pl = plan(sk, profiles, 1.0, 1.0)
        inst = Instance(profiles, (Job(1, 1), Job(2, 2), Job(3, 3)), 1.0)
        opt = brute_force_opt(inst).opt_value
        assert opt == pytest.approx(7.0)
        assert opt - 1e-9 <= pl.V <= 2 * opt + 1e-9

    def test_small_reservation_only_on_machine_one(self):
        profiles = (flat_profile(1.0, 1), flat_profile(1.0, 2))
        sk = make_sketch([4, 4, 4, 4])
        pl = plan(sk, profiles, 1.0, 1.0)
        # no job is small, so nothing is reserved
        assert pl.small_reservation == 0.0
        # with theta = 1 * 0.5 * 100 / (3 * 4^2), the two unit jobs are
        # small: machine 1, at capacity 0.5, reserves the time it needs for
        # 2 * theta units of work, and its large slot starts after it
        profiles = (flat_profile(0.5, 1), flat_profile(0.5, 2))
        stream = [1, 100, 1, 100]
        sk = make_sketch(stream, 1.0, 0.5)
        assert [count for _rp, count in sk.entries] == [2]
        pl = plan(sk, profiles, 1.0, 0.5)
        res = pl.small_reservation
        assert res == pytest.approx(2 * (0.5 * 100 / 48) / 0.5)
        schedule, report = emit(pl, stream, profiles)
        assert report.small_placed == 2 and report.reservation_overflow == 0
        first_large = {}
        for placed in schedule.placements:
            if placed.job_id in (2, 4):
                first_large.setdefault(placed.machine_index, placed.start)
        assert first_large[1] == pytest.approx(res)
        assert first_large[2] == 0.0

    def test_small_reservation_delivers_the_small_work(self):
        # G_1(G_1^-1(w)) can round below w; the plan steps R up to the first
        # float by which machine 1 delivers the small jobs' work bound
        rng = random.Random(7)
        short = 0
        for _ in range(1000):
            drawn = exact_fit_stream(rng, rng.randint(1, 6), 1)
            if drawn is None:
                continue
            stream, eps, alpha0 = drawn
            first = random_profile(rng, alpha0, max_pieces=8)
            sk = make_sketch(stream, eps, alpha0)
            n_small = sk.n - sum(n_k for _rp, n_k in sk.entries)
            small = budget.small_work(eps, alpha0, sk.n, sk.p_max, n_small)
            res = plan(sk, (first,), eps, alpha0).small_reservation
            assert first.work_at(res) >= small
            if first.work_at(first.time_at(small)) < small:
                short += 1
                assert first.work_at(math.nextafter(res, 0.0)) < small
            else:
                assert res == first.time_at(small)
        assert short >= 10

    def test_trace_signatures_unique_and_bounded(self):
        rng = random.Random(2)
        profiles = tuple(random_profile(rng, 0.5, i + 1) for i in range(2))
        stream = [rng.randint(1, 20) for _ in range(7)]
        sk = sketch_stream(stream, 0.5, 0.5)
        trace = []
        plan_proven(sk, profiles, 0.5, 0.5, trace=trace)
        inv_log = 1.0 / math.log1p(delta_of(sk, 0.5, 0.5))
        for frontier in trace:
            sigs = [signature(state[1], inv_log) for state in frontier.values()]
            assert sigs == list(frontier)

    def test_eps_alpha0_must_match_sketch(self, unit_profile):
        sk = make_sketch([1, 1, 2])
        with pytest.raises(ValueError, match="eps=0.2, alpha0=1.0 differ"):
            plan(sk, (unit_profile,), 0.2, 1.0)
        with pytest.raises(ValueError, match="alpha0=0.5 differ"):
            plan(sk, (unit_profile,), 1.0, 0.5)

    def test_parallel_rejected(self, unit_profile):
        sk = make_sketch([1, 1, 2])
        with pytest.raises(ValueError, match="parallel"):
            plan(sk, (unit_profile,), 1.0, 1.0, parallel=True)

    def test_frontier_bound_error_names_group(self, monkeypatch):
        monkeypatch.setattr(planner, "_state_bound", lambda *args: 0)
        sk = make_sketch([1, 1, 2])
        match = r"group 0 .*frontier of 1 states exceeds the bound 0"
        with pytest.raises(FrontierBoundError, match=match):
            plan(sk, (flat_profile(1.0),), 1.0, 1.0)

    def test_duplicate_machine_index_rejected(self):
        # both machines would be labelled 1 in the emitted schedule
        profiles = (flat_profile(1.0, 1), flat_profile(1.0, 1))
        with pytest.raises(ValueError, match="machine index 1 appears twice"):
            plan(make_sketch([3, 3, 3, 3]), profiles, 1.0, 1.0)

    def test_profile_below_alpha0_rejected(self):
        profiles = (flat_profile(1.0, 1), flat_profile(0.1, 2))
        sk = make_sketch([1, 2, 3], alpha0=0.9)
        with pytest.raises(ValueError, match="machine 2 .*below alpha0"):
            plan(sk, profiles, 1.0, 0.9)

    def test_json_roundtrip(self, unit_profile):
        sk = make_sketch([1, 1, 2])
        pl = plan(sk, (unit_profile,), 1.0, 1.0)
        back = Plan.from_json(pl.to_json())
        assert back.to_json() == pl.to_json() and back == pl
        keys = json.loads(pl.to_json()).keys()
        assert "tau" not in keys and {"lower_bound", "delta"} <= keys

    def test_older_format_loads(self, unit_profile):
        # written while plans still carried k, p_max, p_minL_final and
        # p_minL_stream
        text = (
            '{"V": 9.955555555555554, "alpha0": 1.0, "counts": [[2, 1]], '
            '"delta": 0.020833333333333332, "eps": 1.0, "groups": [{"k": 1, '
            '"n_k": 2, "rp": 1}, {"k": 11, "n_k": 1, "rp": 2}], "n": 3, '
            '"p_max": 2, "p_minL_final": 0.07407407407407407, "p_minL_stream": '
            '1.0, "sigma_S_prime": 7.0, "small_reservation": 0.2222222222222222, '
            '"starts": [[0.2222222222222222, 2.2222222222222223]], "tau": '
            '0.06666666666666667}'
        )
        pl = plan(make_sketch([1, 1, 2]), (unit_profile,), 1.0, 1.0)
        older = Plan.from_json(text)
        # its reservation was sized eps*p_max/(3n); a fresh plan's holds
        # only the small jobs' work, and [1, 1, 2] has none. It keeps its
        # V and delta, and has no lower bound
        assert older.small_reservation == 0.2222222222222222
        assert pl.small_reservation == 0.0
        assert (older.V, older.delta, older.lower_bound) == (
            9.955555555555554, 0.020833333333333332, None
        )
        assert older._replace(
            small_reservation=0.0, V=pl.V, delta=pl.delta,
            lower_bound=pl.lower_bound,
        ) == pl
        schedule, report = emit(older, [1, 1, 2], (unit_profile,))
        jobs = (Job(1, 1), Job(2, 1), Job(3, 2))
        sigma = evaluate_schedule(Instance((unit_profile,), jobs, 1.0), schedule)
        assert sigma == pytest.approx(7 + 2 / 3)
        assert report.small_placed == 0


def _random_case(seed, n, m, eps, alpha0, max_p):
    rng = random.Random(seed)
    profiles = tuple(random_profile(rng, alpha0, i + 1) for i in range(m))
    stream = [rng.randint(1, max_p) for _ in range(n)]
    return sketch_stream(stream, eps, alpha0), profiles


class TestBatchExactness:
    def test_unit_jobs_match_exact_sum(self):
        # 2e5 unit jobs in one batch: the closed form against an exact
        # rational sum (a job-by-job walk drifts by about 1e-12 here)
        a1, end, a2 = 0.7963204553135828, 1234.5678, 0.9579724058654906
        profile = make_profile([(end, a1), (None, a2)])
        n = 200_000
        sk = make_sketch([1] * n, 1.0, 0.5)
        assert sk.entries == ((1, n),)
        got = plan(sk, (profile,), 1.0, 0.5).sigma_S_prime
        a1, end, a2 = Fraction(a1), Fraction(end), Fraction(a2)
        head = a1 * end  # work delivered in the first piece
        exact = sum(
            Fraction(j) / a1 if j <= head else end + (j - head) / a2
            for j in range(1, n + 1)
        )
        assert abs(Fraction(got) - exact) <= Fraction(1, 10**14) * exact


class TestPlannerScale:
    # frontier sizes are deterministic; each bound is about twice the size
    # the work-vector merge gives and far below the signature-only prune

    def test_roadmap_baseline_frontier(self):
        # n=20, m=2, eps=0.5, alpha0=0.5, p<=20: signature-only peak 52,780
        sk, profiles = _random_case(1, 20, 2, 0.5, 0.5, 20)
        assert plan_proven(sk, profiles, 0.5, 0.5).max_states <= 400  # now 190

    def test_n40_m2_plans(self):
        # signature-only pruning ran past 120 s on this size class
        sk, profiles = _random_case(0, 40, 2, 1.0, 1.0, 100)
        assert plan_proven(sk, profiles, 1.0, 1.0).max_states <= 4400  # now 2195

    def test_n40_m3_frontier_pinned(self):
        # total work * delta is below 1, so the prune removes nothing and
        # this is the exact DP's peak
        inst = random_instance(random.Random(1), 40, 3, 20, 0.5)
        sk = sketch_stream([j.p for j in inst.jobs], 1.0, 0.5)
        assert plan_proven(sk, inst.machines, 1.0, 0.5).max_states == 77421


class TestActivePrune:
    # total work * delta is about 10 here, so the prune merges distinct work
    # vectors; the paper's (work, sigma) signature kept 944, 903 and 708
    # states on these seeds, with the same counts
    @pytest.mark.parametrize("seed, max_states", [(1, 673), (2, 678), (3, 521)])
    def test_sandwich(self, seed, max_states):
        eps, alpha0 = 1.0, 0.5
        inst = random_instance(random.Random(seed), 10, 2, 1000, alpha0)
        stream = [j.p for j in inst.jobs]
        sk = sketch_stream(stream, eps, alpha0)
        trace = []
        pl = plan_proven(sk, inst.machines, eps, alpha0, trace=trace)
        delta = delta_of(sk, eps, alpha0)
        assert sum(rp * c for rp, c in sk.entries) * delta > 1
        bound = planner._state_bound(sk, alpha0, delta, len(inst.machines))
        inv_log = 1.0 / math.log1p(delta)
        for frontier in trace:
            sigs = [signature(state[1], inv_log) for state in frontier.values()]
            assert sigs == list(frontier) and len(frontier) <= bound
        opt = brute_force_opt(inst).opt_value
        assert opt <= pl.V * (1 + 1e-9)
        assert pl.V <= (1 + eps) * opt * (1 + 1e-9)
        schedule, _ = emit(pl, stream, inst.machines)
        assert evaluate_schedule(inst, schedule) <= (1 + eps) * opt * (1 + 1e-9)
        assert pl.max_states == max_states


class TestCertifyOrRefine:
    def test_sandwich_and_certificate_against_the_oracle(self):
        """plan() on 432 seeded instances, m <= 3 and n <= 10: L <= OPT <= V
        and sigma <= V exactly in floats, V <= (1+eps) OPT, V <= (1+eps) L
        on every run that stopped above the proven delta, and every tier
        reached."""
        stopped = dict.fromkeys(planner.TIERS, 0)
        seed = 0
        for eps, alpha0, m in itertools.product(
            (0.05, 0.1, 0.3, 1.0), (0.3, 0.5, 1.0), (1, 2, 3)
        ):
            for _ in range(12):
                seed += 1
                rng = random.Random(seed)
                inst = random_instance(
                    rng, rng.randint(1, 10), m, rng.choice((20, 1000)), alpha0
                )
                stream = [j.p for j in inst.jobs]
                sk = sketch_stream(stream, eps, alpha0)
                pl = plan(sk, inst.machines, eps, alpha0)
                opt = brute_force_opt(inst).opt_value
                schedule, _ = emit(pl, stream, inst.machines)
                sigma = evaluate_schedule(inst, schedule)
                case = (seed, eps, alpha0, pl.lower_bound, opt, sigma, pl.V)
                assert pl.lower_bound <= opt <= pl.V and sigma <= pl.V, case
                assert pl.V <= (1 + eps) * opt, case
                tier = pl.delta / delta_of(sk, eps, alpha0)
                stopped[round(tier)] += 1
                if pl.delta != delta_of(sk, eps, alpha0):
                    assert pl.V <= (1 + eps) * pl.lower_bound, case
        assert min(stopped.values()) >= 1, stopped

    def test_fallback_returns_the_proven_run(self):
        # not certified above the proven delta; max_states is the peak over
        # every run, L is the sketch's, and the trace holds the returned
        # run's frontiers
        inst = random_instance(random.Random(1), 10, 3, 20, 0.5)
        sk = sketch_stream([j.p for j in inst.jobs], 0.05, 0.5)
        trace, proven_trace = [], []
        pl = plan(sk, inst.machines, 0.05, 0.5, trace=trace)
        proven = plan_proven(sk, inst.machines, 0.05, 0.5, trace=proven_trace)
        assert pl.lower_bound == lower_bound(sk, inst.machines)
        assert pl == proven._replace(lower_bound=pl.lower_bound)
        assert pl.delta == delta_of(sk, 0.05, 0.5)
        assert pl.V > (1 + 0.05) * pl.lower_bound
        peaks = [
            plan_at(sk, inst.machines, 0.05, 0.5, pl.delta * k).max_states
            for k in planner.TIERS
        ]
        assert pl.max_states == max(peaks) and peaks[0] < peaks[-1]
        assert trace == proven_trace


def test_plans_match_golden_file():
    """sigma_S', counts and max_states of 100 seeded plans at the proven
    delta, pinned bit for bit. sigma_S' rather than V, so that a change to
    how V is formed leaves the file valid. tests/data/plan_golden.json was
    written with the planner that merged each group by work vector and then
    pruned it, when plan() ran at the proven delta alone, by

        rows = []
        for seed in range(100):
            pl = plan(*golden_case(seed))
            rows.append({"seed": seed, "sigma_S_prime": pl.sigma_S_prime.hex(),
                         "counts": [list(r) for r in pl.counts],
                         "max_states": pl.max_states})

    one row per line, with json.dumps(row, sort_keys=True)."""
    path = Path(__file__).parent / "data" / "plan_golden.json"
    rows = json.loads(path.read_text())
    assert [row["seed"] for row in rows] == list(range(100))
    for row in rows:
        pl = plan_proven(*golden_case(row["seed"]))
        got = (pl.sigma_S_prime.hex(), [list(r) for r in pl.counts], pl.max_states)
        assert got == (row["sigma_S_prime"], row["counts"], row["max_states"]), row


class TestKeepRuleTies:
    # flat unit profiles with integer sizes give many exact total-sigma ties
    # between different work vectors (64 at m=2, 307 at m=3), so sigma_S',
    # counts and max_states at the proven delta pin the tie-break: flattened
    # (work, sigma), then first arrival
    def test_tie_break_is_pinned(self):
        rng = random.Random(1)
        cases = (
            (16, 2, 174, 574.0,
             ((1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 1, 0),
              (0, 1, 1, 0, 1, 0, 1, 1, 0, 2, 0, 1))),
            (10, 3, 2460, 100.0,
             ((1, 1, 0, 0, 1, 0, 0), (1, 0, 1, 0, 0, 1, 0), (2, 0, 0, 1, 0, 0, 1))),
        )
        for n, m, max_states, sigma, counts in cases:
            stream = [rng.randint(1, 20) for _ in range(n)]
            profiles = tuple(flat_profile(1.0, i + 1) for i in range(m))
            pl = plan_proven(make_sketch(stream), profiles, 1.0, 1.0)
            got = (pl.max_states, pl.sigma_S_prime, pl.counts)
            assert got == (max_states, sigma, counts)


class TestDeltaCloseCoverage:
    @pytest.mark.parametrize("delta", [0.5, 1.0])
    @pytest.mark.parametrize("m", [2, 3])
    def test_every_count_vector_has_close_partition(self, m, delta):
        def bracket(c):
            return math.ceil(math.log(c) / math.log(1 + delta)) if c > 0 else None

        for b in range(1, 21):
            parts = enumerate_partitions(b, m, delta)
            for counts in itertools.product(range(b + 1), repeat=m):
                if sum(counts) != b:
                    continue
                found = any(
                    sum(
                        1
                        for t, c in zip(tup, counts)
                        if t == 0 or bracket(t) == bracket(c)
                    )
                    >= m - 1
                    for tup in parts
                )
                assert found, (b, m, delta, counts)


class TestPrefixWorkBound:
    def test_surviving_state_tracks_optimal_prefix(self):
        # exhaustive optimum over the sketch jobs, compared group prefix by
        # group prefix against the DP's surviving states
        profiles = (flat_profile(1.0, 1), flat_profile(0.5, 2))
        stream = [1, 1, 2, 2, 3]
        sk = sketch_stream(stream, 1.0, 0.5)
        trace = []
        plan_proven(sk, profiles, 1.0, 0.5, trace=trace)
        delta = delta_of(sk, 1.0, 0.5)

        expanded = []  # (group position, rp) per sketch job
        for g, (rp, cnt) in enumerate(sk.entries):
            expanded.extend([(g, rp)] * cnt)
        best_sigma = math.inf
        best_choice = None
        for choice in itertools.product(range(2), repeat=len(expanded)):
            finish = [0.0, 0.0]
            sigma = 0.0
            for g, (rp, cnt) in enumerate(sk.entries):
                for i in range(2):
                    c = sum(
                        1
                        for (gg, _), mi in zip(expanded, choice)
                        if gg == g and mi == i
                    )
                    if c:
                        sigma += run_batch(profiles[i], finish[i], c, float(rp))
                        finish[i] = work_to_time(profiles[i], finish[i], c * rp)
            if sigma < best_sigma:
                best_sigma = sigma
                best_choice = choice

        # prefix work of the optimal assignment per machine
        for g_idx, frontier in enumerate(trace):
            opt_prefix = [0.0, 0.0]
            for (g, rp), mi in zip(expanded, best_choice):
                if g <= g_idx:
                    opt_prefix[mi] += rp
            factor = (1 + delta) ** (g_idx + 2)
            ok = any(
                all(
                    work[i] <= factor * opt_prefix[i] + 1e-9
                    for i in range(2)
                )
                for _sigma, work, _part, _prev in frontier.values()
            )
            assert ok, g_idx

import itertools
import math
from fractions import Fraction

import pytest

from streamsched import planner
from streamsched.assigner import EmitterState
from streamsched.model import Instance, Job, flat_profile, random_profile, work_to_time
from streamsched.oracle import brute_force_opt
from streamsched.partition import enumerate_partitions
from streamsched.planner import (
    EmptySketchError,
    FrontierBoundError,
    Plan,
    PlanState,
    ZERO,
    append_group,
    delta_from,
    empty_state,
    plan,
    prune,
    signature,
)
from streamsched.sketch import sketch_stream

import random

from conftest import make_profile


def make_sketch(stream, eps=1.0, alpha0=1.0):
    return sketch_stream(stream, eps, alpha0)


class TestDelta:
    def test_two_groups(self):
        sk = make_sketch([1, 1, 2])
        assert delta_from(sk, 1.0, 1.0) == pytest.approx(1 / 48)

    def test_one_group(self):
        sk = make_sketch([1])
        assert delta_from(sk, 0.5, 0.5) == pytest.approx(0.25 / 24)

    def test_ten_groups(self):
        stream = [round(100 * 1.5**i) for i in range(10)]
        sk = make_sketch(stream)
        assert len(sk.entries) == 10
        assert delta_from(sk, 1.0, 1.0) == pytest.approx(1 / 240)

    def test_empty(self):
        sk = make_sketch([1])
        empty = sk.__class__(
            entries=(), n=1, p_max=1, p_minL_final=0.5, tau=sk.tau,
            eps=1.0, alpha0=1.0,
        )
        with pytest.raises(EmptySketchError):
            delta_from(empty, 1.0, 1.0)


class TestAppendGroup:
    def test_single_machine_growth(self, unit_profile):
        profiles = (unit_profile,)
        s0 = empty_state(1)
        s1 = append_group(s0, 1, (2,), profiles, {})
        assert work_to_time(unit_profile, 0.0, s1.work[0]) == 2.0
        assert s1.work == (2.0,)
        assert s1.sigma == (3.0,)
        s2 = append_group(s1, 2, (1,), profiles, {})
        assert work_to_time(unit_profile, 0.0, s2.work[0]) == 4.0
        assert s2.work == (4.0,)
        assert s2.sigma == (7.0,)

    def test_zero_count_is_identity(self):
        profiles = (flat_profile(1.0, 1), flat_profile(1.0, 2))
        s0 = empty_state(2)
        s1 = append_group(s0, 3, (0, 2), profiles, {})
        assert s1.work[0] == 0.0 and s1.sigma[0] == 0.0
        assert work_to_time(profiles[1], 0.0, s1.work[1]) == 6.0


class TestSignature:
    def test_bucket_values(self):
        s = PlanState((10.0,), (20.0,), empty_state(1), (1,))
        assert signature(s, 1.0) == ((3, 4),)

    def test_similar_states_share_signature(self):
        a = PlanState((10.0,), (20.0,))
        b = PlanState((15.0,), (30.0,))
        assert signature(a, 1.0) == signature(b, 1.0)

    def test_zero_symbol(self):
        assert signature(empty_state(1), 1.0) == ((ZERO, ZERO),)


class TestPrune:
    def _state(self, work, sigma):
        return PlanState((work,), (sigma,))

    def test_keeps_smaller_sigma(self):
        a, b = self._state(10.0, 20.0), self._state(15.0, 30.0)
        survivors = prune([a, b], 1.0)
        assert survivors == [a]
        assert prune([b, a], 1.0) == [a]

    def test_distinct_signatures_all_survive(self):
        a, b = self._state(10.0, 20.0), self._state(100.0, 300.0)
        assert len(prune([a, b], 1.0)) == 2

    def test_empty(self):
        assert prune([], 1.0) == []


class TestPlan:
    def test_m1_reference_instance(self, unit_profile):
        sk = make_sketch([1, 1, 2])
        pl = plan(sk, (unit_profile,), 1.0, 1.0)
        assert pl.sigma_S_prime == pytest.approx(7.0)
        assert pl.V == pytest.approx(448 / 45)
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
        res = pl.small_reservation
        assert res == pytest.approx(1.0 * 4 / (3 * 4))
        slot_work = EmitterState(pl, profiles).slot_work
        assert slot_work[0][0] == pytest.approx(profiles[0].work_at(res))
        assert slot_work[1][0] == 0.0

    def test_trace_signatures_unique_and_bounded(self):
        rng = random.Random(2)
        profiles = tuple(random_profile(rng, 0.5, i + 1) for i in range(2))
        stream = [rng.randint(1, 20) for _ in range(7)]
        sk = sketch_stream(stream, 0.5, 0.5)
        trace = []
        pl = plan(sk, profiles, 0.5, 0.5, trace=trace)
        delta = pl.delta
        for states in trace:
            sigs = [signature(s, delta) for s in states]
            assert len(sigs) == len(set(sigs))

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
        assert back.to_json() == pl.to_json()

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
        assert Plan.from_json(text) == pl


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
        assert plan(sk, profiles, 0.5, 0.5).max_states <= 400  # now 190

    def test_n40_m2_plans(self):
        # signature-only pruning ran past 120 s on this size class
        sk, profiles = _random_case(0, 40, 2, 1.0, 1.0, 100)
        assert plan(sk, profiles, 1.0, 1.0).max_states <= 4400  # now 2195


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
        pl = plan(sk, profiles, 1.0, 0.5, trace=trace)
        delta = pl.delta

        expanded = []  # (group position, rp) per sketch job
        for g, (rp, cnt) in enumerate(sk.entries):
            expanded.extend([(g, rp)] * cnt)
        best_sigma = math.inf
        best_choice = None
        from streamsched.model import run_batch

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
                        res = run_batch(profiles[i], finish[i], c, float(rp))
                        finish[i] = res.finish
                        sigma += res.sigma
            if sigma < best_sigma:
                best_sigma = sigma
                best_choice = choice

        # prefix work of the optimal assignment per machine
        for g_idx, states in enumerate(trace):
            opt_prefix = [0.0, 0.0]
            for (g, rp), mi in zip(expanded, best_choice):
                if g <= g_idx:
                    opt_prefix[mi] += rp
            factor = (1 + delta) ** (g_idx + 2)
            ok = any(
                all(
                    s.work[i] <= factor * opt_prefix[i] + 1e-9
                    for i in range(2)
                )
                for s in states
            )
            assert ok, g_idx

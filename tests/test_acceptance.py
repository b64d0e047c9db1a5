"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single PASS line when
it succeeds (run pytest with -s to see them); a failed assertion marks the
criterion failed. Criteria 1, 2 and 6 share one seeded instance batch built
once per session.
"""
import itertools
import math
import random
import time

import pytest

from streamsched import budget
from streamsched.assigner import emit
from streamsched.model import (
    CapacityInterval,
    Instance,
    Job,
    MachineProfile,
    evaluate_schedule,
    random_instance,
    random_profile,
    run_batch,
)
from streamsched.oracle import brute_force_opt
from streamsched.partition import enumerate_partitions
from streamsched.planner import _state_bound, plan, signature
from streamsched.sketch import (
    KnowledgeMode,
    SketchBuilder,
    bucket_index,
    iter_job_stream,
    rounded_value,
    sketch_stream,
)

REL = 1e-9


def _announce(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS ({detail})")


@pytest.fixture(scope="module")
def instance_batch():
    """>= 200 seeded instances with sketch, plan, prune trace, emitted
    schedule and brute-force optimum."""
    t_start = time.monotonic()
    runs = []
    seed = 0
    for n, m, alpha0, eps in itertools.product(
        range(3, 9), (1, 2, 3), (0.5, 1.0), (0.2, 0.5, 1.0)
    ):
        for _ in range(2):
            seed += 1
            rng = random.Random(seed)
            inst = random_instance(rng, n, m, 20, alpha0)
            stream = [j.p for j in inst.jobs]
            sk = sketch_stream(stream, eps, alpha0)
            trace = []
            pl = plan(sk, inst.machines, eps, alpha0, trace=trace)
            schedule, report = emit(pl, stream, inst.machines)
            opt = brute_force_opt(inst).opt_value
            runs.append(
                {
                    "inst": inst,
                    "eps": eps,
                    "alpha0": alpha0,
                    "sketch": sk,
                    "plan": pl,
                    "trace": trace,
                    "schedule": schedule,
                    "report": report,
                    "opt": opt,
                }
            )
    elapsed = time.monotonic() - t_start
    return runs, elapsed


def test_criterion_1_approximation_sandwich(instance_batch):
    runs, elapsed = instance_batch
    assert len(runs) >= 200
    for r in runs:
        opt, v, eps = r["opt"], r["plan"].V, r["eps"]
        assert opt <= v * (1 + REL), (opt, v)
        assert v <= (1 + eps) * opt * (1 + REL), (v, eps, opt)
        # V is the plan's slot ends, rounded up: no emit passes it
        assert evaluate_schedule(r["inst"], r["schedule"]) <= v, (v, opt)
    assert elapsed < 120.0
    _announce(1, f"{len(runs)} instances, OPT <= V <= (1+eps)*OPT, {elapsed:.1f}s")


def test_criterion_2_two_pass_schedule_quality(instance_batch):
    runs, _ = instance_batch
    for r in runs:
        sigma = evaluate_schedule(r["inst"], r["schedule"])  # also feasibility
        assert sigma <= (1 + r["eps"]) * r["opt"] * (1 + REL)
        assert sigma <= r["plan"].V * (1 + REL)
    _announce(2, f"{len(runs)} emitted schedules feasible, sigma <= V")


def _fast_then_slow(rng, alpha0, machine_index):
    """Capacity 1 for U[0.5, 8] time units, then alpha0 for good."""
    turn = rng.uniform(0.5, 8.0)
    return MachineProfile(machine_index, (
        CapacityInterval(0.0, turn, 1.0),
        CapacityInterval(turn, math.inf, alpha0),
    ))


def _small_alpha0_batch():
    """(jobs, profiles, eps, alpha0): 300 seeded instances with n <= 8 and
    m <= 2, half of them on profiles that drop from capacity 1 to alpha0,
    then one job of 1,000 after ten of 2 on a profile that is slow from
    t = 30 to t = 2,130."""
    cases = []
    rng = random.Random(1919)
    for k in range(300):
        alpha0 = (0.05, 0.1, 0.3)[k % 3]
        eps = (0.3, 1.0)[k // 3 % 2]
        m = rng.randint(1, 2)
        if k // 6 % 2:
            profiles = tuple(_fast_then_slow(rng, alpha0, i + 1) for i in range(m))
        else:
            profiles = tuple(random_profile(rng, alpha0, i + 1) for i in range(m))
        # log-uniform sizes up to 1,000, so that some jobs fall below theta
        jobs = [max(1, int(1000 ** rng.random())) for _ in range(rng.randint(1, 8))]
        cases.append((jobs, profiles, eps, alpha0))
    slow_middle = MachineProfile(1, (
        CapacityInterval(0.0, 30.0, 1.0),
        CapacityInterval(30.0, 2130.0, 0.01),
        CapacityInterval(2130.0, math.inf, 1.0),
    ))
    cases.append(([2] * 10 + [1000], (slow_middle,), 1.0, 0.01))
    return cases


def test_sandwich_at_small_alpha0():
    t_start = time.monotonic()
    cases = _small_alpha0_batch()
    small = 0
    for jobs, profiles, eps, alpha0 in cases:
        sk = sketch_stream(jobs, eps, alpha0)
        pl = plan(sk, profiles, eps, alpha0)
        schedule, report = emit(pl, jobs, profiles)
        inst = Instance(profiles, tuple(Job(i, p) for i, p in enumerate(jobs, 1)), alpha0)
        opt = brute_force_opt(inst).opt_value
        sigma = evaluate_schedule(inst, schedule)
        case = (jobs, eps, alpha0, opt, pl.V, sigma)
        assert opt <= pl.V * (1 + REL), case
        assert pl.V <= (1 + eps) * opt * (1 + REL), case
        assert sigma <= (1 + eps) * opt * (1 + REL), case
        assert sigma <= pl.V, case  # exactly: V is rounded up
        small += report.small_placed
    # the eleven-job case: nothing is small, so nothing is reserved and the
    # schedule is optimal
    assert pl.small_reservation == 0.0
    assert sigma == pytest.approx(opt) and opt == pytest.approx(3209.0)
    elapsed = time.monotonic() - t_start
    assert elapsed < 10.0
    _announce(
        "small alpha0",
        f"{len(cases)} instances, {small} small jobs, sigma <= V, {elapsed:.1f}s",
    )


@pytest.fixture(scope="module")
def million_job_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("streams") / "jobs_1e6.txt"
    rng = random.Random(99)
    n = 10**6
    with open(path, "w") as fh:
        fh.write("1000000\n")  # pin p_max for the knowledge modes
        for _ in range(n - 1):
            fh.write(f"{rng.randint(1, 10**6)}\n")
    return str(path), n


def _stream_with_bound_checks(builder, stream, map_mode_bound=None):
    """Feed a stream, asserting the live-size bound after every job.

    map_mode_bound(builder) returns the current bound; it is recomputed only
    when p_curMax grows (the bound is monotone in p_curMax).
    """
    bound = None
    last_pmax = -1
    for p in stream:
        builder.observe(p)
        if map_mode_bound is not None:
            if builder.p_curMax != last_pmax:
                last_pmax = builder.p_curMax
                bound = map_mode_bound(builder)
            assert builder.live_size() <= bound


def test_criterion_3_one_pass_space(million_job_file):
    path, n = million_job_file
    eps, alpha0 = 1.0, 0.5
    tau = budget.tau(eps, alpha0)
    log = lambda x: math.log(x) / math.log(1 + tau)
    pmax_lower, c2 = 10**5, 10
    modes = {
        1: KnowledgeMode(n_upper=n, pmax_lower=pmax_lower),
        2: KnowledgeMode(pmax_lower=pmax_lower),
        3: KnowledgeMode(n_upper=n),
        4: KnowledgeMode(),
    }
    t_start = time.monotonic()
    for case, mode in modes.items():
        b = SketchBuilder(eps, alpha0, mode)
        if case in (1, 2):
            _stream_with_bound_checks(b, iter_job_stream(path))
            assert b.max_store_ops <= 1
            assert b.max_live_size <= log(c2 * pmax_lower) + 1
            if case == 1:
                assert b.max_live_size <= log(3 * c2 * n**2 / (eps * alpha0)) + 1
        else:
            if case == 3:
                cap = log(3 * n**2 / (eps * alpha0))
                checker = lambda bl: min(cap, log(max(bl.p_curMax, 2))) + 2
            else:
                checker = lambda bl: log(max(bl.p_curMax, 2)) + 1
            _stream_with_bound_checks(b, iter_job_stream(path), checker)
            assert b.max_store_ops <= 3
        sk = b.finalize()
        assert sk.n == n and sk.p_max == 10**6
    elapsed = time.monotonic() - t_start
    assert elapsed < 30.0
    _announce(3, f"4 knowledge modes over {n} jobs, one pass each, {elapsed:.1f}s")


def test_criterion_4_rounding_and_permutation_invariance():
    eps, alpha0 = 1.0, 0.5
    tau = budget.tau(eps, alpha0)
    # bracket p <= rp < (1+tau)p for every processing time the million-job
    # streams can contain
    for p in range(1, 10**6 + 1):
        rp = rounded_value(bucket_index(p, tau), tau)
        assert p <= rp < (1 + tau) * p
    rng = random.Random(5)
    stream = [rng.randint(1, 10**5) for _ in range(10**4)]
    reference = sketch_stream(stream, eps, alpha0).to_json()
    for _ in range(20):
        rng.shuffle(stream)
        assert sketch_stream(stream, eps, alpha0).to_json() == reference
    _announce(4, "bracket holds for p <= 1e6; 20 shuffles byte-identical")


def test_criterion_5_partition_brute_force():
    for delta in (0.5, 1.0):
        ladder = set()
        q, v = 0, 1.0
        while math.floor(v) <= 30:
            ladder.add(math.floor(v))
            q += 1
            v = (1 + delta) ** q
        allowed = ladder | {0}
        for m in (1, 2, 3):
            for b in range(1, 31):
                expected = {
                    tup
                    for tup in itertools.product(range(b + 1), repeat=m)
                    if sum(tup) == b
                    and sum(1 for t in tup if t in allowed) >= m - 1
                }
                assert set(enumerate_partitions(b, m, delta)) == expected
    parts_9 = set(enumerate_partitions(9, 3, 1.0))
    assert {(2, 2, 5), (0, 9, 0), (0, 1, 8)} <= parts_9
    assert (2, 2, 5) in parts_9 and (2, 5, 2) in parts_9
    assert (2, 2, 5) != (2, 5, 2)
    _announce(5, "matches brute force for b <= 30, m <= 3, delta in {0.5, 1}")


def test_criterion_6_prune_soundness(instance_batch):
    runs, _ = instance_batch
    prune_calls = 0
    for r in runs:
        sk, pl = r["sketch"], r["plan"]
        m = len(r["inst"].machines)
        delta = pl.delta  # the delta of the run plan() returned
        bound = _state_bound(sk, r["alpha0"], delta, m)
        inv_log = 1.0 / math.log1p(delta)
        for frontier in r["trace"]:
            prune_calls += 1
            sigs = [signature(state[1], inv_log) for state in frontier.values()]
            assert sigs == list(frontier)
            assert len(frontier) <= bound
    _announce(6, f"{prune_calls} prune calls sound")


def test_criterion_7_evaluator_bounds():
    rng = random.Random(11)
    for _ in range(1000):
        alpha0 = rng.choice([0.3, 0.5, 0.8, 1.0])
        prof = random_profile(rng, alpha0)
        t0 = rng.uniform(0.0, 30.0)
        x = rng.randint(1, 8)
        p = rng.randint(1, 10)
        delta = rng.uniform(0.01, 1.0)
        sigma = run_batch(prof, t0, x, p)
        lo = x * t0 + x * (1 + x) * p / 2.0
        hi = x * t0 + x * (1 + x) * p / (2.0 * alpha0)
        assert lo <= sigma * (1 + 1e-12) and sigma <= hi * (1 + 1e-12)
        shifted = run_batch(prof, (1 + delta) * t0, x, p)
        assert shifted <= (1 + delta / alpha0) * sigma * (1 + 1e-12)
        extended = run_batch(prof, t0, x + math.floor(x * delta), p)
        assert extended <= (1 + 3 * delta / alpha0) * sigma * (1 + 1e-12)
    _announce(7, "1000 random batches satisfy the sigma/shift/append bounds")


def test_criterion_8_update_cost():
    # asymptotic update-time claims are checked as concrete per-job store
    # operation counts at this scale
    rng = random.Random(23)
    stream = [rng.randint(1, 10**6) for _ in range(10**5)]
    known = SketchBuilder(1.0, 0.5, KnowledgeMode(pmax_lower=10**5))
    unknown = SketchBuilder(1.0, 0.5, KnowledgeMode())
    for p in stream:
        known.observe(p)
        unknown.observe(p)
    assert known.max_store_ops <= 1
    assert unknown.max_store_ops <= 1
    _announce(8, "per-job store ops <= 1 (with and without a p_max lower bound)")

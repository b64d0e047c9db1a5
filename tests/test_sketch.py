import hashlib
import json
import random
import re
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from conftest import boundary_streams

from streamsched import sketch as sketch_mod
from streamsched.sketch import (
    RP_LIMIT,
    EmptyStreamError,
    KnowledgeMode,
    Sketch,
    SketchBuilder,
    bucket_index,
    iter_job_stream,
    rounded_value,
    sketch_stream,
)

TAU = 1.0 / 15.0


class TestBucketing:
    def test_p_one_is_bucket_one(self):
        for tau in (0.01, TAU, 0.5, 1.0):
            assert bucket_index(1, tau) == 1

    def test_powers_of_two(self):
        assert bucket_index(5, 1.0) == 3  # 5 in [4, 8)

    def test_tau_fifteenth(self):
        assert bucket_index(2, TAU) == 11

    def test_rounded_values(self):
        assert rounded_value(3, 1.0) == 8
        assert rounded_value(1, 0.5) == 1
        assert rounded_value(11, TAU) == 2

    def test_sketch_buckets_exactly_past_two_to_the_53(self):
        for stream in boundary_streams(TAU):
            t = stream[-2]
            assert bucket_index(t - 1, TAU) + 1 == bucket_index(t, TAU)
            expected = Counter(
                rounded_value(bucket_index(p, TAU), TAU) for p in stream
            )
            for mode in (KnowledgeMode(), KnowledgeMode(pmax_lower=stream[0])):
                sk = sketch_stream(stream, 1.0, 1.0, mode)
                assert sk.entries == tuple(sorted(expected.items()))

    def test_rounding_bracket(self):
        # every integer is bounded by its rounded value within one ratio step
        for tau in (0.01, TAU, 0.2):
            for p in range(1, 2000):
                rp = rounded_value(bucket_index(p, tau), tau)
                assert p <= rp < (1 + tau) * p


class TestObserve:
    @pytest.mark.parametrize(
        "eps, alpha0, name",
        [(0.0, 1.0, "eps"), (1.5, 1.0, "eps"), (1.0, 0.0, "alpha0"), (1.0, 1.5, "alpha0")],
    )
    def test_parameters_outside_unit_interval_rejected(self, eps, alpha0, name):
        with pytest.raises(ValueError, match=rf"^{name} must be in \(0, 1\]$"):
            SketchBuilder(eps, alpha0)

    def test_tau_that_vanishes_beside_one_rejected(self):
        # the power table could never pass a job; none is fed, so the test
        # ends even where the check is missing
        with pytest.raises(ValueError, match=r"^eps=1e-300 and alpha0=0.5 give tau="):
            SketchBuilder(1e-300, 0.5)

    def test_small_stream(self):
        b = SketchBuilder(1.0, 1.0)
        for p in (1, 1, 2):
            b.observe(p)
        assert b.n_cur == 3
        assert b.p_curMax == 2
        sk = b.finalize()
        assert sk.entries == ((1, 2), (2, 1))
        # the final threshold 2/27 keeps every job
        assert sum(c for _, c in sk.entries) == sk.n

    def test_threshold_rises_with_n_upper(self):
        b = SketchBuilder(1.0, 1.0, KnowledgeMode(n_upper=10))
        b.observe(3 * 10**6)
        assert b.p_minL == pytest.approx(10**4)
        before = b.live_size()
        b.observe(5)  # below threshold: skipped
        assert b.live_size() == before
        assert b.n_cur == 2

    def test_threshold_rise_evicts_every_stale_bucket(self):
        b = SketchBuilder(1.0, 1.0, KnowledgeMode(n_upper=10))
        b.observe_all(range(1, 60))
        b.observe(3 * 10**6)  # the threshold rises to 10**4
        assert b.p_minL == pytest.approx(10**4)
        assert b.live_size() == 1

    def test_skip_updates_bookkeeping_only(self):
        b = SketchBuilder(1.0, 1.0, KnowledgeMode(n_upper=2))
        b.observe(1000)  # threshold becomes 1000/12
        live = b.live_size()
        b.observe(3)
        assert b.live_size() == live
        assert b.n_cur == 2
        assert b.p_curMax == 1000


    def test_stream_and_single_observes_agree(self, monkeypatch):
        # sketch_stream builds through the module's SketchBuilder, the one
        # a caller may replace to see the builder's counters
        rng = random.Random(4)
        stream = [rng.randint(1, 10**6) for _ in range(3000)]
        # with n_upper=10 the new maxima 6000, 70000 and 800000 each move
        # low past buckets that earlier jobs hold, within one block
        decades = [3, 40, 7, 500, 6000, 2, 70000, 800000, 9, 60]
        inputs = [
            (stream, KnowledgeMode()),
            (stream, KnowledgeMode(n_upper=3000, pmax_lower=10**5)),
            (sorted(stream), KnowledgeMode()),
            (sorted(stream), KnowledgeMode(n_upper=3000)),
            (decades, KnowledgeMode(n_upper=10)),
            (decades, KnowledgeMode(n_upper=10, pmax_lower=500)),
        ]
        built = []

        class Recorded(SketchBuilder):
            def finalize(self):
                built.append(self)
                return super().finalize()

        monkeypatch.setattr(sketch_mod, "SketchBuilder", Recorded)
        for block in (1, 2, 3, sketch_mod.BLOCK):
            monkeypatch.setattr(sketch_mod, "BLOCK", block)
            for jobs, mode in inputs:
                one = SketchBuilder(1.0, 1.0, mode)
                for p in jobs:
                    one.observe(p)
                built.clear()
                sk = sketch_stream(jobs, 1.0, 1.0, mode)
                (b,) = built
                assert sk == one.finalize()
                assert (b.n_cur, b.p_curMax, b.p_minL) == (one.n_cur, one.p_curMax, one.p_minL)
                assert (b.max_live_size, b.max_store_ops, b.live_size()) == (
                    one.max_live_size, one.max_store_ops, one.live_size()
                )
        # the evictions happened: four buckets were live before 6000 arrived
        one = SketchBuilder(1.0, 1.0, KnowledgeMode(n_upper=10))
        one.observe_all(decades)
        assert (one.max_live_size, one.live_size()) == (4, 3)

    def test_rejected_job_leaves_earlier_ones_counted(self):
        # neither a job below 1 nor one at or past RP_LIMIT counts in n_cur
        for bad, message in ((0, ">= 1"), (2**1023, r"below 2\*\*1023")):
            b = SketchBuilder(1.0, 1.0)
            b.observe(5)
            with pytest.raises(ValueError, match=f"^job 2: processing time must be {message}"):
                b.observe(bad)
            assert (b.n_cur, b.p_curMax, b.live_size()) == (1, 5, 1)
            with pytest.raises(ValueError, match=f"^job 3: processing time must be {message}"):
                b.observe_all([3, bad, 4])
            b.observe_all([7])
            assert b.finalize().n == 3
            with pytest.raises(ValueError, match=f"^job 3: processing time must be {message}"):
                sketch_stream([4, 9, bad, 3], 1.0, 1.0)


class TestStreamReader:
    def test_blank_lines_skipped_and_padding_stripped(self, tmp_path):
        path = tmp_path / "jobs.txt"
        path.write_text("3\n\n   \n 7 \n\t5\t\n\n12")
        assert list(iter_job_stream(str(path))) == [3, 7, 5, 12]

    @pytest.mark.parametrize("line", [" 1 2 ", "1.5", "x"])
    def test_malformed_line_rejected(self, tmp_path, line):
        path = tmp_path / "jobs.txt"
        path.write_text(f"3\n{line}\n4\n")
        # the message quotes the line without its padding
        message = f"invalid literal for int() with base 10: '{line.strip()}'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            list(iter_job_stream(str(path)))

    @pytest.mark.parametrize(
        "text",
        [
            b"3\r\n17\r\n5\r\n",
            b"3\r17\r5\r",
            b"12\n345\n6789",
            b"1\n\n  \n 22 \n\t333\t\n\n4444\n  5  ",
            b"7\r\n\r\n 8\r9\n\n\n10 \r\n",
        ],
        ids=["crlf", "cr", "no-final-newline", "blank-and-padded", "mixed"],
    )
    def test_blocks_read_as_lines_do(self, tmp_path, monkeypatch, text):
        path = tmp_path / "jobs.txt"
        path.write_bytes(text)
        with open(path) as fh:
            expected = [int(line) for line in fh if line.strip()]
        for chars in (1, 2, 3, 7):
            monkeypatch.setattr(sketch_mod, "READ_CHARS", chars)
            assert list(iter_job_stream(str(path))) == expected

    def test_malformed_line_at_a_block_edge(self, tmp_path, monkeypatch):
        # the bad line in every position; with 1 to 7 characters a block it
        # falls first, last and alone in a block
        lines = ["12", "3", "", "456", "7", "89"]
        path = tmp_path / "jobs.txt"
        message = "invalid literal for int() with base 10: 'x'"
        for at in range(len(lines) + 1):
            path.write_text("\n".join(lines[:at] + [" x "] + lines[at:]) + "\n")
            before = [int(line) for line in lines[:at] if line]
            for chars in (1, 2, 3, 7):
                monkeypatch.setattr(sketch_mod, "READ_CHARS", chars)
                got = []
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    got.extend(iter_job_stream(str(path)))
                assert got == before

    def test_jobs_before_a_malformed_line_are_counted(self, tmp_path):
        path = tmp_path / "jobs.txt"
        path.write_text("5\nx\n")
        b = SketchBuilder(1.0, 1.0)
        with pytest.raises(ValueError, match="invalid literal"):
            b.observe_all(iter_job_stream(str(path)))
        assert (b.n_cur, b.p_curMax) == (1, 5)


class TestFinalize:
    def test_single_job(self):
        sk = sketch_stream([1], 1.0, 1.0)
        assert sk.entries == ((1, 1),)
        # the final threshold 1/3 keeps the job
        assert sum(c for _, c in sk.entries) == sk.n

    def test_boundary_entry_dropped(self):
        # the final threshold is 300/(3*100) = 1.0 exactly; rp=1 fails the
        # strict filter, and 300 rounds up to 312
        stream = [1] * 9 + [300]
        sk = sketch_stream(stream, 1.0, 1.0)
        assert sk.entries == ((312, 1),)
        assert all(rp > 1 for rp, _ in sk.entries)
        assert sum(c for _, c in sk.entries) == 1

    def test_empty_stream(self):
        with pytest.raises(EmptyStreamError):
            SketchBuilder(1.0, 1.0).finalize()

    def test_broken_n_upper_promise_rejected(self):
        b = SketchBuilder(1.0, 1.0, KnowledgeMode(n_upper=10))
        for p in range(1, 12):
            b.observe(p)
        with pytest.raises(ValueError, match="11 jobs.*n_upper 10"):
            b.finalize()

    def test_broken_pmax_lower_promise_rejected(self):
        b = SketchBuilder(1.0, 1.0, KnowledgeMode(pmax_lower=100))
        for p in (3, 50, 7):
            b.observe(p)
        with pytest.raises(ValueError, match="largest job 50 .*pmax_lower 100"):
            b.finalize()

    def test_kept_promises_accepted(self):
        mode = KnowledgeMode(n_upper=2, pmax_lower=100)
        sk = sketch_stream([5, 100], 1.0, 1.0, mode)
        assert sk.n == 2 and sk.p_max == 100

    def test_counts_bounded_by_n(self):
        rng = random.Random(3)
        stream = [rng.randint(1, 500) for _ in range(200)]
        sk = sketch_stream(stream, 0.5, 0.5)
        assert sum(c for _, c in sk.entries) <= sk.n == 200
        rps = [rp for rp, _ in sk.entries]
        assert rps == sorted(set(rps))


class TestOrderInvariance:
    @pytest.mark.parametrize(
        "mode",
        [
            KnowledgeMode(),
            KnowledgeMode(pmax_lower=100),
            KnowledgeMode(n_upper=400),
            KnowledgeMode(n_upper=400, pmax_lower=100),
        ],
    )
    def test_permutations_identical(self, mode):
        # no job falls below the threshold here, so every mode's sketch must
        # equal the one built with no knowledge
        rng = random.Random(11)
        stream = [rng.randint(1, 500) for _ in range(200)]
        reference = sketch_stream(stream, 1.0, 1.0).to_json()
        for _ in range(10):
            rng.shuffle(stream)
            assert sketch_stream(stream, 1.0, 1.0, mode).to_json() == reference

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("eps, alpha0", [(1.0, 1.0), (0.5, 0.3)])
    def test_orders_where_the_threshold_skips_jobs(self, seed, eps, alpha0):
        # n_upper = n and log-uniform sizes: some jobs round to at most the
        # final threshold, so the running one skips jobs, and every order
        # must still give the sketch built with no knowledge
        rng = random.Random(seed)
        n = 100
        stream = [int(10 ** (6 * rng.random())) for _ in range(n)]
        p_max = max(stream)
        sk = sketch_stream(stream, eps, alpha0)
        assert sum(count for _rp, count in sk.entries) < n
        reference = sk.to_json()
        shuffled = stream[:]
        rng.shuffle(shuffled)
        orders = (sorted(stream), sorted(stream, reverse=True), shuffled)
        for mode in (
            KnowledgeMode(n_upper=n),
            KnowledgeMode(n_upper=n, pmax_lower=p_max),
        ):
            for order in orders:
                assert sketch_stream(order, eps, alpha0, mode).to_json() == reference

    def test_job_below_the_threshold_that_rounds_above_it_counts(self):
        # with n_upper=2 the threshold is 100 once 1200 has arrived; 99 lies
        # below it but rounds to 104, above it, so it counts in either order
        reference = sketch_stream([1200, 99], 1.0, 1.0)
        assert reference.entries == ((104, 1), (1211, 1))
        mode = KnowledgeMode(n_upper=2)
        for stream in ([1200, 99], [99, 1200]):
            assert sketch_stream(stream, 1.0, 1.0, mode) == reference


class TestSpaceBounds:
    @pytest.mark.parametrize("n", [3 * 10**4, 3 * 10**5])
    def test_pass_one_memory_does_not_grow_with_n(self, tmp_path, n):
        # a stream-narrow-known-like file: one text block and one job block
        # are held at a time, so the peak stays put as n grows tenfold
        rng = random.Random(n)
        path = tmp_path / "jobs.txt"
        path.write_text("".join(f"{rng.randint(5 * 10**5, 10**6)}\n" for _ in range(n)))
        mode = KnowledgeMode(n_upper=n, pmax_lower=5 * 10**5)
        tracemalloc.start()
        try:
            sk = sketch_stream(iter_job_stream(str(path)), 1.0, 0.5, mode)
            _now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sk.n == n
        assert peak < 2**20

    def _log_ratio(self, x, tau):
        import math

        return math.log(x) / math.log(1 + tau)

    def test_pmax_lower_live_size(self):
        rng = random.Random(7)
        c2 = 4
        pmax_lower = 250
        stream = [rng.randint(1, c2 * pmax_lower) for _ in range(5000)]
        b = SketchBuilder(1.0, 1.0, KnowledgeMode(pmax_lower=pmax_lower))
        for p in stream:
            b.observe(p)
        assert b.max_live_size <= self._log_ratio(c2 * pmax_lower, b.tau) + 1
        assert b.max_store_ops <= 1

    def test_n_upper_live_size(self):
        rng = random.Random(8)
        n = 5000
        stream = [rng.randint(1, 10**6) for _ in range(n)]
        b = SketchBuilder(1.0, 1.0, KnowledgeMode(n_upper=n))
        for p in stream:
            b.observe(p)
            bound = min(
                self._log_ratio(3 * n**2 / (b.eps * b.alpha0), b.tau),
                self._log_ratio(max(b.p_curMax, 2), b.tau),
            ) + 2
            assert b.live_size() <= bound
        assert b.max_store_ops <= 3

    def test_no_knowledge_live_size(self):
        rng = random.Random(9)
        stream = [rng.randint(1, 10**6) for _ in range(5000)]
        b = SketchBuilder(1.0, 1.0)
        for p in stream:
            b.observe(p)
            assert b.live_size() <= self._log_ratio(max(b.p_curMax, 2), b.tau) + 1


class TestSerialization:
    def test_roundtrip(self):
        rng = random.Random(5)
        stream = [rng.randint(1, 3000) for _ in range(300)]
        sk = sketch_stream(stream, 0.5, 1.0)
        back = Sketch.from_json(sk.to_json())
        assert back.entries == sk.entries
        assert back.n == sk.n and back.p_max == sk.p_max
        assert back.to_json() == sk.to_json()

    def test_tau_computed_not_stored(self):
        b = SketchBuilder(0.7, 0.3)
        b.observe_all([5, 9, 200, 4000])
        text = b.finalize().to_json()
        assert "tau" not in json.loads(text)
        assert Sketch.from_json(text).tau == b.tau == 0.7 * 0.3 / 15.0

    def test_older_format_loads(self):
        # written before p_minL_stream was dropped from the format
        text = (
            '{"alpha0": 1.0, "entries": [{"count": 2, "rp": 1}, {"count": 1, '
            '"rp": 2}], "eps": 1.0, "n": 3, "p_max": 2, "p_minL_final": '
            '0.07407407407407407, "p_minL_stream": 1.0, "tau": '
            '0.06666666666666667}'
        )
        assert Sketch.from_json(text) == sketch_stream([1, 1, 2], 1.0, 1.0)

    def test_rounded_sizes_past_2_to_the_60_read_back(self):
        stream = [2**60 + k * 2**54 for k in range(40)] + [3, 7]
        sk = sketch_stream(stream, 1.0, 0.5)
        assert max(rp for rp, _c in sk.entries) > 2**60
        assert Sketch.from_json(sk.to_json()) == sk

    def test_rp_just_below_the_limit_checked_without_overflow(self):
        # the powers of (1+tau) that pass it stay finite floats
        sk = Sketch(((1, 1), (RP_LIMIT - 1, 1)), 2, RP_LIMIT - 1, 1.0, 1.0)
        with pytest.raises(ValueError, match=r"entry 1 \(rp=\d+\) is no rounded"):
            Sketch.from_json(sk.to_json())
        big = rounded_value(10_987, TAU)
        assert RP_LIMIT // 2 <= big < RP_LIMIT
        sk = Sketch(((1, 1), (big, 1)), 2, big, 1.0, 1.0)
        assert Sketch.from_json(sk.to_json()) == sk


def _golden_stream(seed):
    """(stream, eps, alpha0) of the seeded sketch golden file: uniform,
    log-uniform or few-distinct sizes up to 2**20, 2**60 or 2**200, with n
    up to 5000, so that a stream spans several blocks of jobs."""
    rng = random.Random(seed)
    eps, alpha0 = rng.choice((1.0, 0.5, 0.25)), rng.choice((1.0, 0.5))
    n = rng.randint(1, 5000)
    top = rng.choice((2**20, 2**60, 2**200))
    kind = seed % 3
    if kind == 0:
        stream = [rng.randint(1, top) for _ in range(n)]
    elif kind == 1:
        bits = [rng.randrange(top.bit_length() - 1) for _ in range(n)]
        stream = [rng.randint(1 << b, (2 << b) - 1) for b in bits]
    else:
        sizes = [rng.randint(1, top) for _ in range(rng.randint(1, 6))]
        stream = [rng.choice(sizes) for _ in range(n)]
    return stream, eps, alpha0


def _golden_runs(seed):
    """The 12 runs of one golden stream: 4 knowledge modes, each in arrival,
    ascending and descending order, as (sketch JSON SHA-256, n_cur,
    p_curMax, p_minL.hex(), live_size(), max_live_size, max_store_ops)."""
    stream, eps, alpha0 = _golden_stream(seed)
    rng = random.Random(-1 - seed)
    n_upper = rng.choice((len(stream), 2 * len(stream)))
    pmax_lower = rng.randint(1, max(stream))
    modes = (
        KnowledgeMode(),
        KnowledgeMode(pmax_lower=pmax_lower),
        KnowledgeMode(n_upper=n_upper),
        KnowledgeMode(n_upper=n_upper, pmax_lower=pmax_lower),
    )
    runs = []
    for mode in modes:
        for order in (stream, sorted(stream), sorted(stream, reverse=True)):
            b = SketchBuilder(eps, alpha0, mode)
            b.observe_all(order)
            sha = hashlib.sha256(b.finalize().to_json().encode()).hexdigest()
            runs.append([sha, b.n_cur, b.p_curMax, b.p_minL.hex(), b.live_size(),
                         b.max_live_size, b.max_store_ops])
    return runs


def test_sketches_match_golden_file():
    """The sketch and every builder counter of 100 seeded streams, each in
    4 knowledge modes and 3 orders, pinned bit for bit.
    tests/data/sketch_golden.json was written with the builder that counted
    one job at a time, by

        rows = [{"seed": seed, "runs": _golden_runs(seed)} for seed in range(100)]

    one row per line, with json.dumps(row, sort_keys=True)."""
    path = Path(__file__).parent / "data" / "sketch_golden.json"
    rows = json.loads(path.read_text())
    assert [row["seed"] for row in rows] == list(range(100))
    for row in rows:
        assert _golden_runs(row["seed"]) == row["runs"], row["seed"]

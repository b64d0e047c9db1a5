import json
import random
import re
from collections import Counter

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
        built = []

        class Recorded(SketchBuilder):
            def finalize(self):
                built.append(self)
                return super().finalize()

        monkeypatch.setattr(sketch_mod, "SketchBuilder", Recorded)
        for mode in (KnowledgeMode(), KnowledgeMode(n_upper=3000, pmax_lower=10**5)):
            one = SketchBuilder(1.0, 1.0, mode)
            for p in stream:
                one.observe(p)
            built.clear()
            sk = sketch_stream(stream, 1.0, 1.0, mode)
            (b,) = built
            assert sk == one.finalize()
            assert (b.n_cur, b.p_curMax, b.p_minL) == (one.n_cur, one.p_curMax, one.p_minL)
            assert (b.max_live_size, b.max_store_ops, b.live_size()) == (
                one.max_live_size, one.max_store_ops, one.live_size()
            )

    def test_rejected_job_leaves_earlier_ones_counted(self):
        b = SketchBuilder(1.0, 1.0)
        b.observe(5)
        with pytest.raises(ValueError, match="processing time must be >= 1"):
            b.observe(0)
        assert (b.n_cur, b.p_curMax, b.live_size()) == (1, 5, 1)
        with pytest.raises(ValueError, match="processing time must be >= 1"):
            sketch_stream([4, 9, -1, 3], 1.0, 1.0)


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


class TestSpaceBounds:
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

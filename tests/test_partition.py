import itertools
import math

import pytest

from streamsched import partition
from streamsched.partition import enumerate_partitions, ladder_values


def is_valid_partition(parts, b, delta):
    """True iff parts sums to b and >= m-1 entries are ladder values."""
    if any(x < 0 for x in parts):
        return False
    if sum(parts) != b:
        return False
    ladder = set(ladder_values(b, delta))
    on_ladder = sum(1 for x in parts if x in ladder)
    return on_ladder >= len(parts) - 1


def all_compositions(b, m):
    if m == 1:
        yield (b,)
        return
    for head in range(b + 1):
        for rest in all_compositions(b - head, m - 1):
            yield (head,) + rest


class TestLadderValues:
    def test_powers_of_two_capped(self):
        assert ladder_values(9, 1.0) == [0, 1, 2, 4, 8]

    def test_zero(self):
        assert ladder_values(0, 1.0) == [0]
        assert ladder_values(0, 0.5) == [0]

    def test_half_delta(self):
        assert ladder_values(3, 0.5) == [0, 1, 2, 3]

    def test_short_ladders_match_the_multiplication_loop(self):
        # below b*delta = 1/2 the ladder is 0..b without the loop; pin it
        # against the loop on a grid of delta in [2.6e-5, 1/24], b on both
        # sides of 1/(2 delta)
        def by_loop(b, delta):
            values, power = [0], 1.0
            while int(power) <= b:
                if int(power) != values[-1]:
                    values.append(int(power))
                power *= 1.0 + delta
            return values

        pairs = 0
        for j in range(15):
            delta = 0.6**j / 24
            edge = 0.5 / delta
            for b in {1, 2, 3, 7, int(edge) - 1, int(edge), math.ceil(edge)}:
                if b >= 1:
                    assert ladder_values(b, delta) == by_loop(b, delta), (b, delta)
                    pairs += 1
        assert pairs >= 90


class TestEnumerate:
    def test_contains_quoted_examples(self):
        parts = enumerate_partitions(9, 3, 1.0)
        assert (2, 2, 5) in parts
        assert (0, 9, 0) in parts
        assert (0, 1, 8) in parts

    def test_ordered_tuples_are_distinct(self):
        parts = enumerate_partitions(9, 3, 1.0)
        assert (2, 2, 5) in parts and (2, 5, 2) in parts

    def test_single_machine_builds_no_ladder(self, monkeypatch):
        def no_ladder(b, delta):
            raise AssertionError("ladder built for one machine")

        monkeypatch.setattr(partition, "ladder_values", no_ladder)
        assert enumerate_partitions(7, 1, 7.3e-5) == {(7,)}
        with pytest.raises(ValueError, match="b must be"):
            enumerate_partitions(-1, 1, 0.5)
        with pytest.raises(ValueError, match="delta must be"):
            enumerate_partitions(3, 1, 0.0)

    def test_single_machine(self):
        assert enumerate_partitions(1, 1, 1.0) == {(1,)}

    def test_all_sums_equal_b(self):
        for b in (0, 1, 7, 15):
            for tup in enumerate_partitions(b, 3, 0.5):
                assert sum(tup) == b

    @pytest.mark.parametrize("delta", [0.5, 1.0])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_brute_force_filter(self, m, delta):
        for b in range(0, 16):
            expected = {
                tup
                for tup in all_compositions(b, m)
                if is_valid_partition(tup, b, delta)
            }
            assert enumerate_partitions(b, m, delta) == expected

    def test_cardinality_bound(self):
        for b in (5, 12, 30):
            for m in (1, 2, 3):
                for delta in (0.5, 1.0):
                    count = len(enumerate_partitions(b, m, delta))
                    assert count <= m * len(ladder_values(b, delta)) ** (m - 1)


class TestIsValid:
    def test_two_ladder_positions(self):
        assert is_valid_partition((2, 5, 2), 9, 1.0)

    def test_no_ladder_positions(self):
        assert not is_valid_partition((3, 3, 3), 9, 1.0)

    def test_all_zero(self):
        assert is_valid_partition((0, 0, 0), 0, 1.0)

    def test_wrong_sum(self):
        assert not is_valid_partition((1, 2, 4), 9, 1.0)

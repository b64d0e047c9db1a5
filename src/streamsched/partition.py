"""Ordered splits of a group's job count across machines.

A split of b over m machines is admissible when at least m-1 of its entries
are either 0 or floor((1+delta)^q) for some integer q >= 0; these splits are
the branching set of the planner's dynamic program.
"""
from __future__ import annotations

import itertools

PartitionTuple = tuple[int, ...]


def _check(b: int, delta: float) -> None:
    if b < 0:
        raise ValueError("b must be >= 0")
    if delta <= 0:
        raise ValueError("delta must be > 0")


def ladder_values(b: int, delta: float) -> list[int]:
    """{0} plus the distinct floors of (1+delta)^q that are <= b, ascending.
    These are all of 0..b when b*delta < 1/2: times 1+delta, a power below b
    grows by less than 1/2 (float rounding included), so no floor is skipped."""
    _check(b, delta)
    if b * delta < 0.5:
        return list(range(b + 1))
    values, power = [0], 1.0
    while (v := int(power)) <= b:
        if v != values[-1]:
            values.append(v)
        power *= 1.0 + delta
    return values


def enumerate_partitions(b: int, m: int, delta: float) -> set[PartitionTuple]:
    """All admissible ordered m-tuples summing to b.

    Generated by choosing a free position, filling the other m-1 positions
    with ladder values of total <= b, and placing the remainder at the free
    position; duplicates collapse in the result set. One machine takes the
    whole group, so no ladder is built.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    _check(b, delta)
    if m == 1:
        return {(b,)}
    ladder = ladder_values(b, delta)
    result: set[PartitionTuple] = set()
    for free in range(m):
        for rest in itertools.product(ladder, repeat=m - 1):
            used = sum(rest)
            if used > b:
                continue
            tup = rest[:free] + (b - used,) + rest[free:]
            result.add(tup)
    return result


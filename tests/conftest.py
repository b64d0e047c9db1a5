import math

import pytest

from streamsched.model import CapacityInterval, MachineProfile, flat_profile


def make_profile(pieces, machine_index=1):
    """pieces: list of (length, alpha); a final unbounded piece reuses the
    last alpha if the list ends with (None, alpha)."""
    intervals = []
    t = 0.0
    for length, alpha in pieces:
        end = math.inf if length is None else t + length
        intervals.append(CapacityInterval(t, end, alpha))
        t = end
    if intervals[-1].end != math.inf:
        intervals.append(CapacityInterval(t, math.inf, intervals[-1].alpha))
    return MachineProfile(machine_index, tuple(intervals))


@pytest.fixture
def unit_profile():
    return flat_profile(1.0)

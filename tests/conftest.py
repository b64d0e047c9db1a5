import math

import pytest

from streamsched.model import CapacityInterval, MachineProfile, flat_profile
from streamsched.sketch import bucket_index, rounded_value


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


def boundary_streams(tau):
    """Sizes around 2^53, where float(p) stops being exact, and around 2^60;
    each stream adds both sides of the first power-table entry t above its
    anchor. Above 2^60 floats are 256 apart, so float(t - 1) == t there."""
    streams = []
    for anchor, extra in ((2**53, (2**53 - 1, 2**53 + 1)), (2**60, ())):
        t = rounded_value(bucket_index(anchor, tau), tau)
        streams.append([anchor, *extra, t - 1, t, t + 1])
    return streams


@pytest.fixture
def unit_profile():
    return flat_profile(1.0)

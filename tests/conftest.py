import math

import pytest

from streamsched import budget
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


def exact_fit_stream(rng, n_small, n_large):
    """(stream, eps, alpha0) whose n_small small jobs each equal an integral
    theta, so that together they hold exactly n_s*theta, the most work the
    reservation is sized for; or None when the draw gives no such theta.
    The largest of the n_large jobs after them sets theta."""
    n = n_small + n_large
    eps, alpha0 = rng.randint(1, 20) / 20, rng.randint(2, 20) / 20
    tau = budget.tau(eps, alpha0)
    theta = rng.randint(1, 40)
    if rounded_value(bucket_index(theta, tau), tau) != theta:
        return None  # a job of theta would round above theta, so be large
    p0 = round(3 * n * n * theta / (eps * alpha0))
    for p_max in (p0 - 1, p0, p0 + 1):
        if budget.threshold(eps, alpha0, n, p_max) == theta:
            large = [rng.randint(theta + 1, p_max) for _ in range(n_large - 1)]
            return [theta] * n_small + large + [p_max], eps, alpha0
    return None


@pytest.fixture
def unit_profile():
    return flat_profile(1.0)

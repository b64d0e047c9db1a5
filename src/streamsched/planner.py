"""Group-by-group enumerate-and-prune dynamic program over the sketch.

Groups (one per distinct rounded processing time) are appended in ascending
order. A state is a per-machine work vector w and the total completion time
sigma: jobs on machine i run back to back from time 0, so a job that ends
after x more work there completes at G_i^-1(w_i + x), G_i(t) being the work
the machine delivers by time t. Each expansion of a group goes straight into
one dict keyed by its class of equal per-machine work buckets (ratio
1+delta), which keeps one state per class. One keep rule decides each insert
and the final pick: the lower sigma wins, then the lower work vector, then
the state that arrived first.

Why classes that leave sigma out cost only e^(eps/24): budget.py, step 3.

`plan_at` is that loop at a given delta. `plan` runs it coarse first: V is
V', the sum of the winner's slot ends, and L a lower bound on OPT from the
sketch, and a run with V <= (1+eps) L is done whatever its delta. Only a
run that no coarser one certified goes down to the proven delta.
"""
from __future__ import annotations

import json
import math
from bisect import bisect_left
from collections import namedtuple
from itertools import accumulate
from operator import getitem, itemgetter

from . import budget
from .model import (
    RP_LIMIT,
    CapacityInterval,
    MachineProfile,
    require_alpha0,
    require_at_least,
    require_below_rp_limit,
    require_distinct_machines,
    require_integers,
    require_keys,
    require_list,
    require_numbers,
    require_positive,
    run_batch,
    work_to_time,
)
from .partition import enumerate_partitions
from .sketch import Sketch, bucket_groups, bucket_index, power_table

ZERO = "Z"  # signature symbol for an empty machine (log of 0 is undefined)

# plan() runs the DP at the proven delta times each of these, coarsest
# first, and stops at the first run whose V it can certify; the last run,
# at the proven delta, needs no certificate
TIERS = (16384, 1)


class EmptySketchError(ValueError):
    """The sketch has no entries to plan over."""


class FrontierBoundError(Exception):
    """A group's surviving frontier exceeds the bucket-count bound."""


def _coordinate(w: float, inv_log: float):
    """A machine's signature entry, its work's bucket; inv_log = 1/log1p(delta)."""
    return math.floor(math.log(w) * inv_log) if w > 0.0 else ZERO


def signature(work: tuple[float, ...], inv_log: float):
    """Per-machine geometric bucket indices of the work."""
    return tuple(_coordinate(w, inv_log) for w in work)


def expand_group(
    frontier: dict, rp: int, parts, profiles: tuple[MachineProfile, ...],
    inv_log: float,
) -> dict:
    """The next frontier, which maps each state's work signature to the
    state (sigma, work, part, prev): part splits the last group and prev is
    the (part, prev) pair of the state it extends, (None, None) at the empty
    schedule, so no ancestor holds a work vector. Every split in `parts` of a
    group of size rp extends every state, straight into the new dict under
    the keep rule, so keepers come out in their signatures' arrival order.
    Memo rows: (machine, work) -> {count: (added completion time of a batch
    started where that work runs out, new work, its signature entry)}."""
    cols = [{part[i] for part in parts} - {0} for i in range(len(profiles))]
    memos = [{} for _ in profiles]
    best: dict[tuple, tuple] = {}
    for sig, state in frontier.items():
        sigma, rows, prev = state[0], [], state[2:]
        for i, w in enumerate(state[1]):
            row = memos[i].get(w)
            if row is None:
                finish = work_to_time(profiles[i], 0.0, w)
                row = memos[i][w] = {0: (0.0, w, sig[i])}
                for c in cols[i]:
                    x, dsigma = w + c * rp, run_batch(profiles[i], finish, c, float(rp))
                    row[c] = (dsigma, x, _coordinate(x, inv_log))
            rows.append(row)
        for part in parts:
            dsigmas, nw, key = zip(*map(getitem, rows, part))
            ns = sigma
            for d in dsigmas:
                ns += d
            cur = best.get(key)
            if cur is None or ns < cur[0] or ns == cur[0] and nw < cur[1]:
                best[key] = (ns, nw, part, prev)
    return best


# the numbers, then the two lists
_PLAN_KEYS = (
    "V", "sigma_S_prime", "eps", "alpha0", "n", "small_reservation", "groups",
    "counts",
)
_OPTIONAL_KEYS = ("lower_bound", "delta")


class Plan(namedtuple(
    "Plan",
    "V sigma_S_prime eps alpha0 n small_reservation groups counts max_states "
    "lower_bound delta",
    defaults=(0, None, None),
)):
    """Selected schedule of the sketch jobs plus everything pass 2 needs.

    groups holds the sketch entries (rp, n_k) and counts[machine][group] the
    slots. lower_bound is L and delta the delta the DP ran at; both are None
    in plan files that predate them. max_states, the DP's peak frontier, is
    a statistic of the run: == skips it, and a Plan has no hash.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        """Raise ValueError naming the group unless every machine's `counts`
        row has one entry per group and each group's entries split its n_k."""
        self = super().__new__(cls, *args, **kwargs)
        groups, counts = self.groups, self.counts
        m = len(counts)
        if m == 0:
            raise ValueError("plan has no machine rows in counts")
        for g, (rp, n_k) in enumerate(groups):
            col = [row[g] for row in counts if g < len(row)]
            if len(col) < m or min(col, default=0) < 0 or sum(col) != n_k:
                raise ValueError(
                    f"group {g} (rp={rp}): counts {col} do not split n_k={n_k} "
                    f"over {m} machines"
                )
        if any(len(row) > len(groups) for row in counts):
            last = len(groups) - 1
            raise ValueError(f"counts has entries past the last group {last}")
        return self

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self[:8] + self[9:] == other[:8] + other[9:]  # all but max_states

    __ne__ = object.__ne__  # the inverse of __eq__; tuple's would see max_states
    __hash__ = None

    def to_json(self) -> str:
        obj = {
            "V": self.V,
            "sigma_S_prime": self.sigma_S_prime,
            "eps": self.eps,
            "alpha0": self.alpha0,
            "n": self.n,
            "small_reservation": self.small_reservation,
            "groups": [{"rp": rp, "n_k": nk} for rp, nk in self.groups],
            "counts": [list(row) for row in self.counts],
        }
        for key in _OPTIONAL_KEYS:
            if getattr(self, key) is not None:
                obj[key] = getattr(self, key)
        return json.dumps(obj, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Plan":
        """Keys this format no longer uses (older files carry some, such as
        `starts` and `tau`) are ignored, and `lower_bound` and `delta` may be
        missing, as in files that predate them; a missing key, a value of
        the wrong JSON kind, eps, alpha0 or small_reservation out of range,
        lower_bound or delta not finite and above 0, eps and alpha0 too
        small for budget.tau, or a group's rp or n_k below 1 raises
        ValueError naming it. So does a group whose rp is no rounded size at
        the plan's tau, or at or past RP_LIMIT (see bucket_groups)."""
        obj = json.loads(text)
        require_keys(obj, _PLAN_KEYS, "plan JSON")
        require_numbers(obj, _PLAN_KEYS[:-2], "plan JSON")
        optional = [key for key in _OPTIONAL_KEYS if key in obj]
        require_numbers(obj, optional, "plan JSON")
        require_positive(obj, optional, "plan JSON")
        require_integers(obj, ("n",), "plan JSON")
        require_positive(obj, ("eps", "alpha0"), "plan JSON", 1.0)
        tau = budget.tau(obj["eps"], obj["alpha0"])
        require_at_least(obj, ("small_reservation",), "plan JSON", 0)
        for g in require_list(obj["groups"], "plan JSON 'groups'"):
            require_keys(g, ("rp", "n_k"), "plan JSON group")
            require_integers(g, ("rp", "n_k"), "plan JSON group")
            require_at_least(g, ("rp", "n_k"), "plan JSON group", 1)
        for i, row in enumerate(require_list(obj["counts"], "plan JSON 'counts'")):
            require_list(row, f"plan JSON 'counts' row {i}")
            require_integers(row, range(len(row)), f"plan JSON 'counts' row {i} entry")
        groups = tuple((int(g["rp"]), int(g["n_k"])) for g in obj["groups"])
        bucket_groups([rp for rp, _nk in groups], tau, "plan group")
        return cls(
            V=obj["V"],
            sigma_S_prime=obj["sigma_S_prime"],
            eps=obj["eps"],
            alpha0=obj["alpha0"],
            n=int(obj["n"]),
            small_reservation=obj["small_reservation"],
            groups=groups,
            counts=tuple(tuple(int(c) for c in row) for row in obj["counts"]),
            **{key: obj[key] for key in optional},
        )


def _state_bound(sketch: Sketch, alpha0: float, delta: float, m: int) -> float:
    # a machine's work is 0 or in [1, sum(rp * count)], so its signature
    # entry takes at most b_p values; one state survives per signature
    total_work = sum(rp * c for rp, c in sketch.entries)
    L = max(total_work / alpha0, 2.0)
    b_p = math.log(L) / math.log1p(delta) + 2.0
    return b_p**m


def slot_works(
    counts, rps, profiles: tuple[MachineProfile, ...], reservation: float,
) -> list[list[float]]:
    """The plan's slot layout: [i][g] is the work machine i has delivered
    when its first slot of group g starts, and [i][-1] when its last slot
    ends. Each machine's groups run back to back in size order from the
    work it delivers by its head, G_1(R) on machine 1, whose reservation R
    holds the small jobs, and 0 elsewhere. emit places the jobs on this
    layout and slot_value sums its slot ends."""
    heads = [profiles[0].work_at(reservation)] + [0.0] * (len(profiles) - 1)
    return [
        list(accumulate((c * rp for rp, c in zip(rps, row)), initial=w))
        for w, row in zip(heads, counts)
    ]


def slot_value(
    counts, groups, profiles: tuple[MachineProfile, ...], reservation: float,
    n_small: int,
) -> float:
    """V', the sum of the slot ends of slot_works' layout plus n_small*R. A
    large job completes by its slot's end and a small one by R, so every
    schedule emit returns has sigma <= V' (budget.py, step 4)."""
    total = n_small * reservation
    rps = [rp for rp, _n_k in groups]
    layout = slot_works(counts, rps, profiles, reservation)
    for profile, row, starts in zip(profiles, counts, layout):
        for rp, c, w in zip(rps, row, starts):
            if c:
                total += run_batch(profile, profile.time_at(w), c, float(rp))
    return total


def _mean_profile(profiles: tuple[MachineProfile, ...]) -> MachineProfile:
    """The machines' mean capacity, G(t) = sum of G_i(t) / m, whose capacity
    stays in [alpha0, 1]; one machine's is its own profile."""
    if len(profiles) == 1:
        return profiles[0]
    starts = sorted({iv.start for prof in profiles for iv in prof.intervals})
    ends = starts[1:] + [math.inf]
    m = len(profiles)
    return MachineProfile(0, tuple(
        CapacityInterval(t, end, sum(
            prof._alphas[prof.interval_index_at(t)] for prof in profiles
        ) / m)
        for t, end in zip(starts, ends)
    ))


def lower_bound(sketch: Sketch, profiles: tuple[MachineProfile, ...]) -> float:
    """L <= OPT from the sketch alone, in O(mu + pieces): the larger of two
    bounds over the sketch's jobs, each lowered to ceil((1+tau)^(k-1)), the
    floor of the lowest bucket k that rounds to its group. Dropping the small
    jobs and shrinking the others cannot raise OPT.

    Capacity bound: the k-th completion of any schedule comes after the k
    smallest jobs' work S_k has been delivered, so no earlier than
    G^-1(S_k / m) on the mean-capacity profile; within a group the S_k step
    by its size, so each group is one batch on that profile. Speed-1 bound:
    capacities are at most 1, and at speed 1 the k-th largest job waits for
    ceil(k/m) jobs. The float result is rounded toward 0 by FLOAT_MARGIN."""
    tau, m, entries = sketch.tau, len(profiles), sketch.entries
    table = power_table(tau, bucket_index(entries[-1][0], tau))
    # bucket k rounds to floor(table[k]), so the first k with table[k] >= rp
    floors = [
        math.ceil(table[max(bisect_left(table, rp), 1) - 1]) for rp, _n_k in entries
    ]
    mean = _mean_profile(profiles)
    capacity, done = 0.0, 0  # done: the lowered work of the groups before
    for f, (_rp, n_k) in zip(floors, entries):
        capacity += run_batch(mean, mean.time_at(done / m), n_k, f / m)
        done += n_k * f

    def waits(k: int) -> int:  # sum of ceil(j/m) for j = 1..k
        q, r = divmod(k, m)
        return m * q * (q + 1) // 2 + r * (q + 1)

    speed1, ahead = 0, 0  # an exact int; ahead: the jobs of larger groups
    for f, (_rp, n_k) in zip(reversed(floors), reversed(entries)):
        speed1 += f * (waits(ahead + n_k) - waits(ahead))
        ahead += n_k
    # lowering either bound is sound: cap the int below the float range,
    # and drop a capacity bound that overflowed
    if not capacity < math.inf:
        capacity = 0.0
    return max(capacity, float(min(speed1, RP_LIMIT))) * (1.0 - budget.FLOAT_MARGIN)


def plan_at(
    sketch: Sketch,
    profiles: tuple[MachineProfile, ...],
    eps: float,
    alpha0: float,
    delta: float,
    trace: list | None = None,
) -> Plan:
    """Run the DP over a nonempty sketch at ladder and prune ratio 1+delta
    and package the best surviving schedule with its V; its lower_bound is
    left to `plan`.

    Each group's expansions are inserted one by one, one state kept per
    work signature (see the module docstring and `expand_group`). `trace`,
    if given, receives each group's surviving frontier.

    eps and alpha0 must be the ones the sketch was built with. A sketch
    whose total work sum(rp * count) is at or past RP_LIMIT, or whose V
    comes out past the float range, raises ValueError.
    """
    if (eps, alpha0) != (sketch.eps, sketch.alpha0):
        raise ValueError(
            f"plan eps={eps}, alpha0={alpha0} differ from the sketch's "
            f"eps={sketch.eps}, alpha0={sketch.alpha0}"
        )
    require_alpha0(profiles, alpha0)
    require_distinct_machines(profiles)
    require_below_rp_limit(
        sum(rp * c for rp, c in sketch.entries), "sketch's total work sum(rp * count)"
    )
    m = len(profiles)
    bound = _state_bound(sketch, alpha0, delta, m)
    inv_log = 1.0 / math.log1p(delta)

    frontier = {(ZERO,) * m: (0.0, (0.0,) * m, None, None)}  # the empty schedule
    max_states = 1
    for g, (rp, n_k) in enumerate(sketch.entries):
        parts = enumerate_partitions(n_k, m, delta)
        frontier = expand_group(frontier, rp, parts, profiles, inv_log)
        if len(frontier) > bound:
            raise FrontierBoundError(
                f"group {g} (rp={rp}, n_k={n_k}): frontier of {len(frontier)} "
                f"states exceeds the bound {bound:.6g}"
            )
        if trace is not None:
            trace.append(frontier)
        max_states = max(max_states, len(frontier))

    # the keep rule; the work vectors are distinct
    state = min(frontier.values(), key=itemgetter(0, 1))

    # counts[machine][group]: one split per group along the winner's chain
    splits, link = [], state[2:]
    while link[0] is not None:
        splits.append(link[0])
        link = link[1]
    counts = tuple(zip(*reversed(splits)))

    # G_1(G_1^-1(small)) can round below small: step R up (budget step 4)
    n_small = sketch.n - sum(n_k for _rp, n_k in sketch.entries)
    small = budget.small_work(eps, alpha0, sketch.n, sketch.p_max, n_small)
    first, reservation = profiles[0], profiles[0].time_at(small)
    while first.work_at(reservation) < small:
        reservation = math.nextafter(reservation, math.inf)
    slots = slot_value(counts, sketch.entries, profiles, reservation, n_small)
    V = slots * (1.0 + budget.FLOAT_MARGIN)
    if not math.isfinite(V):
        raise ValueError(f"V = {V} from slot ends {slots} is past the float range")
    return Plan(
        V=V,
        sigma_S_prime=state[0],
        eps=eps,
        alpha0=alpha0,
        n=sketch.n,
        small_reservation=reservation,
        groups=sketch.entries,
        counts=counts,
        max_states=max_states,
        delta=delta,
    )


def plan(
    sketch: Sketch,
    profiles: tuple[MachineProfile, ...],
    eps: float,
    alpha0: float,
    parallel: bool = False,
    trace: list | None = None,
) -> Plan:
    """Plan coarse first and stop on a certificate: run `plan_at` at the
    proven delta times each of TIERS in turn and return the first plan with
    V <= (1+eps) L, or else the proven-delta plan (budget.py, "The
    certificate"). L is computed once, after the first run has checked the
    inputs, and set as the plan's lower_bound. Its max_states is the peak
    over every run, and `trace`, if given, receives the returned run's
    frontiers.

    The DP is pure Python, so threads cannot speed it up; parallel=True is
    rejected. An empty sketch raises EmptySketchError; see `plan_at` for
    the rest.
    """
    if parallel:
        raise ValueError("parallel planning is not supported")
    if not sketch.entries:
        raise EmptySketchError("sketch has no entries")
    proven = budget.delta(eps, alpha0, len(sketch.entries))
    peak, bound = 0, None
    for k in TIERS:
        frontiers = None if trace is None else []
        pl = plan_at(sketch, profiles, eps, alpha0, proven * k, frontiers)
        peak = max(peak, pl.max_states)
        if bound is None:
            bound = lower_bound(sketch, profiles)
        if budget.certifies(pl.V, eps, bound):
            break
    pl = pl._replace(max_states=peak, lower_bound=bound)
    if trace is not None:
        for frontier in frontiers:
            trace.append(frontier)
    return pl

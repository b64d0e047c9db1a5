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
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from operator import getitem, itemgetter

from . import budget
from .model import (
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
from .sketch import Sketch, bucket_groups

ZERO = "Z"  # signature symbol for an empty machine (log of 0 is undefined)


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


@dataclass
class Plan:
    """Selected schedule of the sketch jobs plus everything pass 2 needs."""

    V: float
    sigma_S_prime: float
    eps: float
    alpha0: float
    n: int
    small_reservation: float
    groups: tuple[tuple[int, int], ...]  # (rp, n_k), the sketch entries
    counts: tuple[tuple[int, ...], ...]  # [machine][group]
    max_states: int = field(default=0, compare=False)

    def __post_init__(self):
        """Raise ValueError naming the group unless every machine's `counts`
        row has one entry per group and each group's entries split its n_k."""
        m = len(self.counts)
        if m == 0:
            raise ValueError("plan has no machine rows in counts")
        for g, (rp, n_k) in enumerate(self.groups):
            col = [row[g] for row in self.counts if g < len(row)]
            if len(col) < m or min(col, default=0) < 0 or sum(col) != n_k:
                raise ValueError(
                    f"group {g} (rp={rp}): counts {col} do not split n_k={n_k} "
                    f"over {m} machines"
                )
        if any(len(row) > len(self.groups) for row in self.counts):
            last = len(self.groups) - 1
            raise ValueError(f"counts has entries past the last group {last}")

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
        return json.dumps(obj, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Plan":
        """Keys this format no longer uses (older files carry some, such as
        `starts`, `tau` and `delta`) are ignored; a missing key, a value of
        the wrong JSON kind, eps, alpha0 or small_reservation out of range,
        eps and alpha0 too small for budget.tau, or a group's rp or n_k below 1
        raises ValueError naming it. So does a group whose rp is no rounded
        size at the plan's tau, or at or past RP_LIMIT (see bucket_groups)."""
        obj = json.loads(text)
        require_keys(obj, _PLAN_KEYS, "plan JSON")
        require_numbers(obj, _PLAN_KEYS[:-2], "plan JSON")
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
        )


def _state_bound(sketch: Sketch, alpha0: float, delta: float, m: int) -> float:
    # a machine's work is 0 or in [1, sum(rp * count)], so its signature
    # entry takes at most b_p values; one state survives per signature
    total_work = sum(rp * c for rp, c in sketch.entries)
    L = max(total_work / alpha0, 2.0)
    b_p = math.log(L) / math.log1p(delta) + 2.0
    return b_p**m


def plan(
    sketch: Sketch,
    profiles: tuple[MachineProfile, ...],
    eps: float,
    alpha0: float,
    parallel: bool = False,
    trace: list | None = None,
) -> Plan:
    """Run the DP over the sketch and package the best surviving schedule.

    Each group's expansions are inserted one by one, one state kept per
    work signature (see the module docstring and `expand_group`). `trace`,
    if given, receives each group's surviving frontier.

    eps and alpha0 must be the ones the sketch was built with. The DP is pure
    Python, so threads cannot speed it up; parallel=True is rejected. A
    sketch whose total work sum(rp * count) is at or past RP_LIMIT, or whose
    V comes out past the float range, raises ValueError.
    """
    if parallel:
        raise ValueError("parallel planning is not supported")
    if (eps, alpha0) != (sketch.eps, sketch.alpha0):
        raise ValueError(
            f"plan eps={eps}, alpha0={alpha0} differ from the sketch's "
            f"eps={sketch.eps}, alpha0={sketch.alpha0}"
        )
    if not sketch.entries:
        raise EmptySketchError("sketch has no entries")
    delta = budget.delta(eps, alpha0, len(sketch.entries))
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
    sigma_sp = state[0]
    factor = budget.value_factor(eps)
    V = factor * sigma_sp
    if not math.isfinite(V):
        raise ValueError(
            f"V = {factor} * sigma_S' = {sigma_sp} is past the float range"
        )

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
    return Plan(
        V=V,
        sigma_S_prime=sigma_sp,
        eps=eps,
        alpha0=alpha0,
        n=sketch.n,
        small_reservation=reservation,
        groups=sketch.entries,
        counts=counts,
        max_states=max_states,
    )

"""One-pass streaming construction of the rounded large-job summary.

Jobs are geometrically bucketed with ratio (1+tau). A job whose bucket
rounds below a running largeness threshold, never above the final one, is
skipped, so every knowledge mode gives the sketch of no knowledge. tau and
both thresholds come from the budget module.
"""
from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field

from . import budget
from .model import (
    RP_LIMIT, require_at_least, require_below_rp_limit, require_integers,
    require_keys, require_list, require_numbers, require_positive,
)


class EmptyStreamError(ValueError):
    """The job stream contained no jobs."""


# below this, the running threshold's 3.0*n_upper*n_upper is a finite float
N_UPPER_LIMIT = 2**511


@dataclass(frozen=True)
class KnowledgeMode:
    """Optional prior knowledge about the stream.

    n_upper: claimed upper bound n' with n <= n'.
    pmax_lower: claimed lower bound p' with 1 <= p' <= p_max.
    n_upper sets the running threshold and pmax_lower seeds it. Alone,
    pmax_lower skips nothing: there is no running threshold without n_upper.
    The closer the bounds, the smaller the live sketch. SketchBuilder.finalize
    rejects a stream that breaks either claim. n_upper from N_UPPER_LIMIT and
    pmax_lower from RP_LIMIT raise ValueError, since the running threshold
    would leave the float range.
    """

    n_upper: int | None = None
    pmax_lower: int | None = None

    def __post_init__(self):
        if self.n_upper is not None:
            if self.n_upper < 1:
                raise ValueError("n_upper must be >= 1")
            if self.n_upper >= N_UPPER_LIMIT:
                raise ValueError(
                    f"n_upper must be below 2**511, got an integer of "
                    f"{len(str(self.n_upper))} digits"
                )
        if self.pmax_lower is not None:
            if self.pmax_lower < 1:
                raise ValueError("pmax_lower must be >= 1")
            require_below_rp_limit(self.pmax_lower, "pmax_lower")


# Memoized (1+tau)^k tables, keyed by tau.  Powers are built by repeated
# multiplication so bucket boundaries are bit-stable across platforms.
_POWER_TABLES: dict[float, list[float]] = {}

# Every int below 2^53 converts to float exactly, so float(p) compares with
# the table's floats as p does. The tables are bisected with it there, since
# a float-to-float comparison costs about half an int-to-float one.
FLOAT_EXACT = 2**53


def power_table(tau: float, k: int) -> list[float]:
    """The memoized (1+tau)^j table, grown to hold j = k. Bucket j holds the
    p with table[j-1] <= p < table[j]. Read it only: it is shared, and the
    one list per tau only ever grows, so a caller may keep it."""
    table = _POWER_TABLES.setdefault(tau, [1.0])
    base = 1.0 + tau
    while len(table) <= k:
        table.append(table[-1] * base)
    return table


def bucket_index(p: int, tau: float) -> int:
    """The unique k >= 1 with (1+tau)^(k-1) <= p < (1+tau)^k.

    Found by bisection in the memoized power table, grown first until its
    last entry exceeds p, so boundary values are handled deterministically.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if tau <= 0:
        raise ValueError("tau must be > 0")
    table = _POWER_TABLES.get(tau)
    if table is None or p >= table[-1]:
        # the first (1+tau)^k past p has k > log(p) / log(1+tau), so the
        # table grows in one call and ends where entry-by-entry growth
        # would; from RP_LIMIT up the loop goes on to the first inf entry
        k = int(math.log(min(p, RP_LIMIT)) / math.log(1.0 + tau))
        while (table := power_table(tau, k))[-1] <= p:
            k += 1
    return bisect_right(table, float(p) if p < FLOAT_EXACT else p)


def rounded_value(k: int, tau: float) -> int:
    """floor((1+tau)^k), the rounded processing time of bucket k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return int(math.floor(power_table(tau, k)[k]))


def bucket_groups(rps, tau: float, what: str) -> list:
    """group_of[k]: the index in rps of the rp that bucket k rounds to,
    floor((1+tau)^k), or None when none does; every bucket from
    len(group_of) up rounds past max(rps).

    Raises ValueError naming `what` with the index and rp of the first rp
    at or past RP_LIMIT, or else of the first that no bucket maps to: one
    that is no rounded size at tau, since no job would round to it, or one
    that another index repeats."""
    for g, rp in enumerate(rps):
        require_below_rp_limit(rp, f"{what} {g}: rp")
    index_of = {rp: g for g, rp in enumerate(rps)}
    largest = max(index_of, default=0)
    group_of = [None]  # there is no bucket 0
    while (rp := rounded_value(len(group_of), tau)) <= largest:
        group_of.append(index_of.get(rp))
    reached = set(group_of)
    for g, rp in enumerate(rps):
        if g in reached:
            continue
        if index_of[rp] != g:
            raise ValueError(f"{what} {g} (rp={rp}) repeats {what} {index_of[rp]}")
        raise ValueError(
            f"{what} {g} (rp={rp}) is no rounded size floor((1+tau)^k) at "
            f"tau={tau}, so no job rounds to it"
        )
    return group_of


# the numbers, then the list of entries
_SKETCH_KEYS = ("eps", "alpha0", "n", "p_max", "entries")


@dataclass(frozen=True)
class Sketch:
    """Finalized multiset summary of the large jobs."""

    entries: tuple[tuple[int, int], ...]  # (rp, count), ascending by rp
    n: int
    p_max: int
    eps: float
    alpha0: float

    @property
    def tau(self) -> float:
        return budget.tau(self.eps, self.alpha0)

    def to_json(self) -> str:
        obj = {
            "eps": self.eps,
            "alpha0": self.alpha0,
            "n": self.n,
            "p_max": self.p_max,
            "entries": [{"rp": rp, "count": c} for rp, c in self.entries],
        }
        return json.dumps(obj, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Sketch":
        """Keys this format no longer uses (older files carry some, such as
        `tau`) are ignored; a missing key, a value of the wrong JSON kind, eps
        or alpha0 out of range or too small for budget.tau, n or p_max below
        1 or at or past RP_LIMIT, an entry's rp or count below 1, or counts
        that sum past n raise ValueError naming it. So does an entry whose
        rp is no rounded size at the sketch's tau, or at or past RP_LIMIT
        (see bucket_groups)."""
        obj = json.loads(text)
        require_keys(obj, _SKETCH_KEYS, "sketch JSON")
        require_numbers(obj, _SKETCH_KEYS[:-1], "sketch JSON")
        require_integers(obj, ("n", "p_max"), "sketch JSON")
        require_positive(obj, ("eps", "alpha0"), "sketch JSON", 1.0)
        tau = budget.tau(obj["eps"], obj["alpha0"])
        require_at_least(obj, ("n", "p_max"), "sketch JSON", 1)
        for key in ("n", "p_max"):
            require_below_rp_limit(int(obj[key]), f"sketch JSON: {key}")
        for e in require_list(obj["entries"], "sketch JSON 'entries'"):
            require_keys(e, ("rp", "count"), "sketch JSON entry")
            require_integers(e, ("rp", "count"), "sketch JSON entry")
            require_at_least(e, ("rp", "count"), "sketch JSON entry", 1)
        n = int(obj["n"])
        entries = [(int(e["rp"]), int(e["count"])) for e in obj["entries"]]
        total = sum(count for _rp, count in entries)
        if total > n:
            raise ValueError(f"sketch JSON: entries hold {total} jobs, more than n={n}")
        bucket_groups([rp for rp, _count in entries], tau, "sketch JSON entry")
        return cls(
            entries=tuple(sorted(entries)),
            n=n,
            p_max=int(obj["p_max"]),
            eps=obj["eps"],
            alpha0=obj["alpha0"],
        )


@dataclass
class SketchBuilder:
    """Single-writer streaming accumulator; call observe() per job, then finalize().

    The counts live in one list indexed by bucket number, in every knowledge
    mode; the modes only seed and raise the running threshold, which skips
    jobs and bounds live_size(), the count of nonzero buckets. The list and
    the shared power table still hold one entry per bucket up to p_max's,
    so memory is O(log p_max / tau) in every mode. When the threshold
    rises, the buckets whose rounded size fell below it are zeroed at once,
    walking a low-water bucket index forward, which also skips every job
    below it. Over a whole stream that walk costs at most the buckets below
    theta.
    """

    eps: float
    alpha0: float
    mode: KnowledgeMode = field(default_factory=KnowledgeMode)

    def __post_init__(self):
        if not 0.0 < self.eps <= 1.0:
            raise ValueError("eps must be in (0, 1]")
        if not 0.0 < self.alpha0 <= 1.0:
            raise ValueError("alpha0 must be in (0, 1]")
        self.tau = budget.tau(self.eps, self.alpha0)
        self.n_cur = 0
        self.p_curMax = 0
        self.p_minL = 0.0  # the running threshold; 0 while there is none
        self._counts: list[int] = [0, 0]  # indexed by bucket k, grows
        self._occupied = 0  # buckets with a nonzero count
        self._low = 1  # every bucket below this rounds below p_minL
        if self.mode.n_upper is not None and self.mode.pmax_lower is not None:
            self._raise_threshold(self.mode.pmax_lower, 0)
        # instrumentation for space/update-cost assertions
        self.max_live_size = 0
        self.max_store_ops = 0

    def live_size(self) -> int:
        return self._occupied

    def _raise_threshold(self, p: int, occupied: int) -> int:
        """Raise p_minL to theta at (n_upper, p), which never exceeds the
        final theta, and walk low, past the counts list if need be, to the
        first bucket that rounds to p_minL or more, zeroing the buckets it
        passes. Returns the occupied count after that."""
        thr = budget.threshold(self.eps, self.alpha0, self.mode.n_upper, p)
        if thr > self.p_minL:
            self.p_minL, counts = thr, self._counts
            while rounded_value(self._low, self.tau) < thr:
                if self._low < len(counts) and counts[self._low]:
                    counts[self._low] = 0
                    occupied -= 1
                self._low += 1
        return occupied

    def observe(self, p: int) -> None:
        self.observe_all((p,))

    def observe_all(self, stream) -> None:
        """observe() each processing time of the iterable in turn.

        A time below 1, or at or past RP_LIMIT, raises ValueError naming
        the job's position in the stream; the latter is checked only when a
        job sets a new maximum. The counters live in locals while the
        loop runs and are stored back when it stops, also when a job is
        rejected part way through.
        """
        tau = self.tau
        table = power_table(tau, 1)
        top = table[-1]
        n, p_max = self.n_cur, self.p_curMax
        max_live, max_ops = self.max_live_size, self.max_store_ops
        counts, occupied = self._counts, self._occupied
        skip_below = table[self._low - 1]  # the p whose bucket lies below low
        try:
            for p in stream:
                if p < 1:
                    raise ValueError(f"job {n + 1}: processing time must be >= 1")
                n += 1
                if p > p_max:
                    if p >= RP_LIMIT:
                        require_below_rp_limit(p, f"job {n}: processing time")
                    p_max = p
                    if self.mode.n_upper is not None:
                        occupied = self._raise_threshold(p, occupied)
                        skip_below = table[self._low - 1]
                x = float(p) if p < FLOAT_EXACT else p
                if x < skip_below:
                    continue
                if x < top:
                    k = bisect_right(table, x)
                else:
                    k = bucket_index(p, tau)
                    top = table[-1]
                if k >= len(counts):
                    counts.extend([0] * (k + 1 - len(counts)))
                c = counts[k]
                counts[k] = c + 1
                # one store op per job: a kept job rounds to p_minL or more,
                # so its bucket lies at or past low
                if c == 0:
                    occupied += 1
                    max_ops = 1
                    if occupied > max_live:
                        max_live = occupied
        finally:
            self.n_cur, self.p_curMax = n, p_max
            self.max_live_size, self.max_store_ops = max_live, max_ops
            self._occupied = occupied

    def finalize(self) -> Sketch:
        """Raises ValueError when the stream broke a knowledge-mode promise:
        the threshold then rose too fast and may have skipped large jobs."""
        if self.n_cur == 0:
            raise EmptyStreamError("no jobs observed")
        n = self.n_cur
        p_max = self.p_curMax
        if self.mode.n_upper is not None and n > self.mode.n_upper:
            raise ValueError(
                f"stream has {n} jobs, more than the promised n_upper "
                f"{self.mode.n_upper}"
            )
        if self.mode.pmax_lower is not None and p_max < self.mode.pmax_lower:
            raise ValueError(
                f"stream's largest job {p_max} is below the promised "
                f"pmax_lower {self.mode.pmax_lower}"
            )
        p_minL_final = budget.threshold(self.eps, self.alpha0, n, p_max)
        # buckets with equal rounded value are merged into one entry
        merged: dict[int, int] = {}
        for k, count in enumerate(self._counts):
            if count:
                rp = rounded_value(k, self.tau)
                merged[rp] = merged.get(rp, 0) + count
        return Sketch(
            entries=tuple(
                sorted((rp, c) for rp, c in merged.items() if rp > p_minL_final)
            ),
            n=n,
            p_max=p_max,
            eps=self.eps,
            alpha0=self.alpha0,
        )


def iter_job_stream(path: str):
    """Yield processing times from a job stream file, one integer per line.

    Blank lines are skipped; int() ignores padding itself, so a line is
    stripped only when int() rejects it. Lazy: never buffers the file.
    """
    with open(path) as fh:
        for line in fh:
            try:
                p = int(line)
            except ValueError:
                line = line.strip()
                if not line:
                    continue
                p = int(line)
            yield p


def sketch_stream(
    stream, eps: float, alpha0: float, mode: KnowledgeMode | None = None
) -> Sketch:
    """Build a sketch from any iterable of processing times."""
    builder = SketchBuilder(eps, alpha0, mode or KnowledgeMode())
    builder.observe_all(stream)
    return builder.finalize()

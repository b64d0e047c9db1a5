"""One-pass streaming construction of the rounded large-job summary.

Jobs are geometrically bucketed with ratio (1+tau). A job whose bucket
rounds below a running largeness threshold, never above the final one, is
skipped, so every knowledge mode gives the sketch of no knowledge. tau and
both thresholds come from the budget module.
"""
from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, islice

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


# Pass 1 reads the job file READ_CHARS characters at a time, completed to
# the end of a line, and counts BLOCK jobs at a time, so it holds at most
# one text block and one job block whatever n is.
READ_CHARS = 16 * 1024
BLOCK = 2048


@dataclass
class SketchBuilder:
    """Single-writer streaming accumulator; call observe() or observe_all(),
    then finalize().

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
        self._table = power_table(self.tau, 1)  # shared; only ever grows
        self.n_cur = 0
        self.p_curMax = 0
        self.p_minL = 0.0  # the running threshold; 0 while there is none
        self._counts: list[int] = [0, 0]  # indexed by bucket k, grows
        self._occupied = 0  # buckets with a nonzero count
        self._low = 1  # every bucket below this rounds below p_minL
        # instrumentation for space/update-cost assertions
        self.max_live_size = 0
        self.max_store_ops = 0
        if self.mode.n_upper is not None and self.mode.pmax_lower is not None:
            self._raise_threshold(self.mode.pmax_lower)

    def live_size(self) -> int:
        return self._occupied

    def _raise_threshold(self, p: int) -> None:
        """Raise p_minL to theta at (n_upper, p), which never exceeds the
        final theta, and walk low, past the counts list if need be, to the
        first bucket that rounds to p_minL or more, zeroing the buckets it
        passes."""
        thr = budget.threshold(self.eps, self.alpha0, self.mode.n_upper, p)
        if thr > self.p_minL:
            self.p_minL, counts = thr, self._counts
            while rounded_value(self._low, self.tau) < thr:
                if self._low < len(counts) and counts[self._low]:
                    counts[self._low] = 0
                    self._occupied -= 1
                self._low += 1

    def observe(self, p: int) -> None:
        self._observe_block([p])

    def observe_all(self, stream) -> None:
        """observe() each processing time of the iterable in turn, BLOCK
        jobs at a time.

        A time below 1, or at or past RP_LIMIT, raises ValueError naming
        the job's position in the stream, once the jobs before it are
        counted; a rejected job is not counted in n_cur. An error of the
        iterable itself is raised once the jobs it gave before it are
        observed, so the first bad job in stream order is the one named.
        """
        jobs = iter(stream)
        while True:
            block = []
            try:
                block.extend(islice(jobs, BLOCK))
            finally:
                # extend keeps the jobs read before an error of the iterable
                if block:
                    self._observe_block(block)
            if len(block) < BLOCK:
                return

    def _observe_block(self, jobs: list) -> None:
        """Count a nonempty list of jobs in stream order. The list is split
        only where a new maximum moves low, which happens at most once per
        bucket below theta over a whole stream."""
        hi = max(jobs)
        if min(jobs) < 1 or hi >= RP_LIMIT:
            bad = next(i for i, p in enumerate(jobs) if not 1 <= p < RP_LIMIT)
            if bad:
                self._observe_block(jobs[:bad])
            if jobs[bad] < 1:
                raise ValueError(f"job {self.n_cur + 1}: processing time must be >= 1")
            require_below_rp_limit(jobs[bad], f"job {self.n_cur + 1}: processing time")
        start = 0
        if self.mode.n_upper is not None and hi > self.p_curMax:
            theta = partial(budget.threshold, self.eps, self.alpha0, self.mode.n_upper)
            # theta is monotone in p, and every job before start has a theta
            # of at most low's rounded size; so the first job past it is a
            # new maximum, and the one that moves low
            while theta(hi) > (stop := rounded_value(self._low, self.tau)):
                end = next(i for i in range(start, len(jobs)) if theta(jobs[i]) > stop)
                self._count(jobs[start:end])
                self._raise_threshold(jobs[end])
                start = end
            self._raise_threshold(hi)  # low stays: this only sets p_minL
        self._count(jobs[start:])
        self.n_cur += len(jobs)
        self.p_curMax = max(self.p_curMax, hi)

    def _count(self, jobs: list) -> None:
        """Add jobs that all see the same low to their buckets' counts,
        skipping those whose bucket lies below low. The jobs are sorted, so
        each nonempty bucket takes two bisections: one finds its index in
        the power table, one finds the first job past it."""
        jobs, table = sorted(jobs), self._table
        i = bisect_left(jobs, table[self._low - 1])
        if i == len(jobs):
            return
        if jobs[-1] >= table[-1]:
            bucket_index(jobs[-1], self.tau)  # grows the shared table past it
        counts, occupied, k = self._counts, self._occupied, self._low
        top = bisect_right(table, jobs[-1], k)
        if top >= len(counts):
            counts.extend([0] * (top + 1 - len(counts)))
        while i < len(jobs):
            k = bisect_right(table, jobs[i], k)
            j = bisect_left(jobs, table[k], i)
            c = counts[k]
            counts[k] = c + j - i
            if not c:
                occupied += 1
            i = j
        # one store op per kept job: it rounds to p_minL or more, so its
        # bucket lies at or past low
        self._occupied, self.max_store_ops = occupied, 1
        self.max_live_size = max(self.max_live_size, occupied)

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
    """Iterate the processing times of a job stream file, one integer per
    line.

    Reads READ_CHARS characters at a time, completed to the end of a line,
    and parses each block with one map(int). A block with a blank or
    malformed line is parsed one line at a time: blank lines are skipped,
    and a malformed one raises int()'s ValueError, quoting the line without
    its padding, once the jobs before it are given. Holds one block.
    """
    return chain.from_iterable(_job_blocks(path))


def _job_blocks(path: str):
    with open(path) as fh:
        while block := fh.read(READ_CHARS) + fh.readline():
            lines = block.split("\n")
            if not lines[-1]:
                lines.pop()  # the end of the block's last line
            try:
                jobs = list(map(int, lines))
            except ValueError:
                jobs = []
                for line in filter(None, map(str.strip, lines)):
                    try:
                        jobs.append(int(line))
                    except ValueError:
                        yield jobs
                        raise
            yield jobs


def sketch_stream(
    stream, eps: float, alpha0: float, mode: KnowledgeMode | None = None
) -> Sketch:
    """Build a sketch from any iterable of processing times."""
    builder = SketchBuilder(eps, alpha0, mode or KnowledgeMode())
    builder.observe_all(stream)
    return builder.finalize()

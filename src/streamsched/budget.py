"""The one place that splits eps: every constant of the (1+eps) guarantee.

The sketch, the planner and pass 2 take their constants from here and do no
arithmetic on eps or alpha0 themselves. Each is computed once per builder,
plan or emit, never per job or per state.

  tau   = eps*alpha0/15                 bucket ratio 1+tau of the rounding
  theta = eps*alpha0*p_max/(3 n^2)      largeness threshold; the running
                                        one is theta at (n', p)
  delta = eps*alpha0/(24 mu)            the proven ladder and prune ratio
                                        1+delta; the planner tries coarser
                                        ones first (see "The certificate")
  V     = (1 + FLOAT_MARGIN) V'         the value pass 1 reports
  R     = G_1^-1(n_s*theta)             machine 1's small-job reservation

Here n jobs run on m machines whose capacity lies in [alpha0, 1], p_max is
the largest job, n' >= n the promised job-count bound (the running threshold
is 0 without one), mu the number of sketch groups, n_s the jobs outside the
sketch, sigma_S' the planner's best schedule of the sketch, V' the sum of its
slot ends in pass 2's layout plus n_s*R (step 4), and sigma the schedule
pass 2 emits. G_i(t) is the work machine i delivers by time t.

One fact is used by every step. Capacity lies in [alpha0, 1], so G^-1 has
slope at most 1/alpha0 and G^-1(y) >= y. Hence G^-1(y + x) <= G^-1(y) +
x/alpha0, and G^-1((1+c) y) <= (1 + c/alpha0) G^-1(y). A schedule runs the
jobs of each machine back to back from time 0 in some order, so a job whose
work coordinate is y (its work plus all before it) completes at G^-1(y).

The chain, one factor per step:

1. Rounding, factor 1 + eps/15 (proved). A job in bucket k has
   (1+tau)^(k-1) <= p < (1+tau)^k and rounds to rp = floor((1+tau)^k), so
   p <= rp <= (1+tau) p. Take an optimal schedule, drop the jobs outside the
   sketch, which completes no job later, and grow each p to rp. Every work
   coordinate grows by at most the factor 1+tau, so every completion by at
   most 1 + tau/alpha0 = 1 + eps/15: OPT(S') <= (1 + eps/15) OPT. For a
   fixed assignment, running each machine's jobs in ascending size is
   optimal under any profile (swapping a longer job ahead of a shorter one
   lowers one work coordinate), so the planner, which appends groups in
   ascending rp, loses nothing by its order.

2. The (delta, m)-partition ladder, factor (1 + 3 delta/alpha0)^mu <=
   e^(eps/8) (cited, not proved here). The planner splits each group only
   by partitions in which m-1 machine counts are 0 or floor((1+delta)^q).
   The paper's lemma bounds what this restriction loses; this chain charges
   it 1 + 3 delta/alpha0 per group, the bound for growing a batch of x equal
   jobs by floor(delta x) that acceptance criterion 7 checks on random
   batches. Nothing here proves that one machine absorbs no more than that
   when it takes the rounding of the m-1 others.

3. The prune, factor e^(eps/24) (proved). Unlike the paper's, the prune's
   classes leave sigma out, at no cost to this bound. A kept state A and a
   dropped B in one class have sigma(A) <= sigma(B) and each w_i(A) <
   (1+delta) w_i(B), or both are 0. By the fact above, a continuation
   replayed from A ends each job later than from B by at most delta/alpha0
   times its completion from B. Partitions do not depend on the state, so
   over the mu prunes the best schedule loses at most a factor
   (1 + eps/(24 mu))^mu <= e^(eps/24). The paper's classes are subsets of
   these and get exactly this bound from the same argument. This is the
   condition of Woeginger's DP-to-FPTAS framework (INFORMS J. Computing
   12(1), 2000). So sigma_S' <= e^(eps/24) e^(eps/8) OPT(S').

4. Small jobs, factor 1 + eps/3 (proved). A job is outside the sketch iff
   its rp <= theta, so p <= theta. Pass 1 skips only jobs whose rp lies
   below the running threshold, theta at (n', p) in the same float form,
   each of whose steps is monotone, so it never exceeds theta.
   The n_s of them hold at most n_s*theta work, which fits in machine 1's
   reservation R, in floats too: each p is an integer <= floor(theta), so
   sum p <= n_s*floor(theta) <= fl(n_s*theta) while n_s*floor(theta) < 2^53
   (past it, fl may fall half an ulp short), and the planner steps R up
   until G_1(R) >= fl(n_s*theta). Machine 1's slots start after that
   work, and the other machines' slots are the planner's schedule.
   A large job starts where its slot starts and needs p <= rp, so it
   completes no later than its slot ends, and a small job by R. V' is the
   sum of exactly these bounds, so OPT <= sigma <= V', at any delta.
   A slot of machine 1 ends at G_1^-1(G_1(R) + y), y the work of the slots
   up to it, which is at most G_1^-1(y) + n_s*theta/alpha0 by the fact
   above. So each of the at most n - n_s large jobs adds at most
   n_s*theta/alpha0 to sigma_S', and each small job R <= n_s*theta/alpha0.
   Together this adds at most n*n_s*theta/alpha0 = (n_s/n) eps p_max/3
   <= (eps/3) sigma_S'.
   The largest job is always in the sketch, and completes no earlier than
   its rp >= p_max, so p_max <= sigma_S'. Hence
   OPT <= sigma <= V' <= (1 + eps/3) sigma_S'.
   The sketch counts every job of each rp above theta, so pass 2 has a
   slot for each. A job that finds none left, or small jobs whose work
   passes G_1(R), mean another stream or machine 1 profile.

The sandwich at the proven delta:

  OPT <= sigma <= V' <= (1 + eps/3) sigma_S'                      (step 4)
  sigma_S' <= e^(eps/24) e^(eps/8) (1 + eps/15) OPT               (steps 1-3)
  V = (1 + FLOAT_MARGIN) V'
    <= (1+eps/3)(1+eps/15) e^(eps/6) (1 + FLOAT_MARGIN) OPT <= (1+eps) OPT

The last inequality: f(eps) = ln(1+eps) - ln((1+eps/3)(1+eps/15)) - eps/6
is concave on (0, 1], 0 at eps = 0 and 0.174 at eps = 1, where the bound
is 1.68 OPT. So f(eps) >= 0.174 eps, which is above ln(1 + FLOAT_MARGIN)
for every eps >= 2^-27; no smaller eps is practical, since the power table
then holds about 15 ln(p_max)/(eps alpha0) > 2*10^9 ln(p_max) entries.

The certificate, at any delta. L <= OPT is the planner's lower bound over
the sketch (planner.lower_bound). If a run of the planner has
V <= (1+eps) L, the test of `certifies`, then V <= (1+eps) OPT, because
OPT <= sigma <= V' needs no delta. So the planner may run at a delta far
above the proven one and keep the result when it certifies; only an
uncertified run needs the chain above, at the proven delta, where
V <= (1+eps) OPT holds without L. This is the a-posteriori form of the
prune condition of step 3.

Floats. V' and L are float sums of O(m mu + pieces) terms, and each term
carries a few roundings of relative size 2^-53, grown by at most 1/alpha0
where a time is recovered from a work difference. Both are moved away from
the side they bound by FLOAT_MARGIN = 2^-30, room for 2^23 such roundings:
V = (1 + FLOAT_MARGIN) V' stays above the exact V' and above emit's float
completions (sigma passed an unmargined V' on 43 of the 949 emits of the
test batches, by at most 2.2e-16 relative), and L is rounded down by the
factor 1 - FLOAT_MARGIN, which also absorbs the half ulp of the float
product (1+eps) L that the planner compares V with.
"""
from __future__ import annotations

# V' is rounded up and L down by this relative margin (see "Floats")
FLOAT_MARGIN = 2.0**-30


def tau(eps: float, alpha0: float) -> float:
    """The bucket ratio's excess tau = eps*alpha0/15. Raises ValueError naming
    eps and alpha0 when 1 + tau rounds to 1, since no power of (1+tau) could
    then pass a processing time."""
    t = eps * alpha0 / 15.0
    if not 1.0 + t > 1.0:
        raise ValueError(
            f"eps={eps} and alpha0={alpha0} give tau={t}, so small that "
            "1 + tau rounds to 1"
        )
    return t


def threshold(eps: float, alpha0: float, n: int, p_max: int) -> float:
    """theta = eps*alpha0*p_max/(3 n^2): a sketch keeps only rp above it.
    At (n', p) it is pass 1's running threshold, never above theta."""
    return eps * alpha0 * p_max / (3.0 * n * n)


def delta(eps: float, alpha0: float, mu: int) -> float:
    """The ladder and prune ratio's excess eps*alpha0/(24 mu), mu >= 1 groups."""
    return eps * alpha0 / (24.0 * mu)


def certifies(value: float, eps: float, lower_bound: float) -> bool:
    """V <= (1+eps) L for a run's V and the sketch's lower bound L, so that
    V <= (1+eps) OPT at any delta (see "The certificate")."""
    return value <= (1.0 + eps) * lower_bound


def small_work(eps: float, alpha0: float, n: int, p_max: int, n_small: int) -> float:
    """n_s*theta, the most work the n_small jobs outside the sketch can hold;
    machine 1 reserves the time it needs to deliver it, G_1^-1(n_s*theta)."""
    return n_small * threshold(eps, alpha0, n, p_max)

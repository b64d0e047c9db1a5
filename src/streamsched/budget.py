"""The one place that splits eps: every constant of the (1+eps) guarantee.

The sketch, the planner and pass 2 take their constants from here and do no
arithmetic on eps or alpha0 themselves. Each is computed once per builder,
plan or emit, never per job or per state.

  tau   = eps*alpha0/15                 bucket ratio 1+tau of the rounding
  theta = eps*alpha0*p_max/(3 n^2)      largeness threshold; the running
                                        one is eps*alpha0*p/(3 n'^2)
  delta = eps*alpha0/(24 mu)            partition ladder and prune ratio 1+delta
  V     = (1+eps/3)(1+eps/15)*sigma_S'  the value pass 1 reports
  R     = G_1^-1(n_s*theta)             machine 1's small-job reservation

Here n jobs run on m machines whose capacity lies in [alpha0, 1], p_max is
the largest job, n' >= n the promised job-count bound (the running threshold
is 0 without one), mu the number of sketch groups, n_s the jobs outside the
sketch, sigma_S' the planner's best schedule of the sketch and sigma the
schedule pass 2 emits. G_i(t) is the work machine i delivers by time t.

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

4. Small jobs, factor 1 + eps/3 (proved). A job is outside the sketch when
   pass 1 skipped it below the running threshold, which never exceeds
   theta (up to the rounding of the two float forms), or when its rounded
   size is at most theta; either way p <= theta.
   The n_s of them hold at most n_s*theta work, which fits in machine 1's
   reservation R. Machine 1's slots start after that work, so each of its
   at most n - n_s large jobs completes at most n_s*theta/alpha0 later than
   in the planner's schedule, and each small job by R <= n_s*theta/alpha0.
   A large job starts where its slot starts and needs p <= rp, so it
   completes no later than its slot ends. Together this adds at most
   n*n_s*theta/alpha0 = (n_s/n) eps p_max/3 <= (eps/3) sigma_S'. The largest
   job is always in the sketch, and completes no earlier than its rp >=
   p_max, so p_max <= sigma_S'. Hence sigma <= (1 + eps/3) sigma_S'. This
   holds for the emitted schedule when pass 2 reports no bucket overflow;
   with overflow, giving each sketched job its slot still yields such a
   schedule, so OPT <= (1 + eps/3) sigma_S' always.

The sandwich:

  OPT <= (1 + eps/3) sigma_S' <= V                            (step 4)
  V <= (1+eps/3)(1+eps/15) e^(eps/24) e^(eps/8) (1+eps/15) OPT (steps 1-3)
    =  (1+eps/3)(1+eps/15)^2 e^(eps/6) OPT <= (1+eps) OPT
  sigma <= (1 + eps/3) sigma_S' <= V <= (1+eps) OPT            (no overflow)

The last inequality holds on (0, 1]: ln(1+eps) - ln((1+eps/3)(1+eps/15)^2)
- eps/6 is concave there, 0 at eps = 0 and 0.11 at eps = 1, where the bound
is 1.79 OPT.

Slack: V's factor 1 + eps/15 is used by neither side. OPT <= V needs only
1 + eps/3 (step 4), and V <= (1+eps) OPT only pays for it. It is free, as
is the rest of the room between 1.79 and 2 at eps = 1.
"""
from __future__ import annotations


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


def threshold_coeff(eps: float, alpha0: float, n_upper: int | None) -> float:
    """The running largeness threshold's factor on the largest job so far,
    eps*alpha0/(3 n'^2); 0 when no job-count bound n' is known."""
    if n_upper is None:
        return 0.0
    return eps * alpha0 / (3.0 * n_upper**2)


def threshold(eps: float, alpha0: float, n: int, p_max: int) -> float:
    """theta = eps*alpha0*p_max/(3 n^2): a sketch keeps only rp above it."""
    return eps * alpha0 * p_max / (3.0 * n * n)


def delta(eps: float, alpha0: float, mu: int) -> float:
    """The ladder and prune ratio's excess eps*alpha0/(24 mu), mu >= 1 groups."""
    return eps * alpha0 / (24.0 * mu)


def value_factor(eps: float) -> float:
    """V / sigma_S' = (1 + eps/3)(1 + eps/15)."""
    return (1.0 + eps / 3.0) * (1.0 + eps / 15.0)


def small_work(eps: float, alpha0: float, n: int, p_max: int, n_small: int) -> float:
    """n_s*theta, the most work the n_small jobs outside the sketch can hold;
    machine 1 reserves the time it needs to deliver it, G_1^-1(n_s*theta)."""
    return n_small * threshold(eps, alpha0, n, p_max)

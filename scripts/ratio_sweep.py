#!/usr/bin/env python3
"""Empirical approximation-ratio sweep: for each eps, run many seeded random
instances and report the worst and mean V/OPT and emitted-sigma/OPT ratios,
the worst V/L (L the plan's lower bound) and how many plans fell back to
the proven delta.

Usage:
    python3 scripts/ratio_sweep.py --instances 50 --eps 0.2 0.5 1.0
"""
import argparse
import random
import statistics
import sys

from streamsched import (
    budget,
    brute_force_opt,
    emit,
    evaluate_schedule,
    plan,
    sketch_stream,
)
from streamsched.model import random_instance


def sweep(eps: float, alpha0: float, instances: int, seed: int):
    rng = random.Random(seed)
    v_ratios, s_ratios, vl_ratios, fallbacks = [], [], [], 0
    for _ in range(instances):
        inst = random_instance(rng, rng.randint(3, 8), rng.randint(1, 3), 20, alpha0)
        stream = [j.p for j in inst.jobs]
        sk = sketch_stream(stream, eps, alpha0)
        pl = plan(sk, inst.machines, eps, alpha0)
        schedule, _ = emit(pl, stream, inst.machines)
        opt = brute_force_opt(inst).opt_value
        v_ratios.append(pl.V / opt)
        s_ratios.append(evaluate_schedule(inst, schedule) / opt)
        vl_ratios.append(pl.V / pl.lower_bound)
        fallbacks += pl.delta == budget.delta(eps, alpha0, len(sk.entries))
    return v_ratios, s_ratios, vl_ratios, fallbacks


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--instances", type=int, default=50)
    ap.add_argument("--eps", type=float, nargs="+", default=[0.2, 0.5, 1.0])
    ap.add_argument("--alpha0", type=float, default=0.5)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    print(f"{'eps':>5} {'worst V/OPT':>12} {'mean V/OPT':>11} "
          f"{'worst sig/OPT':>14} {'mean sig/OPT':>13} {'worst V/L':>10} "
          f"{'fallbacks':>10} {'bound':>7}")
    for eps in args.eps:
        v, s, vl, fallbacks = sweep(eps, args.alpha0, args.instances, args.seed)
        print(f"{eps:5.2f} {max(v):12.4f} {statistics.mean(v):11.4f} "
              f"{max(s):14.4f} {statistics.mean(s):13.4f} {max(vl):10.4f} "
              f"{fallbacks:10d} {1 + eps:7.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""End-to-end demo: generate an instance, sketch it in one pass, plan, replay
the stream into an explicit schedule, and compare against the brute-force
optimum when the instance is small enough.

Usage:
    python3 scripts/run_pipeline.py --jobs 8 --machines 2 --eps 0.5 --alpha0 0.5
"""
import argparse
import json
import random
import sys

from streamsched import (
    Instance,
    Job,
    TooLargeError,
    brute_force_opt,
    emit,
    evaluate_schedule,
    plan,
    sketch_stream,
)
from streamsched.model import random_profile


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--jobs", type=int, default=8)
    ap.add_argument("--machines", type=int, default=2)
    ap.add_argument("--max-p", type=int, default=50)
    ap.add_argument("--eps", type=float, default=0.5)
    ap.add_argument("--alpha0", type=float, default=0.5)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    profiles = tuple(
        random_profile(rng, args.alpha0, i + 1, 3) for i in range(args.machines)
    )
    stream = [rng.randint(1, args.max_p) for _ in range(args.jobs)]

    sk = sketch_stream(stream, args.eps, args.alpha0)
    pl = plan(sk, profiles, args.eps, args.alpha0)
    schedule, report = emit(pl, stream, profiles)

    jobs = tuple(Job(i + 1, p) for i, p in enumerate(stream))
    inst = Instance(profiles, jobs, args.alpha0)
    sigma = evaluate_schedule(inst, schedule)

    out = {
        "n": len(stream),
        "sketch_entries": len(sk.entries),
        "V": pl.V,
        "sigma_emitted": sigma,
        "bucket_overflow": report.bucket_overflow,
    }
    try:
        opt = brute_force_opt(inst).opt_value
        out["opt"] = opt
        out["ratio_V"] = pl.V / opt
        out["ratio_emitted"] = sigma / opt
    except TooLargeError:
        out["opt"] = None
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())

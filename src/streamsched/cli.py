"""Command-line subcommands: instance generation, pass-1 sketching, planning,
pass-2 emission, the brute-force oracle, and schedule evaluation."""
from __future__ import annotations

import argparse
import random
import sys

from . import assigner, model, oracle, planner, sketch as sketch_mod
from .model import Instance, Job, ScheduleError


def gen(
    jobs: int,
    machines: int,
    max_p: int,
    alpha0: float,
    intervals: int,
    seed: int,
    jobs_out: str,
    profile_out: str,
) -> None:
    """Write a seeded random job stream and machine profile file."""
    if jobs < 1 or machines < 1 or max_p < 1 or intervals < 1:
        raise ValueError("jobs, machines, max-p and intervals must be >= 1")
    if not 0.0 < alpha0 <= 1.0:
        raise ValueError("alpha0 must be in (0, 1]")
    rng = random.Random(seed)
    with open(jobs_out, "w") as fh:
        for _ in range(jobs):
            fh.write(f"{rng.randint(1, max_p)}\n")
    profiles = tuple(
        model.random_profile(rng, alpha0, i + 1, intervals) for i in range(machines)
    )
    model.dump_profiles(profiles, profile_out)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamsched",
        description="Streaming total-completion-time scheduling toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random jobs file and profile file")
    p.add_argument("--jobs", type=int, required=True)
    p.add_argument("--machines", type=int, default=1)
    p.add_argument("--max-p", type=int, default=100)
    p.add_argument("--alpha0", type=float, default=1.0)
    p.add_argument("--intervals", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs-out", required=True)
    p.add_argument("--profile-out", required=True)

    p = sub.add_parser("sketch", help="one-pass sketch of a job stream")
    p.add_argument("--jobs", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--alpha0", type=float, required=True)
    p.add_argument("--n-upper", type=int, default=None)
    p.add_argument("--pmax-lower", type=int, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser(
        "approximate", help="plan over a sketch at its eps and alpha0; prints V"
    )
    p.add_argument("--sketch", required=True)
    p.add_argument("--profile", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("schedule", help="pass-2 replay of the stream into a plan")
    p.add_argument("--plan", required=True)
    p.add_argument("--jobs", required=True)
    p.add_argument("--profile", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("oracle", help="brute-force optimum for tiny instances")
    p.add_argument("--jobs", required=True)
    p.add_argument("--profile", required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("eval", help="evaluate a schedule CSV for feasibility")
    p.add_argument("--schedule", required=True)
    p.add_argument("--profile", required=True)
    p.add_argument("--jobs", required=True)
    return parser


def _load_instance(jobs_path: str, profile_path: str) -> Instance:
    profiles = model.load_profiles(profile_path)
    jobs = tuple(
        Job(i, p) for i, p in enumerate(sketch_mod.iter_job_stream(jobs_path), 1)
    )
    return Instance(profiles, jobs, min(prof.min_alpha for prof in profiles))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "gen":
            gen(
                args.jobs,
                args.machines,
                args.max_p,
                args.alpha0,
                args.intervals,
                args.seed,
                args.jobs_out,
                args.profile_out,
            )
        elif args.command == "sketch":
            mode = sketch_mod.KnowledgeMode(
                n_upper=args.n_upper, pmax_lower=args.pmax_lower
            )
            sk = sketch_mod.sketch_stream(
                sketch_mod.iter_job_stream(args.jobs), args.eps, args.alpha0, mode
            )
            with open(args.out, "w") as fh:
                fh.write(sk.to_json())
                fh.write("\n")
        elif args.command == "approximate":
            with open(args.sketch) as fh:
                sk = sketch_mod.Sketch.from_json(fh.read())
            profiles = model.load_profiles(args.profile)
            pl = planner.plan(sk, profiles, sk.eps, sk.alpha0)
            with open(args.out, "w") as fh:
                fh.write(pl.to_json())
                fh.write("\n")
            print(f"{pl.V:.12g}")
        elif args.command == "schedule":
            with open(args.plan) as fh:
                pl = planner.Plan.from_json(fh.read())
            profiles = model.load_profiles(args.profile)
            schedule, _report = assigner.emit(
                pl, sketch_mod.iter_job_stream(args.jobs), profiles
            )
            model.write_schedule_csv(schedule, args.out)
        elif args.command == "oracle":
            instance = _load_instance(args.jobs, args.profile)
            result = oracle.brute_force_opt(instance)
            print(f"{result.opt_value:.12g}")
            if args.out:
                model.write_schedule_csv(result.opt_schedule, args.out)
        elif args.command == "eval":
            instance = _load_instance(args.jobs, args.profile)
            schedule = model.read_schedule_csv(args.schedule)
            try:
                sigma = model.evaluate_schedule(instance, schedule)
            except ScheduleError as exc:
                print(f"infeasible: {exc}")
                return 1
            print(f"sigma={sigma:.12g} feasible")
    except (ValueError, OSError, planner.FrontierBoundError, ScheduleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

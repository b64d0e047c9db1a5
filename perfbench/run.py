"""streamsched benchmark: closed-loop repetitions of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src, nothing is installed.  Workloads, metrics and the gate are described
in perfbench/README.md.

One repetition at a time, each in a fresh interpreter (so that the peak RSS
is the repetition's own), single threaded, plan(parallel=False).  A new
repetition starts while the measuring window of --seconds has room for
another of the median length, with at least MIN_REPS repetitions.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced repetitions, runs the one-off layer measurements and prints the
per-layer metrics.  The last line of stdout is the JSON result.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_REPS = 3
SETUP_SAMPLES = 21
REL_SLACK = 1e-9  # same relative slack as the acceptance suite
VALUE_MIN_S = 3.0  # pass 1 + plan repeats per instance and repetition (rep.py)
RUN_LIMIT_S = 165.0  # children still running then are killed

SETUP_CODE = (
    "import sys\n"
    "from speed import SpeedClock\n"
    "clock = SpeedClock().start()\n"
    "t0 = clock.now()\n"
    "import streamsched\n"
    "for path in sys.argv[1:]:\n"
    "    streamsched.load_profiles(path)\n"
    "print(clock.now() - t0)\n"
    "clock.stop()\n"
)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join((str(SRC), str(HERE)))
    return env


def run_child(kind, spec_path, deadline):
    """One repetition in a fresh interpreter; (result or None, seconds, error).
    A child still running at the run's deadline is killed and counts as failed."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "rep.py"), kind, spec_path],
            capture_output=True, text=True, env=child_env(), cwd=ROOT,
            timeout=max(1.0, deadline - t0),
        )
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - t0, f"{kind} repetition killed at the run deadline"
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        return None, dt, (proc.stderr.strip().splitlines() or ["no output"])[-1]
    return json.loads(proc.stdout.strip().splitlines()[-1]), dt, None


def measure_setup(profile_paths):
    """Fresh interpreters' `import streamsched` + load_profiles, on the speed
    clock.  The first (warm-up) interpreter may also compile bytecode; it is
    dropped."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, *profile_paths],
            capture_output=True, text=True, env=child_env(), cwd=ROOT,
            timeout=60, check=True,
        )
        if i:
            samples.append(float(out.stdout.strip()))
    return samples


class Gate:
    """Checks every repetition; each failed repetition counts once."""

    def __init__(self, specs, bounds):
        self.specs = specs
        self.bounds = bounds  # per instance: {"lb": ..., "ub": ...}
        self.reference = None
        self.attempted = 0
        self.failed = 0

    def check(self, result, error):
        self.attempted += 1
        problems = [f"repetition raised: {error}"] if result is None else []
        if result is not None:
            problems += self._check_rows(result["instances"])
        for msg in problems:
            print(f"GATE FAIL: {msg}", file=sys.stderr)
        self.failed += bool(problems)

    def _check_rows(self, rows):
        problems = []
        ident = [(r["V"].hex(), r["sigma"].hex()) for r in rows]
        if self.reference is None:
            self.reference = ident
        elif ident != self.reference:
            problems.append(f"V/sigma differ between repetitions: {ident} vs {self.reference}")
        for i, (row, spec, bd) in enumerate(zip(rows, self.specs, self.bounds)):
            V, sigma, eps = row["V"], row["sigma"], spec.eps
            if row["eval_error"]:
                problems.append(f"instance {i}: evaluate_schedule rejected: {row['eval_error']}")
            cap = V if row["bucket_overflow"] == 0 else (1 + eps) * V
            if not le(sigma, cap):
                problems.append(f"instance {i}: sigma {sigma!r} > {cap!r}")
            if not le(bd["lb"], sigma):
                problems.append(f"instance {i}: LB {bd['lb']!r} > sigma {sigma!r}")
            if not le(V, (1 + eps) * min(sigma, bd["ub"])):
                problems.append(f"instance {i}: V {V!r} > (1+eps) min(sigma, UB {bd['ub']!r})")
        return problems

    def check_oracle(self, orc):
        """OPT <= V <= (1+eps) OPT and sigma <= (1+eps) OPT."""
        self.attempted += 1
        opt, eps = orc["opt"], orc["eps"]
        ok = le(opt, orc["V"]) and le(orc["V"], (1 + eps) * opt) and le(orc["sigma"], (1 + eps) * opt)
        if not ok:
            print(f"GATE FAIL: oracle sandwich {orc}", file=sys.stderr)
            self.failed += 1


def le(a, b):
    return a <= b + REL_SLACK * max(1.0, abs(a), abs(b))


def instance_bounds(specs):
    from inputs import capacity_bound, read_jobs, speed1_bound, spt_list_bound
    from streamsched import model

    out = []
    for spec in specs:
        jobs = read_jobs(spec.jobs)
        profiles = model.load_profiles(spec.profiles)
        out.append(
            {
                "lb": max(speed1_bound(jobs, spec.m), capacity_bound(jobs, profiles)),
                "ub": spt_list_bound(jobs, profiles, model.work_to_time),
            }
        )
    return out


def loop(kinds, seconds, spec_path, gate, min_cycles, deadline):
    """Closed loop over repetition kinds (cycled) until the window is full."""
    results = {k: [] for k in kinds}
    durations = []
    start = time.perf_counter()
    i = 0
    while True:
        kind = kinds[i % len(kinds)]
        result, dt, error = run_child(kind, spec_path, deadline)
        gate.check(result, error)
        durations.append(dt)
        if result is not None:
            results[kind].append(result)
        i += 1
        left = seconds - (time.perf_counter() - start)
        if i >= min_cycles * len(kinds) and i % len(kinds) == 0 and left < statistics.median(durations) * len(kinds):
            return results


def summarize(name, values, unit):
    med = statistics.median(values)
    print(
        f"{name:<28} {med:14.6g} {unit:<6} median of {len(values)}"
        f" (min {min(values):.6g}, max {max(values):.6g})"
    )
    return med


def end_to_end(results, bounds, setup):
    summarize("wall_per_ref", [r["wall_per_ref"] for r in results], "s/s")
    metric = {}
    per_rep = lambda key: [sum(r[key] for r in res["instances"]) for res in results]
    metric["setup_s"] = (summarize("setup_s", setup, "s"), "s")
    for key in ("value_s", "schedule_s", "verify_s"):
        metric[key] = (summarize(key, per_rep(key), "s"), "s")
    rss = [res["peak_rss_mb"] for res in results]
    metric["peak_rss_mb"] = (summarize("peak_rss_mb", rss, "MB"), "MB")
    # ratios are deterministic (the gate checks it); the worst instance counts
    rows = results[0]["instances"]
    metric["v_over_lb"] = (max(r["V"] / b["lb"] for r, b in zip(rows, bounds)), "ratio")
    metric["sigma_over_lb"] = (max(r["sigma"] / b["lb"] for r, b in zip(rows, bounds)), "ratio")
    return metric


def per_layer(results, extras):
    traced, plain = results["traced"], results["chain"]
    med = lambda key: statistics.median(r["layers"][key] for r in traced)
    first = traced[0]["layers"]
    n = first["jobs"]
    sched_traced = statistics.median(sum(i["schedule_s"] for i in r["instances"]) for r in traced)
    sched_plain = statistics.median(sum(i["schedule_s"] for i in r["instances"]) for r in plain)
    m = {}
    m["sketch.s"] = (med("sketch.s"), "s")
    m["sketch.jobs_per_s"] = (n / med("sketch.s"), "1/s")
    m["sketch.bucket_index_ns"] = (extras["bucket_index_ns"], "ns")
    for k, v in extras["modes"].items():
        m[f"sketch.mode{k}.jobs_per_s"] = (v, "1/s")
    m["sketch.entries"] = (first["sketch.entries"], "count")
    m["sketch.kept_share"] = (first["sketch.kept"] / n, "ratio")
    m["sketch.live_size_max"] = (first["sketch.live_size_max"], "count")
    m["sketch.store_ops_max"] = (first["sketch.store_ops_max"], "count")
    m["sketch.mem_peak_kb"] = (extras["mem_peak_kb"], "KiB")
    m["partition.s"] = (med("partition.s"), "s")
    for key in ("partition.calls", "partition.tuples", "partition.ladder_len_max"):
        m[key] = (first[key], "count")
    m["planner.s"] = (med("planner.s"), "s")
    m["planner.self_s"] = (med("planner.self_s"), "s")
    for key in ("planner.frontier_peak", "planner.frontier_sum", "planner.expansions", "planner.batch_calls"):
        m[key] = (first[key], "count")
    m["planner.keep_ratio"] = (first["planner.frontier_sum"] / first["planner.expansions"], "ratio")
    m["model.run_batch_ns_per_job"] = (extras["run_batch_ns_per_job"], "ns")
    m["assigner.s"] = (med("assigner.s"), "s")
    m["assigner.jobs_per_s"] = (n / med("assigner.s"), "1/s")
    for key in ("assigner.work_to_time_calls", "assigner.small_placed",
                "assigner.bucket_overflow", "assigner.reservation_overflow"):
        m[key] = (first[key], "count")
    m["model.evaluate_jobs_per_s"] = (med("evaluate.jobs_per_s"), "1/s")
    m["model.csv_write_s"] = (extras["csv_write_s"], "s")
    m["model.csv_roundtrip_rejects"] = (extras["csv_roundtrip_rejects"], "count")
    orc = extras["oracle"]
    m["oracle.s"] = (orc["s"], "s")
    m["oracle.assignments"] = (orc["assignments"], "count")
    m["oracle.v_over_opt"] = (orc["V"] / orc["opt"], "ratio")
    m["oracle.sigma_over_opt"] = (orc["sigma"] / orc["opt"], "ratio")
    m["trace.overhead"] = (sched_traced / sched_plain - 1.0, "ratio")
    m["trace.schedule_s"] = (sched_traced, "s")
    m["trace.unattributed_s"] = (
        sched_traced - med("sketch.s") - med("planner.s") - med("assigner.s"), "s"
    )
    for name, (value, unit) in m.items():
        print(f"{name:<28} {value:14.6g} {unit}")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="streamsched benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT_S

    if not (SRC / "streamsched" / "__init__.py").is_file():
        print(f"error: no streamsched sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from inputs import WORKLOADS, make_workload

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {WORKLOADS}", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch)
    try:
        specs = make_workload(args.workload, args.seed, workdir, tiny=args.tiny)
        spec_path = os.path.join(workdir, "spec.json")
        with open(spec_path, "w") as fh:
            json.dump({
                "src": str(SRC),
                "value_min_s": 0.0 if args.tiny else VALUE_MIN_S,
                "instances": [asdict(s) for s in specs],
            }, fh)
        bounds = instance_bounds(specs)
        gate = Gate(specs, bounds)
        print(f"workload {args.workload} seed {args.seed}: "
              + ", ".join(f"n={s.n} m={s.m} eps={s.eps}" for s in specs))
        if args.trace:
            results = loop(["chain", "traced"], args.seconds, spec_path, gate, 2, deadline)
            extras, _, error = run_child("extras", spec_path, deadline)
            if extras is None:
                gate.check(None, error)
            else:
                gate.check_oracle(extras["oracle"])
            if not results["traced"] or not results["chain"] or extras is None:
                print("error: no successful traced repetition", file=sys.stderr)
                return 1
            metrics = per_layer(results, extras)
        else:
            setup = measure_setup([s.profiles for s in specs])
            results = loop(["chain"], args.seconds, spec_path, gate, MIN_REPS, deadline)["chain"]
            if not results:
                print("error: no successful repetition", file=sys.stderr)
                return 1
            metrics = end_to_end(results, bounds, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still has its inputs there

    print(f"failed_share {gate.failed / gate.attempted:.6g} ({gate.failed} of {gate.attempted} repetitions)")
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

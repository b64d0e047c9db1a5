"""One repetition of a workload, run in a fresh interpreter by run.py.

    python3 rep.py chain|traced|extras SPEC_JSON

`chain` times the public chain iter_job_stream -> sketch_stream -> plan ->
emit for every instance of the workload, reads the peak RSS as soon as the
last emit returns, then times evaluate_schedule on each emitted schedule.
`traced` does the same with the module functions wrapped from outside
(layers.py).  `extras` runs the one-off per-layer measurements: the CSV round
trip, the four knowledge modes, the bucket_index and run_batch
microbenchmarks, the tracemalloc peak of pass 1 and the oracle.

Every duration is read from the speed-normalised clock (speed.py), which
runs from the start of the process; wall_per_ref is the repetition's wall
seconds per reference second.

Prints one JSON object on stdout.
"""
from __future__ import annotations

import json
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from speed import SpeedClock  # noqa: E402

VERIFY_MIN_S = 0.2
now = time.perf_counter  # main() rebinds it to the speed clock


def _load(spec_path: str):
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import streamsched

    if not Path(streamsched.__file__).resolve().is_relative_to(Path(spec["src"])):
        raise SystemExit(f"streamsched imported from {streamsched.__file__}")
    return spec


def _mode(inst):
    from streamsched import sketch

    return sketch.KnowledgeMode(n_upper=inst["n_upper"], pmax_lower=inst["pmax_lower"])


def _instance(inst, profiles):
    from streamsched import model, sketch

    jobs = tuple(
        model.Job(i, p) for i, p in enumerate(sketch.iter_job_stream(inst["jobs"]), 1)
    )
    return model.Instance(profiles, jobs, inst["alpha0"])


def run_chain(spec, value_min_s, sink_factory=None):
    """Time the chain on every instance, then verify.  Returns the result
    and (profiles, [(sketch, plan, schedule, report)]) for further use.

    Pass 1 + plan is run until value_min_s has passed and value_s is their
    median.
    """
    # module attributes are looked up at call time so layers.py can wrap them
    from streamsched import assigner, model, planner, sketch

    profiles = [model.load_profiles(inst["profiles"]) for inst in spec["instances"]]
    rows, kept = [], []
    for inst, profs in zip(spec["instances"], profiles):
        values, vs = [], set()
        while not values or sum(values) < value_min_s:
            sink = sink_factory() if sink_factory else None
            t0 = now()
            sk = sketch.sketch_stream(
                sketch.iter_job_stream(inst["jobs"]), inst["eps"], inst["alpha0"], _mode(inst)
            )
            pl = planner.plan(sk, profs, inst["eps"], inst["alpha0"], parallel=False, trace=sink)
            values.append(now() - t0)
            vs.add(pl.V)
        if len(vs) > 1:
            raise RuntimeError(f"V differs between passes over one file: {sorted(vs)}")
        t1 = now()
        schedule, report = assigner.emit(pl, sketch.iter_job_stream(inst["jobs"]), profs)
        emit_s = now() - t1
        value_s = statistics.median(values)
        rows.append(
            {
                "V": pl.V,
                "value_s": value_s,
                "schedule_s": value_s + emit_s,
                "bucket_overflow": report.bucket_overflow,
            }
        )
        kept.append((sk, pl, schedule, report))
    # ru_maxrss is in KiB on Linux
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for row, inst, profs, (_, _, schedule, _) in zip(
        rows, spec["instances"], profiles, kept
    ):
        instance = _instance(inst, profs)
        t0 = now()
        try:
            row["sigma"] = model.evaluate_schedule(instance, schedule)
            row["eval_error"] = None
        except model.ScheduleError as exc:
            row["sigma"] = sum(p.completion for p in schedule.placements)
            row["eval_error"] = f"{type(exc).__name__}: {exc}"
        row["verify_s"] = now() - t0
        if row["eval_error"] is None and row["verify_s"] < VERIFY_MIN_S:
            # a short evaluation is timed again for VERIFY_MIN_S; the median
            # call is robust to the interruptions a single short call can hit
            # and to a speed-clock tick landing in it
            samples = []
            while sum(samples) < VERIFY_MIN_S:
                t0 = now()
                model.evaluate_schedule(instance, schedule)
                samples.append(now() - t0)
            row["verify_s"] = statistics.median(samples)
    return {"instances": rows, "peak_rss_mb": peak_rss_mb}, (profiles, kept)


def _repeat(fn, min_s=0.2):
    """Call fn until min_s has passed; returns (calls, seconds)."""
    calls = 0
    t0 = now()
    while True:
        fn()
        calls += 1
        dt = now() - t0
        if dt >= min_s:
            return calls, dt


def run_extras(spec):
    """One-off layer measurements.  The microbenchmarks run first, while no
    schedule is alive, so the collector has little to walk."""
    from streamsched import model, sketch

    modes = {1: (True, True), 2: (False, True), 3: (True, False), 4: (False, False)}
    mode_jobs = {k: 0 for k in modes}
    mode_s = {k: 0.0 for k in modes}
    bi_calls = bi_s = rb_jobs = rb_s = 0.0
    mem_peak = 0
    for inst in spec["instances"]:
        sizes = list(sketch.iter_job_stream(inst["jobs"]))
        n, p_max = len(sizes), max(sizes)
        for k, (know_n, know_p) in modes.items():
            mode = sketch.KnowledgeMode(
                n_upper=n if know_n else None, pmax_lower=p_max if know_p else None
            )
            calls, dt = _repeat(
                lambda: sketch.sketch_stream(
                    sketch.iter_job_stream(inst["jobs"]), inst["eps"], inst["alpha0"], mode
                )
            )
            mode_jobs[k] += calls * n
            mode_s[k] += dt

        tracemalloc.start()
        sk = sketch.sketch_stream(
            sketch.iter_job_stream(inst["jobs"]), inst["eps"], inst["alpha0"], _mode(inst)
        )
        mem_peak = max(mem_peak, tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()

        tau = sk.tau
        bucket_index = sketch.bucket_index

        def bucket_all():
            for p in sizes:
                bucket_index(p, tau)

        calls, dt = _repeat(bucket_all)
        bi_calls += calls * n
        bi_s += dt

        # largest group of the sketch, timed on the first machine's profile
        profile = model.load_profiles(inst["profiles"])[0]
        rp, count = max(sk.entries, key=lambda e: (e[1], e[0]))
        calls, dt = _repeat(lambda: model.run_batch(profile, 0.0, count, float(rp)))
        rb_jobs += calls * count
        rb_s += dt

    out = {
        "modes": {k: mode_jobs[k] / mode_s[k] for k in modes},
        "bucket_index_ns": bi_s / bi_calls * 1e9,
        "run_batch_ns_per_job": rb_s / rb_jobs * 1e9,
        "mem_peak_kb": mem_peak / 1024.0,
        "csv_write_s": 0.0,
        "csv_roundtrip_rejects": 0,
    }
    _, (profiles, kept) = run_chain(spec, 0.0)
    workdir = Path(spec["instances"][0]["jobs"]).parent
    for idx, (inst, profs, (_, _, schedule, _)) in enumerate(
        zip(spec["instances"], profiles, kept)
    ):
        # CSV round trip, as `schedule` then `eval` on the command line
        csv_path = str(workdir / f"roundtrip-{idx}.csv")
        t0 = now()
        model.write_schedule_csv(schedule, csv_path)
        out["csv_write_s"] += now() - t0
        try:
            model.evaluate_schedule(
                _instance(inst, profs), model.read_schedule_csv(csv_path)
            )
        except model.ScheduleError:
            out["csv_roundtrip_rejects"] += 1
    out["oracle"] = _oracle(spec, profiles, kept)
    return out


def _oracle(spec, profiles, kept):
    """Exact sandwich on the workload's oracle-sized instance: its last
    instance when that is small enough, else the first jobs of the stream."""
    from streamsched import assigner, model, oracle, planner, sketch

    inst, profs = spec["instances"][-1], profiles[-1]
    sizes = list(sketch.iter_job_stream(inst["jobs"]))
    if len(sizes) <= oracle.MAX_JOBS:
        _, pl, schedule, _ = kept[-1]
    else:
        # a prefix breaks the workload's n_upper promise, so plan it blind
        sizes = sizes[: oracle.MAX_JOBS]
        sk = sketch.sketch_stream(sizes, inst["eps"], inst["alpha0"])
        pl = planner.plan(sk, profs, inst["eps"], inst["alpha0"], parallel=False)
        schedule, _ = assigner.emit(pl, sizes, profs)
    instance = model.Instance(
        profs, tuple(model.Job(i, p) for i, p in enumerate(sizes, 1)), inst["alpha0"]
    )
    sigma = model.evaluate_schedule(instance, schedule)
    t0 = now()
    res = oracle.brute_force_opt(instance)
    return {
        "s": now() - t0,
        "assignments": res.assignments_explored,
        "opt": res.opt_value,
        "V": pl.V,
        "sigma": sigma,
        "eps": inst["eps"],
        "n": len(sizes),
    }


def main(argv):
    global now
    kind, spec_path = argv
    clock = SpeedClock().start()
    now = clock.now
    wall0, ref0 = time.perf_counter(), now()
    try:
        spec = _load(spec_path)
        if kind == "chain":
            out, _ = run_chain(spec, spec["value_min_s"])
        elif kind == "traced":
            import layers

            out = layers.traced_chain(spec, run_chain, now)
        elif kind == "extras":
            out = run_extras(spec)
        else:
            raise SystemExit(f"unknown repetition kind {kind!r}")
        out["wall_per_ref"] = (time.perf_counter() - wall0) / (now() - ref0)
    finally:
        clock.stop()
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])

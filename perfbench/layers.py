"""Outside-in tracing of the streamsched layers for the traced repetition.

The program is not modified: public functions are replaced on their modules
(and at the import sites that call them) by wrappers that record spans and
counts.  A span is (id, name, parent id, start, end); a layer's self time is
its span time minus the time of its direct child spans.

Wrapped:
  sketch.sketch_stream            span "sketch"
  sketch.SketchBuilder            builder kept for live size and store ops
  planner.plan                    span "planner", trace= sink of frontier sizes
  planner.enumerate_partitions    span "partition", partitions per group
  partition.ladder_values         longest ladder
  planner.work_to_time            count (planner-side batch timing)
  assigner.emit                   span "assigner"
  assigner.work_to_time           count
  model.evaluate_schedule         span "evaluate", jobs evaluated
"""
from __future__ import annotations

from streamsched import assigner, model, partition, planner, sketch


class FrontierSink:
    """Stands in for plan()'s trace list: keeps each group's survivor count
    and the partition count the planner enumerated for it, drops the states."""

    def __init__(self):
        self.frontier = []
        self.parts = []

    def append(self, states):
        self.frontier.append(len(states))

    def expansions(self) -> int:
        """Sum over groups of (survivors of the previous group) x partitions."""
        prev = [1] + self.frontier[:-1]
        return sum(f * p for f, p in zip(prev, self.parts))


class Recorder:
    def __init__(self, now):
        self.now = now  # the clock the chain is timed with
        self.spans = []
        self.stack = []
        self.counts = {"planner.batch_calls": 0, "assigner.work_to_time_calls": 0}
        self.ladder_len_max = 0
        self.evaluated_jobs = 0
        self.builders = []
        self.sinks = []

    def span(self, module, attr, name):
        fn = getattr(module, attr)

        now = self.now

        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            self.spans.append([sid, name, parent, now(), None])
            self.stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[sid][4] = now()

        setattr(module, attr, wrapper)

    def count(self, module, attr, key):
        fn = getattr(module, attr)
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        setattr(module, attr, wrapper)

    def install(self):
        rec = self
        base = sketch.SketchBuilder

        class RecordedBuilder(base):
            def finalize(self):
                rec.builders.append(self)
                return super().finalize()

        sketch.SketchBuilder = RecordedBuilder

        ladder = partition.ladder_values

        def ladder_values(b, delta):
            values = ladder(b, delta)
            rec.ladder_len_max = max(rec.ladder_len_max, len(values))
            return values

        partition.ladder_values = ladder_values

        enumerate_partitions = planner.enumerate_partitions

        def counted_partitions(b, m, delta):
            parts = enumerate_partitions(b, m, delta)
            rec.sinks[-1].parts.append(len(parts))
            return parts

        planner.enumerate_partitions = counted_partitions

        evaluate_schedule = model.evaluate_schedule

        def counted_evaluate(instance, schedule):
            rec.evaluated_jobs += len(schedule.placements)
            return evaluate_schedule(instance, schedule)

        model.evaluate_schedule = counted_evaluate
        self.span(planner, "enumerate_partitions", "partition")
        self.span(sketch, "sketch_stream", "sketch")
        self.span(planner, "plan", "planner")
        self.span(assigner, "emit", "assigner")
        self.span(model, "evaluate_schedule", "evaluate")
        self.count(planner, "work_to_time", "planner.batch_calls")
        self.count(assigner, "work_to_time", "assigner.work_to_time_calls")

    def new_sink(self):
        sink = FrontierSink()
        self.sinks.append(sink)
        return sink

    def times(self):
        """Total and self seconds per span name."""
        total, child = {}, {}
        for _sid, name, parent, start, end in self.spans:
            total[name] = total.get(name, 0.0) + (end - start)
            if parent is not None:
                pname = self.spans[parent][1]
                child[pname] = child.get(pname, 0.0) + (end - start)
        return total, {k: v - child.get(k, 0.0) for k, v in total.items()}


def traced_chain(spec, run_chain, now):
    """run_chain with every layer wrapped; adds the raw per-layer numbers."""
    rec = Recorder(now)
    rec.install()
    # one pass 1 + plan per instance, so spans and counts are per pass
    out, (_profiles, kept) = run_chain(spec, 0.0, sink_factory=rec.new_sink)
    total, self_s = rec.times()
    n = sum(inst["n"] for inst in spec["instances"])
    reports = [report for *_, report in kept]
    out["layers"] = {
        "jobs": n,
        "sketch.s": total["sketch"],
        "sketch.entries": sum(len(sk.entries) for sk, *_ in kept),
        "sketch.kept": sum(c for sk, *_ in kept for _, c in sk.entries),
        "sketch.live_size_max": max(b.max_live_size for b in rec.builders),
        "sketch.store_ops_max": max(b.max_store_ops for b in rec.builders),
        "partition.s": total["partition"],
        "partition.calls": sum(len(s.parts) for s in rec.sinks),
        "partition.tuples": sum(sum(s.parts) for s in rec.sinks),
        "partition.ladder_len_max": rec.ladder_len_max,
        "planner.s": total["planner"],
        "planner.self_s": self_s["planner"],
        "planner.frontier_peak": max(pl.max_states for _, pl, *_ in kept),
        "planner.frontier_sum": sum(sum(s.frontier) for s in rec.sinks),
        "planner.expansions": sum(s.expansions() for s in rec.sinks),
        "planner.batch_calls": rec.counts["planner.batch_calls"],
        "assigner.s": total["assigner"],
        "assigner.work_to_time_calls": rec.counts["assigner.work_to_time_calls"],
        "assigner.small_placed": sum(r.small_placed for r in reports),
        "assigner.bucket_overflow": sum(r.bucket_overflow for r in reports),
        "assigner.reservation_overflow": sum(r.reservation_overflow for r in reports),
        "evaluate.jobs_per_s": rec.evaluated_jobs / total["evaluate"],
    }
    return out

"""Streaming (1+eps)-approximation toolkit for total completion time on
parallel machines with piecewise-constant processing capacities."""

from .assigner import EmitReport, StreamMismatchError, classify, emit
from .model import (
    CapacityInterval,
    Instance,
    Job,
    MachineProfile,
    MissingJobError,
    OverlapError,
    PlacedJob,
    Schedule,
    ScheduleError,
    WorkMismatchError,
    dump_profiles,
    evaluate_schedule,
    flat_profile,
    load_profiles,
    read_schedule_csv,
    write_schedule_csv,
    run_batch,
    spt_on_assignment,
    work_between,
    work_to_time,
)
from .oracle import OracleResult, TooLargeError, brute_force_opt
from .partition import enumerate_partitions, is_valid_partition, ladder_values
from .planner import (
    EmptySketchError,
    Plan,
    PlanState,
    append_group,
    delta_from,
    plan,
    prune,
    signature,
)
from .sketch import (
    EmptyStreamError,
    KnowledgeMode,
    Sketch,
    SketchBuilder,
    bucket_index,
    iter_job_stream,
    rounded_value,
    sketch_stream,
)

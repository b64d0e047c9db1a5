"""The package's records are namedtuples: their repr, ==, hash, keyword
construction, defaults and error texts are pinned here, and importing the
package loads neither dataclasses nor inspect."""
import math
import os
import re
import subprocess
import sys
from array import array

import pytest

import streamsched
from streamsched.assigner import EmitReport
from streamsched.model import (
    RP_LIMIT, CapacityInterval, Instance, Job, MachineProfile, PlacedJob,
    Schedule, flat_profile,
)
from streamsched.oracle import OracleResult
from streamsched.planner import Plan
from streamsched.sketch import KnowledgeMode, Sketch, SketchBuilder

FLAT = (
    "MachineProfile(machine_index=1, "
    "intervals=(CapacityInterval(start=0.0, end=inf, alpha=0.5),))"
)
SCHEDULE = (
    "Schedule(job_ids=array('q', [1]), machines=array('q', [1]), "
    "starts=array('d', [0.0]), completions=array('d', [4.0]))"
)
PLAN_FIELDS = dict(
    V=10.5, sigma_S_prime=4.0, eps=0.5, alpha0=1.0, n=3, small_reservation=1.0,
    groups=((2, 1),), counts=((1,),),
)


def one_row_schedule():
    return Schedule([(1, 1, 0.0, 4.0)])


# (build, its repr); build() is called twice, so that == and hash compare
# two distinct objects
RECORDS = [
    (lambda: Job(1, 5), "Job(id=1, p=5)"),
    (lambda: CapacityInterval(0.0, math.inf, 0.5),
     "CapacityInterval(start=0.0, end=inf, alpha=0.5)"),
    (lambda: flat_profile(0.5), FLAT),
    (lambda: Instance((flat_profile(0.5),), (Job(1, 2),), 0.5),
     f"Instance(machines=({FLAT},), jobs=(Job(id=1, p=2),), alpha0=0.5)"),
    (lambda: PlacedJob(1, 1, 0.0, 4.0),
     "PlacedJob(job_id=1, machine_index=1, start=0.0, completion=4.0)"),
    (one_row_schedule, SCHEDULE),
    (lambda: KnowledgeMode(), "KnowledgeMode(n_upper=None, pmax_lower=None)"),
    (lambda: Sketch(((3, 2),), 4, 3, 0.5, 1.0),
     "Sketch(entries=((3, 2),), n=4, p_max=3, eps=0.5, alpha0=1.0)"),
    (lambda: OracleResult(4.0, one_row_schedule(), 1),
     f"OracleResult(opt_value=4.0, opt_schedule={SCHEDULE}, assignments_explored=1)"),
    (lambda: EmitReport(2),
     "EmitReport(small_placed=2, bucket_overflow=0, reservation_overflow=0)"),
    (lambda: Plan(**PLAN_FIELDS),
     "Plan(V=10.5, sigma_S_prime=4.0, eps=0.5, alpha0=1.0, n=3, "
     "small_reservation=1.0, groups=((2, 1),), counts=((1,),), max_states=0, "
     "lower_bound=None, delta=None)"),
]
IDS = [text[: text.index("(")] for _build, text in RECORDS]
# records that hold an array, or a Plan, whose == skips max_states, have no hash
UNHASHABLE = {"Schedule", "OracleResult", "Plan"}


@pytest.mark.parametrize("build, text", RECORDS, ids=IDS)
def test_repr_eq_and_hash(build, text):
    a, b = build(), build()
    assert repr(a) == text
    assert a == b and not a != b and a is not b
    assert a == tuple(a) and a[0] == getattr(a, a._fields[0])
    if type(a).__name__ in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(tuple(a))


@pytest.mark.parametrize("build, text", RECORDS, ids=IDS)
def test_fields_are_read_only(build, text):
    record = build()
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert repr(record) == text


def test_records_differ_by_any_field():
    assert Job(1, 5) != Job(1, 6) and Job(1, 5) != Job(2, 5)
    assert KnowledgeMode(3) != KnowledgeMode(None, 3)
    assert flat_profile(0.5) != flat_profile(0.5, 2) != flat_profile(0.25, 2)
    assert EmitReport(1) != EmitReport(1, 1)


def test_keyword_construction_and_defaults():
    assert Job(id=1, p=5) == Job(1, 5)
    assert CapacityInterval(start=0.0, end=1.0, alpha=1.0) == (0.0, 1.0, 1.0)
    assert MachineProfile(machine_index=1, intervals=flat_profile(0.5).intervals) == (
        flat_profile(0.5)
    )
    assert KnowledgeMode() == KnowledgeMode(n_upper=None, pmax_lower=None)
    assert KnowledgeMode(pmax_lower=7) == (None, 7)
    assert Sketch(entries=(), n=1, p_max=1, eps=1.0, alpha0=1.0).tau > 0
    assert EmitReport() == (0, 0, 0) and EmitReport(small_placed=4) == (4, 0, 0)
    assert Schedule() == Schedule([]) and len(Schedule().placements) == 0
    pl = Plan(**PLAN_FIELDS)
    assert (pl.max_states, pl.lower_bound, pl.delta) == (0, None, None)
    assert SketchBuilder(0.5, 1.0).mode == KnowledgeMode()
    assert SketchBuilder(0.5, 1.0, KnowledgeMode(5)).mode == KnowledgeMode(5)


def test_profile_tables_stay_outside_eq_hash_and_repr():
    a, b = flat_profile(0.5), flat_profile(0.5)
    b._works = ()
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b) == FLAT
    assert a._fields == ("machine_index", "intervals")


def test_plan_equality_skips_max_states():
    pl = Plan(**PLAN_FIELDS)
    busier = Plan(**PLAN_FIELDS, max_states=99)
    assert pl == busier and not pl != busier and busier.max_states == 99
    assert pl._replace(max_states=5) == pl
    for key, value in (("V", 11.0), ("lower_bound", 2.0), ("delta", 0.1)):
        other = pl._replace(**{key: value})
        assert pl != other and not pl == other, key
    assert pl.__eq__(tuple(pl)) is NotImplemented


MODE_DIGITS = f"an integer of {len(str(2**511))} digits"
RP_DIGITS = f"an integer of {len(str(RP_LIMIT))} digits"
BAD_PIECES = (CapacityInterval(0.0, 1.0, 1.0), CapacityInterval(2.0, math.inf, 1.0))
ERRORS = [
    (lambda: Job(0, 1), "job id must be >= 1, got 0"),
    (lambda: Job(3, 0), "job 3: processing time must be >= 1"),
    (lambda: Job(3, RP_LIMIT),
     f"job 3: processing time must be below 2**1023, got {RP_DIGITS}"),
    (lambda: CapacityInterval(0.0, 1.0, 0.0), "capacity must be in (0, 1], got 0.0"),
    (lambda: CapacityInterval(2.0, 1.0, 1.0), "interval end 1.0 <= start 2.0"),
    (lambda: MachineProfile(1, ()), "profile needs at least one interval"),
    (lambda: MachineProfile(1, (CapacityInterval(1.0, math.inf, 1.0),)),
     "intervals must start at time 0"),
    (lambda: MachineProfile(1, BAD_PIECES), "intervals must be contiguous"),
    (lambda: MachineProfile(1, BAD_PIECES[:1]), "last interval must be unbounded"),
    (lambda: Instance((flat_profile(1.0),), (), 0.0),
     "alpha0 must be in (0, 1], got 0.0"),
    (lambda: Instance((flat_profile(0.25),), (), 0.5),
     "machine 1 has capacity 0.25 below alpha0 0.5"),
    (lambda: Instance((flat_profile(1.0), flat_profile(1.0)), (), 0.5),
     "machine index 1 appears twice"),
    (lambda: Instance((flat_profile(1.0),), (Job(2, 1), Job(2, 1)), 0.5),
     "job id 2 appears twice"),
    (lambda: Schedule.from_columns(array("q"), array("q"), array("d"), array("d", [1.0])),
     "schedule columns differ in length"),
    (lambda: KnowledgeMode(0), "n_upper must be >= 1"),
    (lambda: KnowledgeMode(2**511), f"n_upper must be below 2**511, got {MODE_DIGITS}"),
    (lambda: KnowledgeMode(pmax_lower=0), "pmax_lower must be >= 1"),
    (lambda: KnowledgeMode(pmax_lower=RP_LIMIT),
     f"pmax_lower must be below 2**1023, got {RP_DIGITS}"),
    (lambda: SketchBuilder(0.0, 1.0), "eps must be in (0, 1]"),
    (lambda: SketchBuilder(1.0, 1.5), "alpha0 must be in (0, 1]"),
    (lambda: Plan(**{**PLAN_FIELDS, "counts": ()}), "plan has no machine rows in counts"),
    (lambda: Plan(**{**PLAN_FIELDS, "counts": ((0,),)}),
     "group 0 (rp=2): counts [0] do not split n_k=1 over 1 machines"),
    (lambda: Plan(**{**PLAN_FIELDS, "counts": ((1, 0),)}),
     "counts has entries past the last group 0"),
]


@pytest.mark.parametrize("build, text", ERRORS, ids=[t for _b, t in ERRORS])
def test_error_texts(build, text):
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        build()


@pytest.mark.parametrize("module", ["streamsched", "streamsched.cli"])
def test_import_loads_no_dataclasses(module):
    """A fresh interpreter imports the package without the dataclasses
    machinery, which pulls in inspect, ast, dis and tokenize."""
    src = os.path.dirname(os.path.dirname(streamsched.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = (
        f"import sys, {module}; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_replace_rebuilds_derived_tables():
    prof = flat_profile(0.5)._replace(intervals=(CapacityInterval(0.0, math.inf, 0.25),))
    assert prof.work_at(4.0) == 1.0
    inst = Instance((prof,), (Job(1, 2),), 0.25)._replace(jobs=(Job(3, 4),))
    assert inst._sizes == {3: 4.0}
    with pytest.raises(ValueError, match="^job id 3 appears twice$"):
        inst._replace(jobs=(Job(3, 4), Job(3, 1)))

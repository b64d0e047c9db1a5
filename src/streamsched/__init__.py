"""Streaming (1+eps)-approximation toolkit for total completion time on
parallel machines with piecewise-constant processing capacities. The top
level exports what the scripts use; import everything else from its module."""

from .assigner import emit
from .model import evaluate_schedule, load_profiles
from .oracle import brute_force_opt
from .planner import plan
from .sketch import sketch_stream

"""Consensus schedules of shared tasks.

Voters submit the order in which they would run a common set of tasks on
one machine; the library aggregates those ballots into a consensus
schedule under three objectives (total completion-time deviation, total
tardiness, processing-time-aware Kendall tau), exactly or heuristically,
and audits the rules against scheduling fairness properties.
"""

from __future__ import annotations

from .errors import (
    CollectiveSchedulesError,
    DuplicateTaskError,
    InstanceFormatError,
    InvalidReductionError,
    InvalidSpecError,
    MismatchedTaskSetError,
    TooManyTasksError,
    UnknownTaskError,
)
from .model import (
    Objective,
    PreferenceProfile,
    ProfileDefect,
    ProfileValidation,
    Schedule,
    TaskSet,
    completion_times,
    require_valid_profile,
    swap_tasks_in_profile,
    validate_profile,
)
from .metrics import (
    PairwiseCountMatrix,
    deviation,
    pairwise_counts,
    pta_kendall_tau,
    score,
    tardiness,
)
from .solver import (
    SolveOptions,
    SolveReport,
    brute_force_oracle,
    enumerate_optima,
    solve_exact,
)
from .heuristics import (
    LocalSearchStep,
    LocalSearchTrace,
    lmt,
    local_search,
    median_completion_times,
)
from .axioms import (
    AxiomVerdict,
    CondorcetConstraint,
    check_unanimity,
    find_pta_condorcet_schedule,
    is_pta_condorcet_consistent,
    lrm_probe,
    neutrality_probe,
    pta_condorcet_constraints,
    reinforcement_check,
    unanimous_pairs,
)
from .generation import GenSpec, canonical_model, generate
from .io import (
    dump_instance,
    dumps_instance,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    loads_instance,
    read_instance,
    write_instance,
)
from .rules import EXACT_RULES, HEURISTIC_RULES, RULE_NAMES, apply_rule, rule_name

__all__ = [
    "AxiomVerdict",
    "CollectiveSchedulesError",
    "CondorcetConstraint",
    "DuplicateTaskError",
    "EXACT_RULES",
    "GenSpec",
    "HEURISTIC_RULES",
    "InstanceFormatError",
    "InvalidReductionError",
    "InvalidSpecError",
    "LocalSearchStep",
    "LocalSearchTrace",
    "MismatchedTaskSetError",
    "Objective",
    "PairwiseCountMatrix",
    "PreferenceProfile",
    "ProfileDefect",
    "ProfileValidation",
    "RULE_NAMES",
    "Schedule",
    "SolveOptions",
    "SolveReport",
    "TaskSet",
    "TooManyTasksError",
    "UnknownTaskError",
    "apply_rule",
    "brute_force_oracle",
    "canonical_model",
    "check_unanimity",
    "completion_times",
    "deviation",
    "dump_instance",
    "dumps_instance",
    "enumerate_optima",
    "find_pta_condorcet_schedule",
    "generate",
    "instance_from_dict",
    "instance_to_dict",
    "is_pta_condorcet_consistent",
    "lmt",
    "load_instance",
    "loads_instance",
    "local_search",
    "lrm_probe",
    "median_completion_times",
    "neutrality_probe",
    "pairwise_counts",
    "pta_condorcet_constraints",
    "pta_kendall_tau",
    "read_instance",
    "require_valid_profile",
    "reinforcement_check",
    "rule_name",
    "score",
    "solve_exact",
    "swap_tasks_in_profile",
    "tardiness",
    "unanimous_pairs",
    "validate_profile",
    "write_instance",
]

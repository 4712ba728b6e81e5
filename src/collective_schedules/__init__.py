"""Consensus schedules of shared tasks.

Voters submit the order in which they would run a common set of tasks on
one machine; the library aggregates those ballots into a consensus
schedule under three objectives (total completion-time deviation, total
tardiness, processing-time-aware Kendall tau), exactly or heuristically,
and audits the rules against scheduling fairness properties.

Each public name is listed once, in ``_EXPORTS`` under the submodule that
defines it.  Importing the package loads no submodule: reading a name
imports its submodule then (PEP 562), and the name is looked up there on
every read, never copied into this namespace.
"""

import importlib

_EXPORTS = {
    "errors": (
        "CollectiveSchedulesError", "DuplicateTaskError", "InstanceFormatError", "InvalidReductionError",
        "InvalidSpecError", "MismatchedTaskSetError", "TooManyTasksError", "UnknownTaskError",
    ),
    "model": (
        "Objective", "PreferenceProfile", "ProfileDefect", "ProfileValidation", "Schedule", "TaskSet",
        "completion_times", "require_valid_profile", "swap_tasks_in_profile", "validate_profile",
    ),
    "metrics": ("PairwiseCountMatrix", "deviation", "pairwise_counts", "pta_kendall_tau", "score", "tardiness"),
    "solver": ("SolveOptions", "SolveReport", "brute_force_oracle", "enumerate_optima", "solve_exact"),
    "heuristics": ("LocalSearchStep", "LocalSearchTrace", "lmt", "local_search", "median_completion_times"),
    "axioms": (
        "AxiomVerdict", "CondorcetConstraint", "check_unanimity", "find_pta_condorcet_schedule",
        "is_pta_condorcet_consistent", "lrm_probe", "neutrality_probe", "pta_condorcet_constraints",
        "reinforcement_check", "unanimous_pairs",
    ),
    "generation": ("GenSpec", "canonical_model", "generate"),
    "io": (
        "dumps_instance", "instance_from_dict", "instance_to_dict", "loads_instance", "read_instance", "write_instance",
    ),
    "rules": ("EXACT_RULES", "HEURISTIC_RULES", "RULE_NAMES", "apply_rule", "rule_name"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str) -> object:
    # not cached in globals(): a tracer that rebinds the submodule's function
    # is seen here, and its restore is seen too
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

"""Named aggregation rules, exact and heuristic, behind one entry point.

Rule names used across the CLI and the audit pipelines:

* ``sum-dev``     exact minimizer of total completion-time deviation
* ``sum-tard``    exact minimizer of total tardiness
* ``pta-kemeny``  exact minimizer of processing-time-aware Kendall tau
* ``lmt``         median completion-time sort (heuristic)
* ``lmt-ls``      the sort followed by adjacent-swap descent (heuristic)

The heuristics target the deviation objective.  Every rule is resolute:
ties are settled lexicographically over declared task indices.
"""

from __future__ import annotations

from .errors import InvalidSpecError
from .heuristics import lmt, local_search
from .model import Objective, PreferenceProfile, Schedule, TaskSet, _shown
from .solver import solve_exact

EXACT_RULES: dict[str, Objective] = {
    "sum-dev": Objective.SUM_DEVIATION,
    "sum-tard": Objective.SUM_TARDINESS,
    "pta-kemeny": Objective.PTA_KENDALL_TAU,
}

HEURISTIC_RULES = ("lmt", "lmt-ls")

RULE_NAMES = tuple(EXACT_RULES) + HEURISTIC_RULES

# objective each rule tries to minimize (and is scored under by default)
RULE_OBJECTIVE: dict[str, Objective] = {
    **EXACT_RULES,
    "lmt": Objective.SUM_DEVIATION,
    "lmt-ls": Objective.SUM_DEVIATION,
}


def rule_name(rule: str | Objective) -> str:
    """Normalize a rule argument to one of :data:`RULE_NAMES`."""
    if isinstance(rule, Objective):
        for name, objective in EXACT_RULES.items():
            if objective is rule:
                return name
    elif rule in RULE_NAMES:
        return rule
    raise InvalidSpecError(f"unknown rule {_shown(rule)}; expected one of {', '.join(RULE_NAMES)}")


def apply_rule(
    rule: str | Objective,
    tasks: TaskSet,
    profile: PreferenceProfile,
) -> Schedule:
    """Run one rule and return its (tie-broken) schedule.

    ``lmt-ls`` descends from the ``lmt`` order; both read the same kept
    compiled profile and its due tables.
    """
    name = rule_name(rule)
    if name in EXACT_RULES:
        return solve_exact(tasks, profile, EXACT_RULES[name]).schedule
    start = lmt(tasks, profile)
    if name == "lmt":
        return start
    improved, _ = local_search(start, profile, Objective.SUM_DEVIATION)
    return improved

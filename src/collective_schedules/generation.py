"""Random instance generation for experiments and audits.

Two ballot models:

* ``uniform``: every voter draws an independent uniformly random order.
* ``plackett-luce``: the instance draws one utility per task from (0, 1];
  each voter then builds an order by repeatedly picking among the
  remaining tasks with probability proportional to utility.  Voters are
  i.i.d. but correlated through the shared utilities, so popular tasks
  cluster early.

Task lengths are uniform integers over ``length_range`` (default 1..10).
Everything is driven by one ``numpy`` generator, so equal specs give
equal instances.  The uniform ballots are drawn in one call, which shuffles
each row of a ``v x n`` table of ``arange(n)`` in turn: on numpy's shuffle
that is the same draws, and the same generator state after, as one
``rng.permutation(n)`` per voter, which ``tests/test_generation.py`` pins.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidSpecError
from .model import PreferenceProfile, TaskSet, _grouped, _is_int, _shown

MODEL_UNIFORM = "uniform"
MODEL_PLACKETT_LUCE = "plackett-luce"
MODELS = (MODEL_UNIFORM, MODEL_PLACKETT_LUCE)

# CLI shorthands: the correlated model is the Plackett-Luce one
MODEL_ALIASES = {
    "u": MODEL_UNIFORM,
    "uniform": MODEL_UNIFORM,
    "c": MODEL_PLACKETT_LUCE,
    "correlated": MODEL_PLACKETT_LUCE,
    "pl": MODEL_PLACKETT_LUCE,
    "plackett-luce": MODEL_PLACKETT_LUCE,
}


def canonical_model(name: str) -> str:
    if isinstance(name, str) and name.lower() in MODEL_ALIASES:
        return MODEL_ALIASES[name.lower()]
    raise InvalidSpecError(f"unknown ballot model {_shown(name)}")


@dataclass(frozen=True, slots=True)
class GenSpec:
    """Parameters of one random instance.

    ``utilities`` overrides the Plackett-Luce utility draw (one positive
    finite weight per task); it exists so tests can pin degenerate weightings.
    """

    n: int
    v: int
    model: str = MODEL_UNIFORM
    length_range: tuple[int, int] = (1, 10)
    seed: int = 0
    utilities: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if not _is_int(self.n, 1):
            raise InvalidSpecError(f"need at least one task, got n={_shown(self.n)}")
        if not _is_int(self.v, 1):
            raise InvalidSpecError(f"need at least one voter, got v={_shown(self.v)}")
        if self.model not in MODELS:
            raise InvalidSpecError(f"unknown ballot model {_shown(self.model)}")
        try:
            lo, hi = self.length_range
        except (TypeError, ValueError):
            lo = hi = None
        if not (_is_int(lo, 1) and _is_int(hi, lo)):
            raise InvalidSpecError(f"bad length range {_shown(self.length_range)}")
        if self.utilities is not None:
            if self.model != MODEL_PLACKETT_LUCE:
                raise InvalidSpecError("utilities only apply to the plackett-luce model")
            try:
                ok = len(self.utilities) == self.n and all(0 < u < float("inf") for u in self.utilities)
            except TypeError:
                ok = False
            if not ok:
                raise InvalidSpecError("need one positive finite utility per task")
        if not _is_int(self.seed, 0):
            raise InvalidSpecError(f"seed must be a non-negative integer, got {_shown(self.seed)}")


def generate(spec: GenSpec) -> tuple[TaskSet, PreferenceProfile]:
    """Draw one instance; equal specs produce identical instances."""
    import numpy as np  # imported on use: the solve path never loads numpy

    rng = np.random.default_rng(spec.seed)
    lo, hi = spec.length_range
    lengths = rng.integers(lo, hi + 1, size=spec.n)
    width = len(str(spec.n))
    ids = tuple(f"t{i + 1:0{width}d}" for i in range(spec.n))
    tasks = TaskSet(tuple((tid, int(length)) for tid, length in zip(ids, lengths)))

    if spec.model == MODEL_UNIFORM:
        # one call shuffles every voter's row: draws as in the module docstring
        rows = rng.permuted(np.tile(np.arange(spec.n), (spec.v, 1)), axis=1).tolist()
        return tasks, _grouped(tasks, map(tuple, rows))
    if spec.utilities is not None:
        utilities = np.asarray(spec.utilities, dtype=float)
    else:
        utilities = 1.0 - rng.random(spec.n)  # uniform on (0, 1]
    # the same doubles as Python floats, whose arithmetic is cheaper
    # than numpy scalars' and rounds the same
    utilities = utilities.tolist()
    # every pick's uniform from one call: the same doubles, in the same
    # order, as one rng.random() per pick, at a fraction of the cost;
    # converted one at a time, so no list of n * v floats is held
    uniform = map(float, rng.random(spec.n * spec.v)).__next__
    return tasks, _grouped(tasks, [_plackett_luce_ballot(uniform, utilities) for _ in range(spec.v)])


def _plackett_luce_ballot(uniform, utilities) -> tuple[int, ...]:
    # one uniform() draw per pick, len(utilities) in all; the ballot's task indices
    remaining = list(range(len(utilities)))
    order: list[int] = []
    while remaining:
        weights = [utilities[i] for i in remaining]
        total = sum(weights)
        draw = uniform() * total
        acc = 0.0
        chosen = len(remaining) - 1  # guard against float round-off
        for pos, w in enumerate(weights):
            acc += w
            if draw < acc:
                chosen = pos
                break
        order.append(remaining.pop(chosen))
    return tuple(order)

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
The Plackett-Luce ballots take each pick for all voters at once from one
``v x n`` table of uniforms, with ``cumsum``'s left-to-right totals, not the
builtin ``sum`` (compensated from 3.12): the same on every supported Python.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce

from .errors import InvalidSpecError
from .model import PreferenceProfile, TaskSet, _grouped, _is_int, _require_sizes, _shown

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

    ``utilities`` overrides the Plackett-Luce utility draw (one positive weight
    per task, finite in total); it exists so tests can pin degenerate weightings.
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
        _require_sizes(n=self.n, v=self.v)
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
                # the total, folded as the draw folds it: an infinite one picks the last task every time
                ok = ok and reduce(operator.add, map(float, self.utilities)) < float("inf")
            except (TypeError, OverflowError):
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
        rows = rng.permuted(np.tile(np.arange(spec.n), (spec.v, 1)), axis=1)
    else:
        # the drawn utilities are uniform on (0, 1]
        utilities = 1.0 - rng.random(spec.n) if spec.utilities is None else np.asarray(spec.utilities, dtype=float)
        rows = _plackett_luce_rows(rng.random((spec.v, spec.n)), utilities)
    return tasks, _grouped(tasks, map(tuple, rows.tolist()))


def _plackett_luce_rows(uniforms, utilities):
    # row r's ballot as task indices, its k-th pick drawn with uniforms[r, k]
    import numpy as np
    v, n = uniforms.shape
    weights = np.tile(utilities, (v, 1))
    rows = np.empty((v, n), dtype=np.intp)
    for k in range(n):
        # a picked task weighs 0.0, which adds exactly: left-to-right sums over the remaining tasks
        acc = np.cumsum(weights, axis=1)
        draw = uniforms[:, k] * acc[:, -1]
        # the first column whose total exceeds the draw; if round-off leaves none, the last remaining
        first = (acc <= draw[:, None]).sum(axis=1)
        last = n - 1 - (weights[:, ::-1] > 0).argmax(axis=1)
        rows[:, k] = chosen = np.minimum(first, last)
        weights[np.arange(v), chosen] = 0.0
    return rows

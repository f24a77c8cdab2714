"""Uniqueness-checking solver: counts completions of a clue set up to a
limit and keeps the first two found.

Propagation is naked singles plus hidden singles only, then guessing on a
cell with the fewest candidates (lowest index on ties, digits ascending),
which makes the outcome deterministic for a fixed input.

This is the one-puzzle interface, with `Grid` completions and a Python
double-check (`verify_two_completions`).  The grid search does not call it
per candidate: it confirms candidates in batches with the kernels' `confirm`
entry, which runs the same solver and an equivalent double-check in one
call, and comes back here only to diagnose a candidate that failed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from .backend import kernels
from .errors import InconsistentCluesError
from .grid import Grid, GridShape, digits_valid
from ._pykernels import INT_MAX, givens_consistent


@dataclass(frozen=True)
class SolveOutcome:
    """Completion count (saturated at the requested limit) and up to two
    completions in discovery order."""

    count: int
    completions: Tuple[Grid, ...]


def count_completions(
    shape: GridShape, cells: Sequence[int], limit: int = 2
) -> SolveOutcome:
    """Count completions of the given clue cells, stopping at `limit`.

    `cells` is row-major with 0 for blanks.  Raises InconsistentCluesError
    when two givens collide inside a unit (that is malformed input, not a
    puzzle with zero completions).
    """
    if not 1 <= limit <= INT_MAX:
        raise ValueError(f"limit must be in 1..{INT_MAX}")
    if len(cells) != shape.cell_count:
        raise ValueError(f"expected {shape.cell_count} cells")
    if not givens_consistent(shape.box_rows, shape.box_cols, cells):
        raise InconsistentCluesError("duplicate digit inside a unit")
    count, first, second = kernels.solve_limit(
        shape.box_rows, shape.box_cols, tuple(cells), limit
    )
    completions = []
    if first is not None:
        completions.append(Grid(shape, tuple(first)))
    if second is not None:
        completions.append(Grid(shape, tuple(second)))
    return SolveOutcome(count, tuple(completions))


def verify_two_completions(
    shape: GridShape, cells: Sequence[int], outcome: SolveOutcome
) -> bool:
    """Double-check a multiple-solutions verdict.

    Confirms that both saved completions extend the clue set, are valid
    grids, and differ from each other.  Pure check; does not raise on
    failure.
    """
    if outcome.count < 2 or len(outcome.completions) < 2:
        return False
    a, b = outcome.completions[0], outcome.completions[1]
    for comp in (a, b):
        if comp.shape != shape or len(comp.digits) != shape.cell_count:
            return False
        if not digits_valid(shape, comp.digits):
            return False
        if any(d and comp.digits[c] != d for c, d in enumerate(cells)):
            return False
    return a.digits != b.digits


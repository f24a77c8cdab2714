"""Minimal unavoidable sets of a solution grid, degree verification, and
clique-built higher-degree sets.

A family holds the sets of one degree as a tuple of int cell masks (bit i
is cell i), the form the hitting engine takes.  The one-set checks
`is_unavoidable`, `is_minimal` and `verify_degree` take a `CellSet`, whose
shape they check against the grid's.

A subset X of a grid is unavoidable when deleting it leaves a puzzle with
multiple completions; every proper puzzle must then take at least one clue
from X.  Minimal sets are found by a digit-subset search: for each small
set D of digits, blank every cell holding a digit of D and enumerate the
alternate completions whose difference from the grid stays within bounds.
Each alternate completion witnesses its difference set as unavoidable, and
every minimal set of size <= max_size (which involves at most max_size/2
distinct digits, each appearing at least twice) is witnessed under its own
digit set.  Subset-minimality filtering across the candidates then yields
exactly the minimal sets.

A blanked digit that changes leaves its cells in some set R of rows and
moves to the columns it held in R, permuted with no fixed point, keeping
one cell per box; every cell it leaves or fills is blank.  The native
kernel lists each blanked digit's moves and combines one per digit whose
filled cells are disjoint and equal the vacated ones, instead of searching
the blanked board, with the same results; with two changes per digit every
move is a rectangle swap.  `find_minimal_unavoidable` makes the same
`kernels.enumerate_diffs` call for every digit subset.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Dict, List, Tuple

from ._pykernels import CONFIRM_AMBIGUOUS
from .backend import kernels
from .bitrows import bits_ascending
from .errors import BudgetExceededError
from .grid import CellSet, Grid
from .solver import count_completions


@dataclass(frozen=True)
class UnavoidableFamily:
    """Unavoidable sets of one degree, each an int cell mask (bit i is
    cell i).

    Degree-1 families are ordered by ascending size (truncation and
    selection depend on it); clique families keep their enumeration order.
    """

    degree: int
    masks: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.degree == 1:
            sizes = [m.bit_count() for m in self.masks]
            if sizes != sorted(sizes):
                raise ValueError(
                    "degree-1 family must be ordered by ascending size"
                )

    def __len__(self) -> int:
        return len(self.masks)

    def truncated(self, cap: int) -> "UnavoidableFamily":
        """Keep the `cap` smallest sets under the deterministic order."""
        return UnavoidableFamily(self.degree, self.masks[:cap])


def puzzle_cells_without(grid: Grid, removed_mask: int) -> tuple:
    return tuple(
        0 if (removed_mask >> c) & 1 else d for c, d in enumerate(grid.digits)
    )


def is_unavoidable(grid: Grid, cells: CellSet) -> bool:
    """True iff deleting `cells` leaves a puzzle with multiple completions."""
    if cells.shape != grid.shape:
        raise ValueError("cell set shape differs from grid shape")
    outcome = count_completions(
        grid.shape, puzzle_cells_without(grid, cells.mask), 2
    )
    return outcome.count == 2


def is_minimal(grid: Grid, cells: CellSet) -> bool:
    """True iff no proper subset of `cells` is unavoidable.

    Checking single-cell removals suffices: unavoidability is monotone
    under supersets, so any unavoidable proper subset is contained in one
    of them.
    """
    if not is_unavoidable(grid, cells):
        return False
    for c in cells:
        if is_unavoidable(grid, CellSet(grid.shape, cells.mask ^ (1 << c))):
            return False
    return True


def find_minimal_unavoidable(grid: Grid, max_size: int = 12) -> UnavoidableFamily:
    """All minimal unavoidable sets of the grid with at most `max_size`
    cells, ordered by ascending size, ties by ascending cell sequence."""
    if max_size < 4:
        return UnavoidableFamily(1, ())
    shape = grid.shape
    n = shape.side
    digits = grid.digits
    cells_of_digit = [0] * (n + 1)
    for c, d in enumerate(digits):
        cells_of_digit[d] |= 1 << c

    candidates = set()
    for dcount in range(2, min(n, max_size // 2) + 1):
        per_digit = max_size - 2 * (dcount - 1)
        for dset in combinations(range(1, n + 1), dcount):
            blank = 0
            for d in dset:
                blank |= cells_of_digit[d]
            candidates.update(
                kernels.enumerate_diffs(
                    shape.box_rows,
                    shape.box_cols,
                    digits,
                    blank,
                    max_size,
                    per_digit,
                )
            )

    kept: List[int] = []
    for mask in sorted(
        candidates, key=lambda m: (m.bit_count(), tuple(bits_ascending(m)))
    ):
        if not any(k & mask == k for k in kept):
            kept.append(mask)
    return UnavoidableFamily(1, tuple(kept))


def recheck_family(grid: Grid, family: UnavoidableFamily) -> int:
    """Re-test every set of a degree-1 family by solving its complement;
    return the number of failures (0 when healthy).

    The complements are confirmed in one `kernels.confirm` call per
    complement size, and a set passes only on CONFIRM_AMBIGUOUS: a
    completion other than the grid, checked valid and extending the
    clues.  A set covering the whole grid has no clues left to confirm and
    goes through `is_unavoidable`.  A mask with a bit outside the grid's
    cells raises ValueError.
    """
    shape = grid.shape
    by_size: Dict[int, bytearray] = {}
    failures = 0
    for mask in family.masks:
        if mask >> shape.cell_count:
            raise ValueError("mask has bits outside the grid's cells")
        clues = tuple(bits_ascending(shape.universe_mask & ~mask))
        if not clues:
            failures += not is_unavoidable(grid, CellSet(shape, mask))
        else:
            by_size.setdefault(len(clues), bytearray()).extend(clues)
    digits = bytes(grid.digits)
    for k, cells in by_size.items():
        verdicts = kernels.confirm(shape.box_rows, shape.box_cols, digits, k, cells)
        failures += sum(v != CONFIRM_AMBIGUOUS for v in verdicts)
    return failures


def verify_degree(
    grid: Grid, cells: CellSet, degree: int, budget: int = 10**6
) -> bool:
    """Check that every removal of degree-1 cells leaves an unavoidable
    set.  Refuses (raises) when that would take more than `budget` solver
    calls; refusal is not a verdict."""
    if degree < 1:
        raise ValueError("degree must be at least 1")
    size = len(cells)
    if size < degree:
        raise ValueError("set smaller than its claimed degree")
    n_combos = comb(size, degree - 1)
    if n_combos > budget:
        raise BudgetExceededError(
            f"{n_combos} removals exceed the budget of {budget}"
        )
    cell_list = list(cells)
    for removal in combinations(cell_list, degree - 1):
        removed = cells.mask
        for c in removal:
            removed ^= 1 << c
        if not is_unavoidable(grid, CellSet(grid.shape, removed)):
            return False
    return True


def default_clique_start(k: int, degree: int) -> int:
    """Index below which cliques are skipped: those would be hit anyway by
    the time the degree check fires.  Matches 27 for degree 4 at k=16."""
    return max(degree - 1, 2 * (k - degree + 1) + 1)


def build_cliques(
    family: UnavoidableFamily,
    degree: int,
    start: int,
    cap: int,
) -> UnavoidableFamily:
    """Unions of `degree` pairwise-disjoint family members, enumerated in
    the nested loop order with index floors start, start-1, ...; at most
    `cap` cliques are produced.  The scan is the kernels' `cliques`."""
    if family.degree != 1:
        raise ValueError("cliques are built over a degree-1 family")
    if degree < 2:
        raise ValueError("clique degree must be at least 2")
    if start < degree - 1:
        raise ValueError("start must be at least degree - 1")
    if cap < 1:
        raise ValueError("cap must be at least 1")
    return UnavoidableFamily(
        degree, kernels.cliques(family.masks, degree, start, cap)
    )

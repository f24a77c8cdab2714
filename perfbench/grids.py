"""Seeded inputs for the benchmark.

Grids come from a randomised backtracking fill that lives here, not in the
program, so that a refactor of the program cannot change the inputs.  Each
workload pins a small pool of base grids (the first grids the fill makes
from the workload's pool seed).  A run's seed chooses the order of the pool
grids and a digit permutation of each.  The program therefore sees
different grids for different seeds, while the proper puzzles of every
input, as clue masks, are those of its base grid.

Cell positions are never permuted: band, row and column permutations
reorder the sets the hitting engine sees and move its cost by about 20%
per grid, which would swamp a two-grid pass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple


def fill_grid(box_rows: int, box_cols: int, rng: random.Random) -> Tuple[int, ...]:
    """A completed grid, row-major, drawn by backtracking over the cells in
    order with the digits of each cell tried in a shuffled order."""
    n = box_rows * box_cols
    cells = [0] * (n * n)
    rows = [0] * n
    cols = [0] * n
    boxes = [0] * n

    def place(i: int) -> bool:
        if i == n * n:
            return True
        r, c = divmod(i, n)
        b = (r // box_rows) * box_rows + c // box_cols
        used = rows[r] | cols[c] | boxes[b]
        digits = list(range(1, n + 1))
        rng.shuffle(digits)
        for d in digits:
            bit = 1 << d
            if used & bit:
                continue
            rows[r] |= bit
            cols[c] |= bit
            boxes[b] |= bit
            cells[i] = d
            if place(i + 1):
                return True
            rows[r] ^= bit
            cols[c] ^= bit
            boxes[b] ^= bit
            cells[i] = 0
        return False

    if not place(0):
        raise RuntimeError("backtracking fill found no grid")
    return tuple(cells)


def base_pool(box_rows: int, box_cols: int, pool_seed: int, size: int) -> List[str]:
    """The first `size` grids the fill draws from `pool_seed`, as lines."""
    rng = random.Random(pool_seed)
    return [
        "".join(map(str, fill_grid(box_rows, box_cols, rng))) for _ in range(size)
    ]


@dataclass(frozen=True)
class Input:
    """One grid handed to the program: base grid `base` of the pool with
    its digits relabelled.  Cells keep their positions, so clue masks on
    `line` are clue masks on the base grid."""

    base: int
    line: str


def make_inputs(pool: Sequence[str], seed: int, pass_no: int) -> List[Input]:
    """Every pool grid once, in an order and under digit permutations drawn
    from (seed, pass_no)."""
    rng = random.Random(f"{seed}:{pass_no}")
    order = list(range(len(pool)))
    rng.shuffle(order)
    out = []
    for base in order:
        side = max(map(int, pool[base]))
        digits = list(range(1, side + 1))
        rng.shuffle(digits)
        line = "".join(str(digits[int(d) - 1]) for d in pool[base])
        out.append(Input(base, line))
    return out

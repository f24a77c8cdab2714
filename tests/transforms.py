"""The sudoku equivalence group as explicit transformations, for tests.

The group is: digit relabelling x band-preserving row permutations x
stack-preserving column permutations x optional transpose.  Transpose is
only in the group when boxes are square (R == C); for rectangular boxes
it would reshape the boxes, leaving the grid family.  `minclue.symmetry`
canonicalizes over the same group without building its elements; the
tests use these to move grids and clue sets around an orbit.
"""

import random
from dataclasses import dataclass
from math import factorial
from typing import Iterator, Tuple

from minclue.grid import Grid, GridShape
from minclue.symmetry import _invert, block_permutations


@dataclass(frozen=True)
class Transformation:
    """digit_perm maps digit d to digit_perm[d-1]; row_perm/col_perm map
    index i to perm[i] and must preserve bands/stacks."""

    digit_perm: Tuple[int, ...]
    row_perm: Tuple[int, ...]
    col_perm: Tuple[int, ...]
    transpose: bool = False


def _is_block_preserving(perm: Tuple[int, ...], width: int) -> bool:
    blocks = len(perm) // width
    for b in range(blocks):
        target = perm[b * width] // width
        for o in range(1, width):
            if perm[b * width + o] // width != target:
                return False
    return True


def validate(t: Transformation, shape: GridShape) -> None:
    n = shape.side
    for name, perm, size in (
        ("digit_perm", t.digit_perm, n),
        ("row_perm", t.row_perm, n),
        ("col_perm", t.col_perm, n),
    ):
        if sorted(perm) != list(range(1, n + 1) if name == "digit_perm" else range(n)):
            raise ValueError(f"{name} is not a permutation for side {n}")
    if not _is_block_preserving(t.row_perm, shape.box_rows):
        raise ValueError("row_perm does not preserve bands")
    if not _is_block_preserving(t.col_perm, shape.box_cols):
        raise ValueError("col_perm does not preserve stacks")
    if t.transpose and shape.box_rows != shape.box_cols:
        raise ValueError("transpose requires square boxes")


def identity(shape: GridShape) -> Transformation:
    n = shape.side
    return Transformation(
        tuple(range(1, n + 1)), tuple(range(n)), tuple(range(n)), False
    )


def inverse(t: Transformation) -> Transformation:
    digit_inv = [0] * len(t.digit_perm)
    for d, image in enumerate(t.digit_perm, start=1):
        digit_inv[image - 1] = d
    if t.transpose:
        return Transformation(
            tuple(digit_inv), _invert(t.col_perm), _invert(t.row_perm), True
        )
    return Transformation(
        tuple(digit_inv), _invert(t.row_perm), _invert(t.col_perm), False
    )


def apply(t: Transformation, grid: Grid) -> Grid:
    """Transform a grid: transpose first when flagged, then rows, columns,
    and finally the digit relabelling."""
    shape = grid.shape
    validate(t, shape)
    n = shape.side
    digits = grid.digits
    inv_row = _invert(t.row_perm)
    inv_col = _invert(t.col_perm)
    out = [0] * shape.cell_count
    for i in range(n):
        src_r = inv_row[i]
        for j in range(n):
            src_c = inv_col[j]
            if t.transpose:
                d = digits[src_c * n + src_r]
            else:
                d = digits[src_r * n + src_c]
            out[i * n + j] = t.digit_perm[d - 1]
    return Grid(shape, tuple(out))


def cell_image(t: Transformation, shape: GridShape, c: int) -> int:
    """Where cell c of the input grid lands in apply(t, grid)."""
    n = shape.side
    r, col = c // n, c % n
    if t.transpose:
        r, col = col, r
    return t.row_perm[r] * n + t.col_perm[col]


def apply_cells(t: Transformation, shape: GridShape, mask: int) -> int:
    out = 0
    m = mask
    while m:
        low = m & -m
        m ^= low
        out |= 1 << cell_image(t, shape, low.bit_length() - 1)
    return out


def group_size(shape: GridShape) -> int:
    """Number of cell permutations in the group (digit relabellings not
    counted)."""
    n = shape.side
    rows = factorial(n // shape.box_rows) * factorial(shape.box_rows) ** (
        n // shape.box_rows
    )
    cols = factorial(n // shape.box_cols) * factorial(shape.box_cols) ** (
        n // shape.box_cols
    )
    return rows * cols * (2 if shape.box_rows == shape.box_cols else 1)


def cell_transformations(shape: GridShape) -> Iterator[Transformation]:
    """Every group element with the identity digit relabelling."""
    n = shape.side
    digit_id = tuple(range(1, n + 1))
    transposes = (False, True) if shape.box_rows == shape.box_cols else (False,)
    for tr in transposes:
        for row_perm in block_permutations(n, shape.box_rows):
            for col_perm in block_permutations(n, shape.box_cols):
                yield Transformation(digit_id, row_perm, col_perm, tr)


def random_transformation(
    shape: GridShape, rng: random.Random, relabel: bool = True
) -> Transformation:
    n = shape.side

    def pick_block_perm(width: int) -> Tuple[int, ...]:
        blocks = n // width
        block_order = list(range(blocks))
        rng.shuffle(block_order)
        perm = [0] * n
        for b in range(blocks):
            inner = list(range(width))
            rng.shuffle(inner)
            for o in range(width):
                perm[b * width + o] = block_order[b] * width + inner[o]
        return tuple(perm)

    digits = list(range(1, n + 1))
    if relabel:
        rng.shuffle(digits)
    transpose = shape.box_rows == shape.box_cols and rng.random() < 0.5
    return Transformation(
        tuple(digits),
        pick_block_perm(shape.box_rows),
        pick_block_perm(shape.box_cols),
        transpose,
    )

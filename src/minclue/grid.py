"""Board model for generalized sudoku: shapes, grids, cell sets, and the
line formats of grids and clue sets.

Cells are indexed 0..cell_count-1, row-major, top-left first.  Digits run
1..side.  The text format is one ASCII digit per cell, so only shapes with
side <= 9 can be written out; larger shapes are accepted in memory but have
no line format.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional, Sequence

from .errors import (
    BadCharacterError,
    RuleViolationError,
    WrongLengthError,
)


@dataclass(frozen=True)
class GridShape:
    """Box geometry: side = box_rows * box_cols, cell_count = side**2."""

    box_rows: int
    box_cols: int

    def __post_init__(self) -> None:
        if self.box_rows < 2 or self.box_cols < 2:
            raise ValueError("box dimensions must be at least 2x2")

    @property
    def side(self) -> int:
        return self.box_rows * self.box_cols

    @property
    def cell_count(self) -> int:
        return self.side * self.side

    @property
    def universe_mask(self) -> int:
        return (1 << self.cell_count) - 1

    def __str__(self) -> str:
        return f"{self.box_rows}x{self.box_cols}"

    @classmethod
    def parse(cls, text: str) -> "GridShape":
        """Parse a shape name.

        The common grid-size names 4x4, 6x6, 8x8 and 9x9 map to their
        usual box layouts (2x2, 2x3, 2x4, 3x3); anything else is read as
        explicit box dimensions RxC.
        """
        named = {
            "4x4": (2, 2),
            "6x6": (2, 3),
            "8x8": (2, 4),
            "9x9": (3, 3),
        }
        key = text.lower().strip()
        if key in named:
            return cls(*named[key])
        parts = key.split("x")
        if len(parts) != 2 or not all(p.isdigit() for p in parts):
            raise ValueError(f"bad shape {text!r}, expected RxC like 3x3")
        return cls(int(parts[0]), int(parts[1]))


SHAPE_4X4 = GridShape(2, 2)
SHAPE_6X6 = GridShape(2, 3)
SHAPE_9X9 = GridShape(3, 3)

# shapes inferable from a bare line length
_SHAPE_BY_LENGTH = {16: SHAPE_4X4, 36: SHAPE_6X6, 81: SHAPE_9X9}


def cell_box(shape: GridShape, c: int) -> int:
    """Box index: boxes are numbered row-major over the box grid."""
    _check_cell(shape, c)
    return (c // shape.side // shape.box_rows) * shape.box_rows + (
        c % shape.side
    ) // shape.box_cols


def _check_cell(shape: GridShape, c: int) -> None:
    if not 0 <= c < shape.cell_count:
        raise IndexError(f"cell index {c} out of range for {shape}")


@lru_cache(maxsize=None)
def unit_cells(shape: GridShape) -> tuple:
    """(rows, cols, boxes): each a tuple of side tuples of cell indices."""
    n = shape.side
    rows = [[] for _ in range(n)]
    cols = [[] for _ in range(n)]
    boxes = [[] for _ in range(n)]
    for c in range(shape.cell_count):
        rows[c // n].append(c)
        cols[c % n].append(c)
        boxes[cell_box(shape, c)].append(c)
    to_t = lambda groups: tuple(tuple(g) for g in groups)
    return to_t(rows), to_t(cols), to_t(boxes)


def all_units(shape: GridShape) -> tuple:
    rows, cols, boxes = unit_cells(shape)
    return rows + cols + boxes


def digits_valid(shape: GridShape, digits: Sequence[int]) -> bool:
    """True iff every row, column and box is a permutation of 1..side."""
    if len(digits) != shape.cell_count:
        return False
    full = set(range(1, shape.side + 1))
    for unit in all_units(shape):
        if {digits[c] for c in unit} != full:
            return False
    return True


@dataclass(frozen=True)
class Grid:
    """A completed solution grid.  Construct via from_digits/parse_grid,
    which validate; direct construction is for trusted callers."""

    shape: GridShape
    digits: tuple

    @classmethod
    def from_digits(cls, shape: GridShape, digits: Sequence[int]) -> "Grid":
        digits = tuple(digits)
        if len(digits) != shape.cell_count:
            raise WrongLengthError(
                f"expected {shape.cell_count} digits, got {len(digits)}"
            )
        grid = cls(shape, digits)
        if not grid.is_valid():
            raise RuleViolationError("digits violate a row/column/box constraint")
        return grid

    def is_valid(self) -> bool:
        return digits_valid(self.shape, self.digits)

    def __str__(self) -> str:
        return format_grid(self)


@dataclass(frozen=True)
class CellSet:
    """An immutable set of cells over a fixed shape, backed by a bit mask.

    Bit i of `mask` corresponds to cell index i; iteration is ascending.
    """

    shape: GridShape
    mask: int

    def __post_init__(self) -> None:
        if self.mask < 0 or self.mask >> self.shape.cell_count:
            raise ValueError("mask has bits outside the cell universe")

    @classmethod
    def from_cells(cls, shape: GridShape, cells) -> "CellSet":
        mask = 0
        for c in cells:
            _check_cell(shape, c)
            mask |= 1 << c
        return cls(shape, mask)

    def cells(self) -> Iterator[int]:
        mask = self.mask
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def __iter__(self) -> Iterator[int]:
        return self.cells()

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, c: int) -> bool:
        return 0 <= c < self.shape.cell_count and (self.mask >> c) & 1 == 1


def _resolve_shape(line: str, shape: Optional[GridShape]) -> GridShape:
    if shape is not None:
        if len(line) != shape.cell_count:
            raise WrongLengthError(
                f"expected {shape.cell_count} characters, got {len(line)}"
            )
        return shape
    inferred = _SHAPE_BY_LENGTH.get(len(line))
    if inferred is None:
        raise WrongLengthError(
            f"cannot infer shape from line of length {len(line)}"
        )
    return inferred


def parse_grid(line: str, shape: Optional[GridShape] = None) -> Grid:
    """Parse a completed grid from one line of ASCII digits."""
    line = line.strip()
    shape = _resolve_shape(line, shape)
    digits = []
    for ch in line:
        if not ("1" <= ch <= "9"):
            raise BadCharacterError(f"illegal character {ch!r} in grid line")
        d = int(ch)
        if d > shape.side:
            raise BadCharacterError(f"digit {d} exceeds side {shape.side}")
        digits.append(d)
    return Grid.from_digits(shape, digits)


def format_grid(grid: Grid) -> str:
    if grid.shape.side > 9:
        raise ValueError("no text format for sides greater than 9")
    return "".join(str(d) for d in grid.digits)


def parse_clue_cells(line: str, shape: Optional[GridShape] = None) -> tuple:
    """Parse a puzzle line ('0' or '.' for blanks) into (shape, cells).

    `cells` is a row-major digit tuple with 0 for blanks.  Unit consistency
    is not checked here; the solver rejects colliding givens.
    """
    line = line.strip()
    shape = _resolve_shape(line, shape)
    cells = []
    for ch in line:
        if ch in ("0", "."):
            cells.append(0)
            continue
        if not ("1" <= ch <= "9"):
            raise BadCharacterError(f"illegal character {ch!r} in puzzle line")
        d = int(ch)
        if d > shape.side:
            raise BadCharacterError(f"digit {d} exceeds side {shape.side}")
        cells.append(d)
    return shape, tuple(cells)

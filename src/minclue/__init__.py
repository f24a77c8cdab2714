"""Exhaustive search for minimum-clue sudoku puzzles on generalized
boards, built on unavoidable-set theory and a bit-vector hitting-set
enumerator, with a checkpointed local task farm for catalogue runs."""

from .backend import backend_name
from .grid import CellSet, Grid, GridShape, parse_grid

__version__ = "0.1.0"

__all__ = [
    "CellSet",
    "Grid",
    "GridShape",
    "backend_name",
    "parse_grid",
    "__version__",
]

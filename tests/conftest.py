import random
import sys
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from minclue import _pykernels  # noqa: E402
from minclue.backend import _import_native  # noqa: E402
from minclue.errors import BudgetExceededError  # noqa: E402
from minclue.grid import SHAPE_4X4, SHAPE_9X9, Grid, GridShape, _check_cell  # noqa: E402
from minclue.hitting import HittingInstance  # noqa: E402
from minclue.symmetry import catalog  # noqa: E402


def available_backends() -> dict:
    """Importable backends by name."""
    out = {"python": _pykernels}
    native, _error = _import_native()
    if native is not None:
        out["native"] = native
    return out


def instance_from_sets(universe_size: int, k: int, families) -> HittingInstance:
    """A HittingInstance from families given as iterables of cells."""
    as_masks = {}
    for degree, sets in families.items():
        masks = []
        for s in sets:
            mask = 0
            for c in s:
                mask |= 1 << c
            masks.append(mask)
        as_masks[degree] = tuple(masks)
    return HittingInstance(universe_size, k, as_masks)


def brute_force_hitting_sets(instance: HittingInstance):
    """Oracle: all k-subsets intersecting every degree-1 member, sorted.

    Refuses instances with more than 10**7 candidate subsets.
    """
    n, k = instance.universe_size, instance.k
    if comb(n, k) > 10**7:
        raise BudgetExceededError(
            f"C({n},{k}) exceeds the 10^7 subset budget"
        )
    needed = instance.degree_one()
    out = []
    for combo in combinations(range(n), k):
        mask = 0
        for c in combo:
            mask |= 1 << c
        if all(mask & s for s in needed):
            out.append(combo)
    return out


def representatives(shape: GridShape) -> list:
    out = []
    catalog(shape, out.append)
    return out


def cell_row(shape: GridShape, c: int) -> int:
    _check_cell(shape, c)
    return c // shape.side


def cell_col(shape: GridShape, c: int) -> int:
    _check_cell(shape, c)
    return c % shape.side


def row_tuple_to_int(slots) -> int:
    """(b1, b2, ...) with slot 1 first -> int with slot 1 at bit 0."""
    value = 0
    for i, b in enumerate(slots):
        if b:
            value |= 1 << i
    return value


def int_to_row_tuple(value: int, width: int) -> tuple:
    return tuple((value >> i) & 1 for i in range(width))


def random_solution_grid(shape: GridShape, rng: random.Random) -> Grid:
    """A pseudo-random completed grid: random first row, then the first
    completion the solver finds."""
    from minclue.solver import count_completions

    n = shape.side
    row0 = list(range(1, n + 1))
    rng.shuffle(row0)
    cells = tuple(row0) + (0,) * (shape.cell_count - n)
    return count_completions(shape, cells, 1).completions[0]


def without_speed_ups(instance, config, degree_checks=False,
                      consolidation=False, effective_size=False):
    """(instance, engine config) with each of the engine's speed-ups kept
    when its argument is true, else turned off by its own setting: no
    family above degree 1, no consolidation, first-unhit selection."""
    from dataclasses import replace

    if not degree_checks:
        instance = HittingInstance(
            instance.universe_size, instance.k, {1: instance.degree_one()}
        )
    if not consolidation:
        config = replace(config, consolidation={})
    if not effective_size:
        config = replace(config, full_through=0)
    return instance, config


def clue_cells(grid: Grid, mask: int) -> tuple:
    return tuple(d if (mask >> c) & 1 else 0 for c, d in enumerate(grid.digits))


def brute_force_count(grid_shape: GridShape, cells, limit: int) -> int:
    """Independent completion counter: try every digit in every blank with
    plain validity checking, no propagation."""
    from minclue.grid import all_units

    n = grid_shape.side
    board = list(cells)
    blanks = [c for c, d in enumerate(board) if d == 0]
    units_of = [[] for _ in range(grid_shape.cell_count)]
    for unit in all_units(grid_shape):
        for c in unit:
            units_of[c].append(unit)
    count = 0

    def ok(c: int, d: int) -> bool:
        for unit in units_of[c]:
            for other in unit:
                if other != c and board[other] == d:
                    return False
        return True

    def rec(i: int) -> None:
        nonlocal count
        if count >= limit:
            return
        if i == len(blanks):
            count += 1
            return
        c = blanks[i]
        for d in range(1, n + 1):
            if ok(c, d):
                board[c] = d
                rec(i + 1)
                board[c] = 0
                if count >= limit:
                    return

    rec(0)
    return count


@pytest.fixture
def one_unsafe_candidate(monkeypatch):
    """Make the checker's `confirm` answer CONFIRM_UNSAFE for the first
    proper candidate it sees, in this process or in a farm worker forked
    from it; returns the list that receives that candidate's cells."""
    from types import SimpleNamespace

    from minclue import checker
    from minclue._pykernels import CONFIRM_PROPER, CONFIRM_UNSAFE

    real = checker.kernels.confirm
    marked = []

    def confirm(box_rows, box_cols, digits, k, cells):
        verdicts = bytearray(real(box_rows, box_cols, digits, k, cells))
        if not marked and CONFIRM_PROPER in verdicts:
            i = verdicts.index(CONFIRM_PROPER)
            verdicts[i] = CONFIRM_UNSAFE
            marked.append(tuple(cells[i * k : (i + 1) * k]))
        return bytes(verdicts)

    monkeypatch.setattr(checker, "kernels", SimpleNamespace(confirm=confirm))
    return marked


@pytest.fixture(scope="session")
def reps_4x4():
    return representatives(SHAPE_4X4)


@pytest.fixture(scope="session")
def backends():
    return available_backends()


@pytest.fixture(scope="session")
def native_required(backends):
    if "native" not in backends:
        pytest.skip("compiled kernels unavailable; 9x9-scale checks need them")
    return backends["native"]


@pytest.fixture(scope="session")
def nine_grids():
    """Five deterministic 9x9 solution grids for shared module tests."""
    rng = random.Random(90210)
    return [random_solution_grid(SHAPE_9X9, rng) for _ in range(5)]


@pytest.fixture(scope="session")
def nine_families(nine_grids, native_required):
    from minclue.unavoidable import find_minimal_unavoidable

    return [(g, find_minimal_unavoidable(g, 12)) for g in nine_grids]

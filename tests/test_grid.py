import random

import pytest

from conftest import cell_col, cell_row
from minclue.errors import (
    BadCharacterError,
    InconsistentCluesError,
    RuleViolationError,
    WrongLengthError,
)
from minclue.grid import (
    SHAPE_4X4,
    SHAPE_6X6,
    SHAPE_9X9,
    CellSet,
    GridShape,
    cell_box,
    format_grid,
    parse_clue_cells,
    parse_grid,
    unit_cells,
)
from minclue.solver import count_completions

VALID_4X4 = "1234341221434321"


class TestShape:
    def test_sides(self):
        assert SHAPE_4X4.side == 4 and SHAPE_4X4.cell_count == 16
        assert SHAPE_6X6.side == 6 and SHAPE_6X6.cell_count == 36
        assert SHAPE_9X9.side == 9 and SHAPE_9X9.cell_count == 81

    def test_box_dims_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            GridShape(1, 9)

    def test_parse_named_and_explicit(self):
        assert GridShape.parse("4x4") == SHAPE_4X4
        assert GridShape.parse("6x6") == SHAPE_6X6
        assert GridShape.parse("9x9") == SHAPE_9X9
        assert GridShape.parse("2x4") == GridShape(2, 4)


class TestCellIndexing:
    def test_top_left_corner(self):
        assert cell_row(SHAPE_9X9, 0) == 0
        assert cell_col(SHAPE_9X9, 0) == 0
        assert cell_box(SHAPE_9X9, 0) == 0

    def test_nine_by_nine_cell_30(self):
        # box(30) = (30 // 27) * 3 + (30 % 9) // 3 = 3 + 1
        assert cell_box(SHAPE_9X9, 30) == 4

    def test_four_by_four_cell_5(self):
        assert cell_row(SHAPE_4X4, 5) == 1
        assert cell_col(SHAPE_4X4, 5) == 1
        assert cell_box(SHAPE_4X4, 5) == 0

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            cell_row(SHAPE_9X9, 81)
        with pytest.raises(IndexError):
            cell_box(SHAPE_4X4, -1)

    @pytest.mark.parametrize("shape", [SHAPE_4X4, SHAPE_6X6, SHAPE_9X9])
    def test_unit_partitions(self, shape):
        n = shape.side
        rows, cols, boxes = unit_cells(shape)
        for groups, index_of in (
            (rows, cell_row),
            (cols, cell_col),
            (boxes, cell_box),
        ):
            assert len(groups) == n
            seen = set()
            for idx, group in enumerate(groups):
                assert len(group) == n
                for c in group:
                    assert index_of(shape, c) == idx
                seen.update(group)
            assert seen == set(range(shape.cell_count))


class TestParseFormat:
    def test_round_trip(self):
        grid = parse_grid(VALID_4X4)
        assert format_grid(grid) == VALID_4X4

    def test_wrong_length(self):
        with pytest.raises(WrongLengthError):
            parse_grid("1" * 80)

    def test_bad_character(self):
        with pytest.raises(BadCharacterError):
            parse_grid("123434122143432x")
        with pytest.raises(BadCharacterError):
            parse_grid("5234341221434321")  # digit beyond side 4

    def test_rule_violation(self):
        with pytest.raises(RuleViolationError):
            parse_grid("1" * 81)

    def test_all_288_completions_accepted_and_mutations_rejected(self):
        from itertools import permutations

        from minclue.grid import digits_valid
        from minclue.symmetry import enumerate_completions_first_row_fixed

        completions = []
        for g in enumerate_completions_first_row_fixed(SHAPE_4X4):
            for relabel in permutations(range(1, 5)):
                digits = tuple(relabel[d - 1] for d in g.digits)
                assert digits_valid(SHAPE_4X4, digits)
                completions.append(digits)
        assert len(set(completions)) == 288

        rng = random.Random(5)
        rejected = 0
        for _ in range(1000):
            digits = list(completions[rng.randrange(288)])
            c = rng.randrange(16)
            digits[c] = 1 + (digits[c] % 4)  # guaranteed different digit
            if not digits_valid(SHAPE_4X4, digits):
                rejected += 1
        assert rejected == 1000


class TestPuzzle:
    def test_all_blank(self):
        shape, cells = parse_clue_cells("." * 16)
        assert shape == SHAPE_4X4
        assert cells == (0,) * 16
        assert count_completions(shape, cells, 288).count == 288

    def test_full_clues(self):
        grid = parse_grid(VALID_4X4)
        shape, cells = parse_clue_cells(VALID_4X4)
        assert sum(1 for d in cells if d) == 16
        assert cells == grid.digits
        assert count_completions(shape, cells).completions == (grid,)

    def test_contradicting_clue(self):
        # cell 0 holds 1 in the grid: a 2 there, with the grid's other
        # digits as clues, repeats a digit in a unit
        grid = parse_grid(VALID_4X4)
        _shape, cells = parse_clue_cells("2" + "0" * 15)
        with pytest.raises(InconsistentCluesError):
            count_completions(SHAPE_4X4, cells[:1] + grid.digits[1:])


class TestCellSet:
    def test_iteration_ascending(self):
        cs = CellSet.from_cells(SHAPE_4X4, [9, 0, 3])
        assert list(cs) == [0, 3, 9]
        assert len(cs) == 3
        assert 3 in cs and 4 not in cs

    def test_mask_bounds(self):
        with pytest.raises(ValueError):
            CellSet(SHAPE_4X4, 1 << 16)

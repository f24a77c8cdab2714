import random

import pytest

from conftest import brute_force_count, clue_cells, random_solution_grid
from minclue.errors import InconsistentCluesError
from minclue.grid import SHAPE_4X4, SHAPE_9X9, CellSet, Grid, parse_grid
from minclue.solver import SolveOutcome, count_completions, verify_two_completions

VALID_4X4 = parse_grid("1234341221434321")


class TestCountCompletions:
    def test_full_grid_identity(self):
        rng = random.Random(1)
        grid = random_solution_grid(SHAPE_9X9, rng)
        outcome = count_completions(SHAPE_9X9, grid.digits, 2)
        assert outcome.count == 1
        assert outcome.completions[0] == grid

    def test_empty_grid_saturates(self):
        outcome = count_completions(SHAPE_9X9, (0,) * 81, 2)
        assert outcome.count == 2
        a, b = outcome.completions
        assert a.digits != b.digits
        assert a.is_valid() and b.is_valid()

    def test_unavoidable_set_removal_gives_two(self):
        from minclue.unavoidable import find_minimal_unavoidable

        rng = random.Random(2)
        grid = random_solution_grid(SHAPE_4X4, rng)
        family = find_minimal_unavoidable(grid, 4)
        four = next(m for m in family.masks if m.bit_count() == 4)
        cells = clue_cells(grid, grid.shape.universe_mask ^ four)
        outcome = count_completions(grid.shape, cells, 2)
        assert outcome.count == 2
        # cross-check by exhaustively filling the four blanks
        assert brute_force_count(grid.shape, cells, 10) == 2

    def test_inconsistent_givens_rejected(self):
        cells = [0] * 81
        cells[0] = 5
        cells[1] = 5
        with pytest.raises(InconsistentCluesError):
            count_completions(SHAPE_9X9, cells, 2)

    def test_limit_validation(self):
        with pytest.raises(ValueError):
            count_completions(SHAPE_4X4, (0,) * 16, 0)
        # the native solver takes the limit as a C int
        for limit in (2**31, 2**32 + 1):
            with pytest.raises(ValueError, match="limit"):
                count_completions(SHAPE_4X4, (0,) * 16, limit)
        assert count_completions(SHAPE_4X4, (0,) * 16, 2**31 - 1).count == 288

    def test_determinism(self):
        rng = random.Random(3)
        grid = random_solution_grid(SHAPE_9X9, rng)
        mask = 0
        for c in rng.sample(range(81), 20):
            mask |= 1 << c
        cells = clue_cells(grid, mask)
        first = count_completions(SHAPE_9X9, cells, 3)
        second = count_completions(SHAPE_9X9, cells, 3)
        assert first == second


class TestOracleEquivalence:
    def test_matches_brute_force_on_small_clue_sets(self):
        rng = random.Random(44)
        for _ in range(50):
            grid = random_solution_grid(SHAPE_4X4, rng)
            size = rng.randint(0, 4)
            mask = 0
            for c in rng.sample(range(16), size):
                mask |= 1 << c
            cells = clue_cells(grid, mask)
            expected = brute_force_count(SHAPE_4X4, cells, 10)
            assert count_completions(SHAPE_4X4, cells, 10).count == expected


class TestMonotonicity:
    def test_removing_a_clue_never_decreases_count(self):
        rng = random.Random(7)
        for _ in range(10):
            grid = random_solution_grid(SHAPE_9X9, rng)
            clue_set = rng.sample(range(81), 24)
            mask = 0
            for c in clue_set:
                mask |= 1 << c
            base = count_completions(SHAPE_9X9, clue_cells(grid, mask), 3).count
            removed = mask ^ (1 << clue_set[0])
            more = count_completions(SHAPE_9X9, clue_cells(grid, removed), 3).count
            assert more >= base


def is_proper(grid: Grid, clues: CellSet) -> bool:
    return count_completions(grid.shape, clue_cells(grid, clues.mask)).count == 1


class TestIsProper:
    def test_full_clue_set(self):
        assert is_proper(VALID_4X4, CellSet(SHAPE_4X4, SHAPE_4X4.universe_mask))

    def test_empty_clue_set(self):
        rng = random.Random(9)
        grid = random_solution_grid(SHAPE_9X9, rng)
        assert not is_proper(grid, CellSet(SHAPE_9X9, 0))

    def test_seven_clues_never_proper(self):
        rng = random.Random(10)
        for _ in range(5):
            grid = random_solution_grid(SHAPE_9X9, rng)
            clues = CellSet.from_cells(SHAPE_9X9, rng.sample(range(81), 7))
            assert not is_proper(grid, clues)

    def test_proper_puzzle_completion_is_the_grid(self):
        outcome = count_completions(SHAPE_4X4, VALID_4X4.digits, 2)
        assert outcome.completions[0] == VALID_4X4


class TestVerifyTwoCompletions:
    def _two_outcome(self):
        return count_completions(SHAPE_4X4, (0,) * 16, 2)

    def test_empty_puzzle_outcome_passes(self):
        assert verify_two_completions(SHAPE_4X4, (0,) * 16, self._two_outcome())

    def test_equal_completions_fail(self):
        outcome = self._two_outcome()
        tampered = SolveOutcome(2, (outcome.completions[0],) * 2)
        assert not verify_two_completions(SHAPE_4X4, (0,) * 16, tampered)

    def test_invalid_grid_fails(self):
        outcome = self._two_outcome()
        digits = list(outcome.completions[1].digits)
        digits[0], digits[1] = digits[1], digits[0]  # breaks column constraint
        tampered = SolveOutcome(
            2, (outcome.completions[0], Grid(SHAPE_4X4, tuple(digits)))
        )
        assert not verify_two_completions(SHAPE_4X4, (0,) * 16, tampered)

    def test_completion_must_extend_clues(self):
        grid = VALID_4X4
        cells = clue_cells(grid, 0b11)
        outcome = count_completions(SHAPE_4X4, cells, 2)
        if outcome.count == 2:
            other = count_completions(SHAPE_4X4, (0,) * 16, 2).completions
            mismatched = SolveOutcome(2, (outcome.completions[0], other[1]))
            result = verify_two_completions(SHAPE_4X4, cells, mismatched)
            extends = all(
                not d or other[1].digits[c] == d for c, d in enumerate(cells)
            )
            assert result == (extends and other[1] != outcome.completions[0])


class TestBackendParity:
    def test_same_outcomes(self, backends):
        if "native" not in backends:
            pytest.skip("single backend")
        py, native = backends["python"], backends["native"]
        rng = random.Random(321)
        for _ in range(25):
            grid = random_solution_grid(SHAPE_9X9, rng)
            mask = 0
            for c in rng.sample(range(81), rng.randint(0, 35)):
                mask |= 1 << c
            cells = clue_cells(grid, mask)
            assert py.solve_limit(3, 3, cells, 3) == native.solve_limit(
                3, 3, cells, 3
            )

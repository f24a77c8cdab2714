import random

import pytest

from conftest import clue_cells, random_solution_grid, representatives
from minclue.grid import SHAPE_4X4, SHAPE_6X6, SHAPE_9X9, parse_grid
from minclue.solver import count_completions
from minclue.symmetry import catalog, minlex, verify_scs_bracket
from transforms import (
    Transformation,
    apply,
    apply_cells,
    cell_transformations,
    group_size,
    identity,
    inverse,
    random_transformation,
)


class TestApply:
    def test_identity(self):
        grid = parse_grid("1234341221434321")
        assert apply(identity(SHAPE_4X4), grid) == grid

    def test_band_internal_row_swap(self):
        rng = random.Random(1)
        grid = random_solution_grid(SHAPE_9X9, rng)
        t = Transformation(
            tuple(range(1, 10)),
            (0, 2, 1, 3, 4, 5, 6, 7, 8),  # swap rows 1 and 2 inside band 0
            tuple(range(9)),
        )
        swapped = apply(t, grid)
        assert swapped.is_valid()
        n = 9
        for c in range(81):
            r, col = divmod(c, n)
            src = {1: 2, 2: 1}.get(r, r)
            assert swapped.digits[c] == grid.digits[src * n + col]

    def test_inverse_round_trip(self):
        rng = random.Random(2)
        for _ in range(20):
            grid = random_solution_grid(SHAPE_9X9, rng)
            t = random_transformation(SHAPE_9X9, rng)
            assert apply(inverse(t), apply(t, grid)) == grid

    def test_validity_preserved_all_shapes(self):
        rng = random.Random(3)
        for shape in (SHAPE_4X4, SHAPE_6X6, SHAPE_9X9):
            grid = random_solution_grid(shape, rng)
            for _ in range(10):
                t = random_transformation(shape, rng)
                assert apply(t, grid).is_valid()

    def test_shape_mismatch_rejected(self):
        grid = parse_grid("1234341221434321")
        with pytest.raises(ValueError):
            apply(identity(SHAPE_9X9), grid)

    def test_transpose_needs_square_boxes(self):
        rng = random.Random(4)
        grid = random_solution_grid(SHAPE_6X6, rng)
        n = 6
        t = Transformation(
            tuple(range(1, n + 1)), tuple(range(n)), tuple(range(n)), True
        )
        with pytest.raises(ValueError):
            apply(t, grid)

    def test_band_violating_row_perm_rejected(self):
        grid = parse_grid("1234341221434321")
        t = Transformation(
            (1, 2, 3, 4), (0, 2, 1, 3), (0, 1, 2, 3)
        )  # row 1 <-> 2 crosses 4x4 bands
        with pytest.raises(ValueError):
            apply(t, grid)


class TestGroupSize:
    def test_published_and_derived_counts(self):
        assert group_size(SHAPE_9X9) == 3_359_232
        assert group_size(SHAPE_4X4) == 128
        assert group_size(SHAPE_6X6) == 3_456

    def test_exhaustive_4x4_generation_matches(self):
        seen = set()
        grid = parse_grid("1234341221434321")
        count = 0
        for t in cell_transformations(SHAPE_4X4):
            count += 1
            seen.add(
                (t.transpose, apply_cells(t, SHAPE_4X4, 0b1011), t.row_perm, t.col_perm)
            )
        assert count == 128
        assert len(seen) == 128


class TestMinlex:
    def test_idempotent(self):
        rng = random.Random(5)
        for shape in (SHAPE_4X4, SHAPE_9X9):
            grid = random_solution_grid(shape, rng)
            canon = minlex(grid)
            assert minlex(canon) == canon

    def test_orbit_constant(self):
        rng = random.Random(6)
        grid = random_solution_grid(SHAPE_9X9, rng)
        canon = minlex(grid)
        for _ in range(5):
            t = random_transformation(SHAPE_9X9, rng)
            assert minlex(apply(t, grid)) == canon

    def test_not_above_input(self):
        rng = random.Random(7)
        for _ in range(5):
            grid = random_solution_grid(SHAPE_9X9, rng)
            assert minlex(grid).digits <= grid.digits

    def test_4x4_representatives_from_exhaustive_orbits(self):
        reps = representatives(SHAPE_4X4)
        # every member of each orbit canonicalizes to its representative
        for rep in reps:
            for t in cell_transformations(SHAPE_4X4):
                assert minlex(apply(t, rep)) == rep
        # representative count equals the orbit count over all completions
        from minclue.symmetry import enumerate_completions_first_row_fixed

        orbit_reps = {
            minlex(g).digits
            for g in enumerate_completions_first_row_fixed(SHAPE_4X4)
        }
        assert orbit_reps == {rep.digits for rep in reps}


class TestCatalog:
    def test_4x4_total_and_verification_protocol(self):
        reps = []
        total = catalog(SHAPE_4X4, reps.append)
        assert total == 288
        texts = [r.digits for r in reps]
        assert texts == sorted(texts)
        assert len(set(texts)) == len(texts)
        for rep in reps:
            assert minlex(rep) == rep

    def test_unsupported_shape(self):
        with pytest.raises(ValueError):
            catalog(SHAPE_9X9, lambda g: None)


class TestEquivalencePreservesProperness:
    def test_random_4x4_puzzles(self):
        rng = random.Random(9)
        reps = representatives(SHAPE_4X4)
        for _ in range(30):
            grid = apply(random_transformation(SHAPE_4X4, rng), reps[rng.randrange(2)])
            clue_count = rng.randint(3, 7)
            mask = 0
            for c in rng.sample(range(16), clue_count):
                mask |= 1 << c
            t = random_transformation(SHAPE_4X4, rng)
            image = clue_cells(apply(t, grid), apply_cells(t, SHAPE_4X4, mask))
            proper = count_completions(SHAPE_4X4, clue_cells(grid, mask)).count == 1
            assert proper == (count_completions(SHAPE_4X4, image).count == 1)


class TestScsBracket:
    def test_published_rows(self):
        assert verify_scs_bracket(4, 288, 4)
        assert verify_scs_bracket(6, 28_200_960, 8)
        assert verify_scs_bracket(8, 29_136_487_207_403_520, 14)
        assert verify_scs_bracket(9, 6_670_903_752_021_072_936_960, 17)

    def test_false_when_left_product_exceeds(self):
        assert not verify_scs_bracket(4, 288, 5)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            verify_scs_bracket(1, 10, 3)
        with pytest.raises(ValueError):
            verify_scs_bracket(4, 288, 1)


@pytest.mark.slow
class TestExtended6x6:
    def test_total_completions(self):
        reps = []
        total = catalog(SHAPE_6X6, reps.append)
        assert total == 28_200_960
        texts = [r.digits for r in reps]
        assert texts == sorted(texts) and len(set(texts)) == len(texts)
        for rep in reps[:20]:
            assert minlex(rep) == rep

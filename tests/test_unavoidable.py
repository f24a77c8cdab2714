import gc
import hashlib
import random
from itertools import combinations

import pytest

from conftest import brute_force_count, clue_cells, random_solution_grid
from test_acceptance import PINNED_9X9
from minclue.errors import BudgetExceededError
from minclue.grid import (
    SHAPE_4X4,
    SHAPE_9X9,
    CellSet,
    Grid,
    cell_box,
    cell_col,
    cell_row,
    parse_grid,
)
from minclue.solver import count_completions
from minclue.unavoidable import (
    UnavoidableFamily,
    UnavoidableSet,
    build_cliques,
    default_clique_start,
    find_minimal_unavoidable,
    is_minimal,
    is_unavoidable,
    recheck_family,
    verify_degree,
)

GRID_4X4 = parse_grid("1234341221434321")


def oracle_family_4x4(grid: Grid, max_size: int = 8):
    """Exhaustive oracle: test every cell subset of size <= max_size for
    unavoidability with an independent brute-force counter, then keep the
    subset-minimal ones."""
    unavoidable_masks = {}
    for size in range(1, max_size + 1):
        for combo in combinations(range(16), size):
            mask = 0
            for c in combo:
                mask |= 1 << c
            cells = clue_cells(grid, grid.shape.universe_mask ^ mask)
            unavoidable_masks[mask] = brute_force_count(grid.shape, cells, 2) == 2
    minimal = []
    for mask, unav in unavoidable_masks.items():
        if not unav:
            continue
        if any(
            unavoidable_masks.get(mask ^ (1 << c), False)
            for c in range(16)
            if (mask >> c) & 1
        ):
            continue
        minimal.append(mask)
    return sorted(
        minimal,
        key=lambda m: (bin(m).count("1"), tuple(CellSet(SHAPE_4X4, m))),
    )


@pytest.fixture(scope="module")
def oracle_families(reps_4x4):
    return {rep.digits: oracle_family_4x4(rep) for rep in reps_4x4}


class TestIsUnavoidable:
    def test_all_cells(self):
        assert is_unavoidable(GRID_4X4, CellSet.full(SHAPE_4X4))

    def test_empty_set(self):
        assert not is_unavoidable(GRID_4X4, CellSet.empty(SHAPE_4X4))

    def test_constructed_rectangle(self):
        # cells 0,4 (row 0) and 9,13... build a grid with a crosswise pair
        rng = random.Random(11)
        grid = random_solution_grid(SHAPE_4X4, rng)
        family = find_minimal_unavoidable(grid, 4)
        rect = next(s for s in family.sets if len(s) == 4)
        assert is_unavoidable(grid, rect.cells)


class TestIsMinimal:
    def test_size_four_rectangle(self):
        family = find_minimal_unavoidable(GRID_4X4, 4)
        assert family.sets
        for s in family.sets:
            assert is_minimal(GRID_4X4, s.cells)
            # one-cell removals leave uniquely completable puzzles
            for c in s.cells:
                rest = CellSet(SHAPE_4X4, s.cells.mask ^ (1 << c))
                assert not is_unavoidable(GRID_4X4, rest)

    def test_union_of_disjoint_sets_not_minimal(self):
        family = find_minimal_unavoidable(GRID_4X4, 8)
        pair = None
        for a in family.sets:
            for b in family.sets:
                if a != b and a.cells.isdisjoint(b.cells):
                    pair = (a, b)
                    break
            if pair:
                break
        assert pair is not None
        union = pair[0].cells | pair[1].cells
        assert is_unavoidable(GRID_4X4, union)
        assert not is_minimal(GRID_4X4, union)

    def test_full_grid_not_minimal(self):
        assert not is_minimal(GRID_4X4, CellSet.full(SHAPE_4X4))


class TestFinderCompleteness4x4:
    def test_family_equals_oracle_on_every_representative(
        self, reps_4x4, oracle_families
    ):
        for rep in reps_4x4:
            family = find_minimal_unavoidable(rep, 8)
            got = [s.cells.mask for s in family.sets]
            assert got == oracle_families[rep.digits]

    def test_structural_lemmas_hold(self, reps_4x4):
        for rep in reps_4x4:
            family = find_minimal_unavoidable(rep, 8)
            for s in family.sets:
                assert is_unavoidable(rep, s.cells)
                assert is_minimal(rep, s.cells)
                counts = {}
                for c in s.cells:
                    counts[rep.digits[c]] = counts.get(rep.digits[c], 0) + 1
                assert all(v >= 2 for v in counts.values())
                for index_of in (cell_row, cell_col, cell_box):
                    per_unit = {}
                    for c in s.cells:
                        u = index_of(rep.shape, c)
                        per_unit[u] = per_unit.get(u, 0) + 1
                    assert all(v >= 2 for v in per_unit.values())

    def test_family_order_and_recheck(self, reps_4x4):
        for rep in reps_4x4:
            family = find_minimal_unavoidable(rep, 8)
            sizes = [len(s) for s in family.sets]
            assert sizes == sorted(sizes)
            keys = [(len(s), tuple(s.cells)) for s in family.sets]
            assert keys == sorted(keys)
            assert recheck_family(rep, family) == 0


class TestNineByNine:
    def test_seeded_rectangle_found(self, native_required):
        # a grid built around the 4-cell crosswise pattern at cells
        # 0, 4 (row 0) and 9, 13 (row 1): digits 5/9 interchanged
        cells = [0] * 81
        cells[0], cells[4] = 5, 9
        cells[9], cells[13] = 9, 5
        grid = count_completions(SHAPE_9X9, cells, 1).completions[0]
        family = find_minimal_unavoidable(grid, 12)
        target = CellSet.from_cells(SHAPE_9X9, [0, 4, 9, 13]).mask
        assert target in [s.cells.mask for s in family.sets]

    def test_band_twice_property(self, nine_families, reps_4x4):
        """Some band or stack holds one digit twice in every minimal set
        (the transpose maps stacks to bands, which settles square boxes)."""

        def holds(grid, cells):
            shape = grid.shape
            per_band = {}
            per_stack = {}
            for c in cells:
                d = grid.digits[c]
                band = cell_row(shape, c) // shape.box_rows
                stack = cell_col(shape, c) // shape.box_cols
                if (band, d) in per_band:
                    return True
                if (stack, d) in per_stack:
                    return True
                per_band[(band, d)] = c
                per_stack[(stack, d)] = c
            return False

        for rep in reps_4x4:
            for s in find_minimal_unavoidable(rep, 8).sets:
                assert holds(rep, s.cells)
        for grid, family in nine_families:
            for s in family.sets:
                assert holds(grid, s.cells)

    @pytest.mark.parametrize(
        "grid_text, count, digest",
        [
            (PINNED_9X9[0], 289,
             "3613a9bdb85ffd3f4fcc07243fe7a1e77add759706f5c2462c94ad4e8e319228"),
            (PINNED_9X9[1], 294,
             "74d8a6231d4b1dd6efe44b959c897a223f32465b367fdbfa01df909984f85808"),
            (PINNED_9X9[2], 314,
             "aac14d167b8f13d16188f126daefda17fc39e74a6c61dcf97eb41321c4a03e84"),
        ],
    )
    def test_pinned_families(self, grid_text, count, digest, native_required):
        """The max_size=12 families of the pinned grids, as the
        blanked-board search found them for every digit-subset size:
        count and sha256 of the comma-joined masks in family order."""
        family = find_minimal_unavoidable(parse_grid(grid_text), 12)
        text = ",".join(str(m) for m in family.masks())
        assert len(family) == count
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_mean_family_size_sample(self, nine_families):
        sizes = [len(family) for _grid, family in nine_families]
        assert all(150 <= s <= 600 for s in sizes)


class TestVerifyDegree:
    def test_degree_one_reduces_to_is_unavoidable(self):
        family = find_minimal_unavoidable(GRID_4X4, 4)
        s = family.sets[0]
        assert verify_degree(GRID_4X4, s.cells, 1)

    def test_disjoint_union_is_degree_two(self):
        family = find_minimal_unavoidable(GRID_4X4, 8)
        a, b = None, None
        for x in family.sets:
            for y in family.sets:
                if x != y and x.cells.isdisjoint(y.cells):
                    a, b = x, y
                    break
            if a:
                break
        union = a.cells | b.cells
        assert verify_degree(GRID_4X4, union, 2)

    def test_single_minimal_set_is_not_degree_two(self):
        family = find_minimal_unavoidable(GRID_4X4, 4)
        assert not verify_degree(GRID_4X4, family.sets[0].cells, 2)

    def test_budget_refusal_is_not_a_verdict(self):
        with pytest.raises(BudgetExceededError):
            verify_degree(GRID_4X4, CellSet.full(SHAPE_4X4), 9, budget=10)


class TestBuildCliques:
    def _family(self, masks):
        sets = tuple(
            UnavoidableSet(CellSet(SHAPE_9X9, m), 1)
            for m in sorted(masks, key=lambda m: bin(m).count("1"))
        )
        return UnavoidableFamily(1, sets)

    def test_worked_family(self):
        def mask(cells):
            out = 0
            for c in cells:
                out |= 1 << c
            return out

        family = self._family(
            [mask([0, 3, 9, 12]), mask([0, 1, 27, 28]), mask([3, 4, 66, 67])]
        )
        cliques = build_cliques(family, 2, start=2, cap=10)
        assert len(cliques) == 1
        assert cliques.sets[0].cells.mask == mask([0, 1, 27, 28]) | mask(
            [3, 4, 66, 67]
        )

    def test_cap_truncation(self):
        masks = [1 << i for i in range(8)]  # singletons, pairwise disjoint
        family = self._family(masks)
        cliques = build_cliques(family, 2, start=1, cap=1)
        assert len(cliques) == 1
        first = cliques.sets[0].cells.mask
        # loop order: i = start..m-1 ascending, j = start-1..i-1
        assert first == (1 << 1) | (1 << 0)

    @pytest.mark.parametrize("start", [1, 8])
    def test_no_reference_cycle_left(self, start):
        """A call leaves nothing for the cyclic collector, so the cliques it
        built are freed as soon as the caller drops them; start 8 builds
        none."""
        family = self._family([1 << i for i in range(8)])
        gc.collect()
        gc.disable()
        try:
            cliques = build_cliques(family, 2, start=start, cap=10)
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert len(cliques) == (10 if start == 1 else 0)

    def test_start_validation(self):
        family = self._family([1, 2, 4])
        with pytest.raises(ValueError):
            build_cliques(family, 3, start=1, cap=5)

    def test_default_start_matches_published_value(self):
        assert default_clique_start(16, 4) == 27

    def test_clique_sets_verify_their_degree(self, reps_4x4):
        rep = reps_4x4[1]
        family = find_minimal_unavoidable(rep, 8)
        for degree in (2, 3):
            cliques = build_cliques(family, degree, start=degree - 1, cap=20)
            for s in cliques.sets:
                assert s.degree == degree
                assert verify_degree(rep, s.cells, degree)

    def test_cliques_on_nine_by_nine_sample(self, nine_families):
        grid, family = nine_families[0]
        cliques = build_cliques(family, 2, start=1, cap=12)
        for s in cliques.sets:
            assert verify_degree(grid, s.cells, 2)


class TestFamilyType:
    def test_degree_one_order_enforced(self):
        big = UnavoidableSet(CellSet(SHAPE_4X4, 0b111111), 1)
        small = UnavoidableSet(CellSet(SHAPE_4X4, 0b1111), 1)
        with pytest.raises(ValueError):
            UnavoidableFamily(1, (big, small))

    def test_truncated_keeps_smallest(self):
        family = find_minimal_unavoidable(GRID_4X4, 8)
        top = family.truncated(3)
        assert len(top) == 3
        assert [s.cells.mask for s in top.sets] == [
            s.cells.mask for s in family.sets[:3]
        ]

    def test_degree_mismatch_rejected(self):
        s = UnavoidableSet(CellSet(SHAPE_4X4, 0b1111), 2)
        with pytest.raises(ValueError):
            UnavoidableFamily(1, (s,))

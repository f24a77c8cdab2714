import gc
import hashlib
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_count, cell_col, cell_row, clue_cells, random_solution_grid
from test_acceptance import PINNED_9X9
from minclue import unavoidable
from minclue.checker import SearchConfig
from minclue.errors import BudgetExceededError
from minclue.grid import (
    SHAPE_4X4,
    SHAPE_9X9,
    CellSet,
    Grid,
    cell_box,
    parse_grid,
)
from minclue.solver import count_completions
from minclue.unavoidable import (
    UnavoidableFamily,
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


@st.composite
def clique_inputs(draw):
    """A degree-1 family of small masks over at most 20 cells, so that
    disjoint sets are common, with a clique degree, start and cap."""
    n_cells = draw(st.integers(4, 20))
    cell_sets = draw(
        st.lists(
            st.sets(st.integers(0, n_cells - 1), min_size=1, max_size=4),
            max_size=12,
        )
    )
    masks = sorted(
        (sum(1 << c for c in cells) for cells in cell_sets), key=int.bit_count
    )
    degree = draw(st.integers(2, 4))
    start = draw(st.integers(degree - 1, max(degree - 1, len(masks) + 1)))
    cap = draw(st.integers(1, 50))
    return masks, degree, start, cap


def oracle_cliques(masks, degree, start, cap):
    """The first `cap` index tuples i0 > i1 > ... with i_j >= start - j and
    pairwise disjoint masks, in lexicographic order, as mask unions."""
    tuples = []
    for combo in combinations(range(len(masks)), degree):
        idx = combo[::-1]
        if any(i < start - j for j, i in enumerate(idx)):
            continue
        if any(masks[a] & masks[b] for a, b in combinations(idx, 2)):
            continue
        tuples.append(idx)
    out = []
    for idx in sorted(tuples)[:cap]:
        union = 0
        for i in idx:
            union |= masks[i]
        out.append(union)
    return out


class TestIsUnavoidable:
    def test_all_cells(self):
        assert is_unavoidable(GRID_4X4, CellSet(SHAPE_4X4, SHAPE_4X4.universe_mask))

    def test_empty_set(self):
        assert not is_unavoidable(GRID_4X4, CellSet(SHAPE_4X4, 0))

    def test_constructed_rectangle(self):
        # cells 0,4 (row 0) and 9,13... build a grid with a crosswise pair
        rng = random.Random(11)
        grid = random_solution_grid(SHAPE_4X4, rng)
        family = find_minimal_unavoidable(grid, 4)
        rect = next(m for m in family.masks if m.bit_count() == 4)
        assert is_unavoidable(grid, CellSet(SHAPE_4X4, rect))


class TestIsMinimal:
    def test_size_four_rectangle(self):
        family = find_minimal_unavoidable(GRID_4X4, 4)
        assert family.masks
        for mask in family.masks:
            cells = CellSet(SHAPE_4X4, mask)
            assert is_minimal(GRID_4X4, cells)
            # one-cell removals leave uniquely completable puzzles
            for c in cells:
                rest = CellSet(SHAPE_4X4, mask ^ (1 << c))
                assert not is_unavoidable(GRID_4X4, rest)

    def test_union_of_disjoint_sets_not_minimal(self):
        family = find_minimal_unavoidable(GRID_4X4, 8)
        pair = None
        for a in family.masks:
            for b in family.masks:
                if a != b and not a & b:
                    pair = (a, b)
                    break
            if pair:
                break
        assert pair is not None
        union = CellSet(SHAPE_4X4, pair[0] | pair[1])
        assert is_unavoidable(GRID_4X4, union)
        assert not is_minimal(GRID_4X4, union)

    def test_full_grid_not_minimal(self):
        assert not is_minimal(GRID_4X4, CellSet(SHAPE_4X4, SHAPE_4X4.universe_mask))


class TestFinderCompleteness4x4:
    def test_family_equals_oracle_on_every_representative(
        self, reps_4x4, oracle_families
    ):
        for rep in reps_4x4:
            family = find_minimal_unavoidable(rep, 8)
            got = list(family.masks)
            assert got == oracle_families[rep.digits]

    def test_structural_lemmas_hold(self, reps_4x4):
        for rep in reps_4x4:
            family = find_minimal_unavoidable(rep, 8)
            for mask in family.masks:
                cells = CellSet(rep.shape, mask)
                assert is_unavoidable(rep, cells)
                assert is_minimal(rep, cells)
                counts = {}
                for c in cells:
                    counts[rep.digits[c]] = counts.get(rep.digits[c], 0) + 1
                assert all(v >= 2 for v in counts.values())
                for index_of in (cell_row, cell_col, cell_box):
                    per_unit = {}
                    for c in cells:
                        u = index_of(rep.shape, c)
                        per_unit[u] = per_unit.get(u, 0) + 1
                    assert all(v >= 2 for v in per_unit.values())

    def test_family_order_and_recheck(self, reps_4x4):
        for rep in reps_4x4:
            family = find_minimal_unavoidable(rep, 8)
            sizes = [m.bit_count() for m in family.masks]
            assert sizes == sorted(sizes)
            keys = [
                (m.bit_count(), tuple(CellSet(rep.shape, m))) for m in family.masks
            ]
            assert keys == sorted(keys)
            assert recheck_family(rep, family) == 0

    @pytest.mark.parametrize("mask", [1 << 16, -1, (1 << 17) - 1])
    def test_recheck_refuses_bits_outside_the_grid(self, mask):
        family = UnavoidableFamily(1, (mask,))
        with pytest.raises(ValueError, match="outside"):
            recheck_family(GRID_4X4, family)


@pytest.fixture(scope="module")
def pinned_working_family(native_required):
    """The first pinned grid's max_size=12 family, cut to the default
    family cap."""
    config = SearchConfig()
    family = find_minimal_unavoidable(parse_grid(PINNED_9X9[0]), 12)
    return family.truncated(config.family_cap)


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
        assert target in family.masks

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
            for mask in find_minimal_unavoidable(rep, 8).masks:
                assert holds(rep, CellSet(rep.shape, mask))
        for grid, family in nine_families:
            for mask in family.masks:
                assert holds(grid, CellSet(grid.shape, mask))

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
        text = ",".join(str(m) for m in family.masks)
        assert len(family) == count
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "degree, count, digest",
        [
            (2, 8192,
             "1173ce351b428f1be62017a97bbc55c69fd28a7aafd24277cc50ba00d35ba09c"),
            (3, 16384,
             "11620527d604bd6f444e0cc5f732f750a94b78dc500b98df3aaaff29cfc4f29e"),
            (4, 32768,
             "883b9301314463a23da227c9d768197eaa446321882d445e7ad0d664838d3e77"),
            (5, 25199,
             "35e3ccee26e3df3933ff0c9e8ce98359626685d735abc7648d5cb98a32f633ee"),
        ],
    )
    def test_pinned_clique_families(self, degree, count, digest, pinned_working_family):
        """The default k=16 clique families of the first pinned grid, as
        the Python scan built them: count and sha256 of the comma-joined
        masks in family order.  Degrees 2-4 stop at their caps, degree 5
        scans to the end."""
        config = SearchConfig()
        cliques = build_cliques(
            pinned_working_family,
            degree,
            default_clique_start(16, degree),
            config.clique_caps[degree],
        )
        text = ",".join(str(m) for m in cliques.masks)
        assert len(cliques) == count
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_mean_family_size_sample(self, nine_families):
        sizes = [len(family) for _grid, family in nine_families]
        assert all(150 <= s <= 600 for s in sizes)


class TestVerifyDegree:
    def test_degree_one_reduces_to_is_unavoidable(self):
        family = find_minimal_unavoidable(GRID_4X4, 4)
        s = CellSet(SHAPE_4X4, family.masks[0])
        assert verify_degree(GRID_4X4, s, 1)

    def test_disjoint_union_is_degree_two(self):
        family = find_minimal_unavoidable(GRID_4X4, 8)
        a, b = None, None
        for x in family.masks:
            for y in family.masks:
                if x != y and not x & y:
                    a, b = x, y
                    break
            if a:
                break
        union = CellSet(SHAPE_4X4, a | b)
        assert verify_degree(GRID_4X4, union, 2)

    def test_single_minimal_set_is_not_degree_two(self):
        family = find_minimal_unavoidable(GRID_4X4, 4)
        assert not verify_degree(GRID_4X4, CellSet(SHAPE_4X4, family.masks[0]), 2)

    def test_budget_refusal_is_not_a_verdict(self):
        with pytest.raises(BudgetExceededError):
            verify_degree(GRID_4X4, CellSet(SHAPE_4X4, SHAPE_4X4.universe_mask), 9, budget=10)


class TestBuildCliques:
    def _family(self, masks):
        return UnavoidableFamily(
            1, tuple(sorted(masks, key=lambda m: bin(m).count("1")))
        )

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
        assert cliques.masks[0] == mask([0, 1, 27, 28]) | mask(
            [3, 4, 66, 67]
        )

    def test_cap_truncation(self):
        masks = [1 << i for i in range(8)]  # singletons, pairwise disjoint
        family = self._family(masks)
        cliques = build_cliques(family, 2, start=1, cap=1)
        assert len(cliques) == 1
        first = cliques.masks[0]
        # loop order: i = start..m-1 ascending, j = start-1..i-1
        assert first == (1 << 1) | (1 << 0)

    @pytest.mark.parametrize("start", [1, 8])
    def test_no_reference_cycle_left(self, start, backends, monkeypatch):
        """A call leaves nothing for the cyclic collector, so the cliques it
        built are freed as soon as the caller drops them; start 8 builds
        none.  Checked on every backend."""
        family = self._family([1 << i for i in range(8)])
        for name, kernels in backends.items():
            monkeypatch.setattr(unavoidable, "kernels", kernels)
            gc.collect()
            gc.disable()
            try:
                cliques = build_cliques(family, 2, start=start, cap=10)
                assert gc.collect() == 0, name
            finally:
                gc.enable()
            assert len(cliques) == (10 if start == 1 else 0), name

    @settings(max_examples=300, deadline=None)
    @given(clique_inputs())
    def test_order_matches_the_oracle(self, inputs):
        masks, degree, start, cap = inputs
        cliques = build_cliques(UnavoidableFamily(1, tuple(masks)), degree, start, cap)
        assert cliques.degree == degree
        assert list(cliques.masks) == oracle_cliques(masks, degree, start, cap)

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
            assert cliques.degree == degree
            for mask in cliques.masks:
                assert verify_degree(rep, CellSet(rep.shape, mask), degree)

    def test_cliques_on_nine_by_nine_sample(self, nine_families):
        grid, family = nine_families[0]
        cliques = build_cliques(family, 2, start=1, cap=12)
        for mask in cliques.masks:
            assert verify_degree(grid, CellSet(grid.shape, mask), 2)


class TestFamilyType:
    def test_degree_one_order_enforced(self):
        big, small = 0b111111, 0b1111
        with pytest.raises(ValueError):
            UnavoidableFamily(1, (big, small))

    def test_truncated_keeps_smallest(self):
        family = find_minimal_unavoidable(GRID_4X4, 8)
        top = family.truncated(3)
        assert len(top) == 3
        assert list(top.masks) == list(family.masks[:3])

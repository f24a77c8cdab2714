"""Acceptance gate: one test per criterion, each enforcing its stated
result and runtime budget and printing a PASS line (run with -s to watch).

Criterion 12 is the extended multi-hour 6x6 reproduction and carries the
`slow` marker, keeping it out of the default suite.  Criterion 13 records
that the full 9x9 catalogue campaign is out of desk scale by design.
"""

import random
import time
from itertools import combinations, product

import pytest

from conftest import (
    brute_force_hitting_sets,
    cell_col,
    cell_row,
    clue_cells,
    instance_from_sets,
    int_to_row_tuple,
    random_solution_grid,
    representatives,
    row_tuple_to_int,
    without_speed_ups,
)
from minclue.bitrows import con8, con8_table
from minclue.checker import search_grid
from minclue.grid import (
    SHAPE_4X4,
    SHAPE_6X6,
    SHAPE_9X9,
    CellSet,
    cell_box,
    format_grid,
    parse_grid,
)
from minclue.hitting import (
    EngineConfig,
    enumerate_hitting_sets,
    per_candidate,
)
from minclue.solver import count_completions
from minclue.symmetry import catalog, minlex, verify_scs_bracket
from minclue.unavoidable import find_minimal_unavoidable, is_minimal, is_unavoidable
from transforms import apply, random_transformation

# solution grids pinned for the 16-clue searches (criterion 8); any valid
# grid works, these are fixed so timings and reports are reproducible
PINNED_9X9 = (
    "421563879356789124789124356135247968894635712267891435542318697618972543973456281",
    "768439125123567489459128367271683954934752618685914273346275891592841736817396542",
    "783251964124689357569347128241836795875912643396574281432165879617498532958723416",
)


def report(criterion: int, elapsed: float, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:>2} PASS {elapsed:8.2f}s  {detail}")


class TestCriterion1Catalogue4x4:
    def test_total_completions_288(self):
        started = time.perf_counter()
        reps = []
        total = catalog(SHAPE_4X4, reps.append)
        elapsed = time.perf_counter() - started
        assert total == 288
        assert elapsed < 1.0
        report(1, elapsed, f"4x4 catalogue: {total} completions, {len(reps)} classes")


class TestCriterion2Scs4:
    def test_k3_empty_and_k4_matches_oracle(self, reps_4x4):
        started = time.perf_counter()
        for rep in reps_4x4:
            assert search_grid(rep, 3).proper_found == 0
            got = sorted(p.mask for p in search_grid(rep, 4).proper_puzzles)
            oracle = []
            for combo in combinations(range(16), 4):
                mask = 0
                for c in combo:
                    mask |= 1 << c
                cells = clue_cells(rep, mask)
                if count_completions(SHAPE_4X4, cells, 2).count == 1:
                    oracle.append(mask)
            assert got == sorted(oracle)
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0
        report(2, elapsed, "scs(4) = 4: k=3 empty, k=4 equals the oracle")


class TestCriterion3HittingOracle:
    def test_two_hundred_instances_all_flag_combos(self):
        from math import comb

        started = time.perf_counter()
        rng = random.Random(160_720_26)
        checked = 0
        while checked < 200:
            universe = rng.randint(6, 40)
            k = rng.randint(1, min(6, universe))
            if comb(universe, k) > 120_000:
                continue
            n_sets = rng.randint(0, 30)
            deg1 = [
                set(rng.sample(range(universe), rng.randint(2, min(8, universe))))
                for _ in range(n_sets)
            ]
            families = {1: deg1}
            disjoint_pairs = [
                a | b for a, b in combinations(deg1, 2) if not a & b
            ][:8]
            if disjoint_pairs and rng.random() < 0.6:
                families[2] = disjoint_pairs
            full = instance_from_sets(universe, k, families)
            oracle = brute_force_hitting_sets(full)
            if len(oracle) > 4000:
                continue
            config = EngineConfig(
                consolidation={1: (max(1, k - 1), 64), 2: (1, 64)},
                full_through=max(0, k - 2),
            )
            # each speed-up on, or off by its own setting
            for flags in product((True, False), repeat=3):
                instance, switched = without_speed_ups(full, config, *flags)
                got = []
                enumerate_hitting_sets(instance, switched, per_candidate(k, got.append))
                assert sorted(got) == oracle
                assert len(got) == len(set(got))
            checked += 1
        elapsed = time.perf_counter() - started
        assert elapsed < 120.0
        report(3, elapsed, f"{checked} instances x 8 speed-up combinations")


class TestCriterion4WorkedInstance:
    def test_exactly_seven_hitting_sets(self):
        started = time.perf_counter()
        instance = instance_from_sets(
            81, 2, {1: [{0, 3, 9, 12}, {0, 1, 27, 28}, {3, 4, 66, 67}]}
        )
        got = []
        enumerate_hitting_sets(instance, EngineConfig(), per_candidate(2, got.append))
        assert sorted(got) == [
            (0, 3), (0, 4), (0, 66), (0, 67), (1, 3), (3, 27), (3, 28),
        ]
        elapsed = time.perf_counter() - started
        report(4, elapsed, "worked two-clue instance: exactly 7 hitting sets")


class TestCriterion5Con8:
    def test_worked_example_and_exhaustive_table(self):
        started = time.perf_counter()
        mask = row_tuple_to_int((0, 1, 1, 0, 1, 0, 1, 0))
        bits = row_tuple_to_int((1, 1, 0, 1, 0, 0, 1, 0))
        assert int_to_row_tuple(con8(mask, bits), 8) == (1, 1, 0, 0, 0, 0, 0, 0)
        table = con8_table()
        for m in range(256):
            for b in range(256):
                out = 0
                j = 0
                for p in range(8):
                    if not (m >> p) & 1:
                        out |= ((b >> p) & 1) << j
                        j += 1
                assert table[(m << 8) | b] == out
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0
        report(5, elapsed, "con8 worked example plus all 65,536 inputs")


class TestCriterion6FinderCompleteness:
    def test_4x4_families_match_exhaustive_oracle(self, reps_4x4):
        from conftest import brute_force_count

        started = time.perf_counter()
        for rep in reps_4x4:
            unavoidable_masks = {}
            for size in range(1, 9):
                for combo in combinations(range(16), size):
                    mask = 0
                    for c in combo:
                        mask |= 1 << c
                    cells = clue_cells(rep, rep.shape.universe_mask ^ mask)
                    unavoidable_masks[mask] = (
                        brute_force_count(rep.shape, cells, 2) == 2
                    )
            oracle = sorted(
                (
                    m
                    for m, unav in unavoidable_masks.items()
                    if unav
                    and not any(
                        unavoidable_masks.get(m ^ (1 << c), False)
                        for c in range(16)
                        if (m >> c) & 1
                    )
                ),
                key=lambda m: (bin(m).count("1"), tuple(CellSet(SHAPE_4X4, m))),
            )
            family = find_minimal_unavoidable(rep, 8)
            assert list(family.masks) == oracle
            for mask in family.masks:
                cells = CellSet(rep.shape, mask)
                assert is_unavoidable(rep, cells)
                assert is_minimal(rep, cells)
                digit_counts = {}
                unit_counts = {}
                for c in cells:
                    digit_counts[rep.digits[c]] = digit_counts.get(rep.digits[c], 0) + 1
                    for kind, of in enumerate((cell_row, cell_col, cell_box)):
                        key = (kind, of(rep.shape, c))
                        unit_counts[key] = unit_counts.get(key, 0) + 1
                assert all(v >= 2 for v in digit_counts.values())
                assert all(v >= 2 for v in unit_counts.values())
        elapsed = time.perf_counter() - started
        assert elapsed < 120.0
        report(6, elapsed, "4x4 finder equals the exhaustive oracle on both classes")


class TestCriterion7NineByNineSanity:
    def test_mean_minimal_set_count(self, native_required):
        started = time.perf_counter()
        rng = random.Random(3600)
        counts = []
        for _ in range(20):
            grid = random_solution_grid(SHAPE_9X9, rng)
            counts.append(len(find_minimal_unavoidable(grid, 12)))
        mean = sum(counts) / len(counts)
        elapsed = time.perf_counter() - started
        assert 200 <= mean <= 500, counts
        assert elapsed < 600.0
        report(
            7,
            elapsed,
            f"mean minimal sets over {len(counts)} grids: {mean:.1f} "
            f"(min {min(counts)}, max {max(counts)})",
        )


class TestCriterion8SixteenClueSearch:
    @pytest.mark.parametrize("grid_text", PINNED_9X9)
    def test_no_sixteen_clue_puzzle(self, grid_text, native_required):
        started = time.perf_counter()
        grid = parse_grid(grid_text)
        result = search_grid(grid, 16)
        elapsed = time.perf_counter() - started
        assert result.proper_found == 0
        assert result.safety_failures == 0
        assert elapsed < 900.0
        report(
            8,
            elapsed,
            f"k=16 on {grid_text[:12]}..: {result.candidates} candidates, 0 proper",
        )


class TestCriterion9EquivalenceInvariance:
    def test_4x4_hundred_pairs(self, reps_4x4):
        started = time.perf_counter()
        rng = random.Random(99)
        for _ in range(100):
            base = apply(
                random_transformation(SHAPE_4X4, rng), reps_4x4[rng.randrange(2)]
            )
            t = random_transformation(SHAPE_4X4, rng)
            a = search_grid(base, 4)
            b = search_grid(apply(t, base), 4)
            assert a.proper_found == b.proper_found
        elapsed = time.perf_counter() - started
        report(9, elapsed, "4x4: proper counts equal over 100 random pairs")

    def test_9x9_twenty_pairs_k10(self, native_required):
        started = time.perf_counter()
        rng = random.Random(100)
        for _ in range(20):
            grid = random_solution_grid(SHAPE_9X9, rng)
            t = random_transformation(SHAPE_9X9, rng)
            a = search_grid(grid, 10)
            b = search_grid(apply(t, grid), 10)
            assert a.proper_found == b.proper_found
        elapsed = time.perf_counter() - started
        assert elapsed < 600.0
        report(9, elapsed, "9x9: proper counts equal over 20 random pairs at k=10")


class TestCriterion10FarmCrashEquivalence:
    def test_five_kill_points(self, tmp_path):
        from minclue.taskfarm import merge_outputs, run_farm

        started = time.perf_counter()
        rng = random.Random(4321)
        reps = representatives(SHAPE_4X4)
        lines = [
            format_grid(apply(random_transformation(SHAPE_4X4, rng), reps[i % 2]))
            for i in range(50)
        ]
        catalogue = tmp_path / "catalogue.txt"
        catalogue.write_text("\n".join(lines) + "\n")

        def outputs(tag, **kwargs):
            cp = tmp_path / f"{tag}.cp"
            out = tmp_path / f"{tag}.out"
            run_farm(catalogue, 4, workers=2, batch_size=5,
                     checkpoint_path=cp, output_path=out, **kwargs)
            return cp, out

        def merged_set(path):
            return sorted(
                (r.grid, r.proper_found, tuple(p.mask for p in r.proper_puzzles))
                for r in merge_outputs(path)
            )

        _, reference_out = outputs("reference")
        reference = merged_set(reference_out)
        for kill_after in (1, 2, 3, 4, 5):
            cp, out = outputs(f"kill{kill_after}", max_batches=kill_after)
            run_farm(catalogue, 4, workers=2, batch_size=5,
                     checkpoint_path=cp, output_path=out)
            assert merged_set(out) == reference
        elapsed = time.perf_counter() - started
        assert elapsed < 300.0
        report(10, elapsed, "farm kill/resume equals the uninterrupted run (5 points)")


class TestCriterion11ScsBrackets:
    def test_published_rows_and_false_case(self):
        started = time.perf_counter()
        assert verify_scs_bracket(4, 288, 4)
        assert verify_scs_bracket(6, 28_200_960, 8)
        assert verify_scs_bracket(8, 29_136_487_207_403_520, 14)
        assert verify_scs_bracket(9, 6_670_903_752_021_072_936_960, 17)
        assert not verify_scs_bracket(4, 288, 5)
        elapsed = time.perf_counter() - started
        report(11, elapsed, "bracket holds on all four table rows, fails on (4,288,5)")


@pytest.mark.slow
class TestCriterion12Extended6x6:
    def test_completion_count_and_scs6(self):
        started = time.perf_counter()
        reps = []
        total = catalog(SHAPE_6X6, reps.append)
        assert total == 28_200_960
        for rep in reps:
            assert minlex(rep) == rep
            assert search_grid(rep, 7).proper_found == 0
        elapsed = time.perf_counter() - started
        report(
            12,
            elapsed,
            f"6x6: {total} completions, {len(reps)} classes, no 7-clue puzzle",
        )


class TestCriterion13Scope:
    def test_full_9x9_campaign_documented_out_of_scope(self):
        pytest.skip(
            "the full 9x9 result (no 16-clue puzzle across all "
            "5,472,730,538 essentially different grids) needs ~7.1M core "
            "hours and is out of desk scale by design; criteria 3-9 stand "
            "in with property-based acceptance"
        )

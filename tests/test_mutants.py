"""Mutants of the native kernels that the default suite must kill.

Each row of MUTANTS is one search/replace on `_ckernels.c` and the tests
that must fail on the mutated source.  A row copies the checkout (see
`copy_checkout`), applies its replacement, lets the copy's loader compile
it, and runs its tests there in a fresh interpreter with the native
backend forced.  The unmutated copy must pass every test the table names,
so a row fails only through its mutation.  The tests named are fast and
draw no examples: some mutants make the engine emit every k-subset of a
large board, and a failing property test spends minutes shrinking.
Slow (under a minute), so outside the default suite:
`python -m pytest -m slow tests/test_mutants.py`.
"""

import os
import shutil
import subprocess
import sys

import pytest

from test_sanitizers import copy_checkout

HIT = "tests/test_hitting.py::"
BACK = "tests/test_backends.py::"
UNAV = "tests/test_unavoidable.py::"
SOLVE = "tests/test_solver.py::"
FINDER4 = UNAV + "TestFinderCompleteness4x4::"

# name: (search, replace, tests that must fail)
MUTANTS = {
    "select_slot scans one level past full_through": (
        "int scan = level < eng->full_through;",
        "int scan = level <= eng->full_through;",
        [HIT + "TestEffectiveSizeAndSelection::test_first_unhit_reproduces_baseline",
         HIT + "TestEffectiveSizeAndSelection::test_fully_dead_selected_set_cuts"],
    ),
    "select_slot never scans": (
        "int scan = level < eng->full_through;",
        "int scan = 0;",
        [HIT + "TestEffectiveSizeAndSelection::test_selection_counts_live_cells",
         HIT + "TestEffectiveSizeAndSelection::test_fully_dead_selected_set_cuts"],
    ),
    "consolidation keeps cap + 1 sets": (
        "(cap < m ? cap : m)",
        "(cap < m ? cap + 1 : m)",
        [HIT + "TestConsolidate::test_cap_truncates",
         HIT + "TestSkippedRebuilds::test_degree_two_family_at_and_over_its_cap"],
    ),
    "effective sizes drop the high mask word": (
        "eff = popcount64(masks[i * 2] & alive_lo)\n"
        "                  + popcount64(masks[i * 2 + 1] & alive_hi);",
        "eff = popcount64(masks[i * 2] & alive_lo);",
        [HIT + "TestBackendParityOnEngine::test_degree_cut_above_level_63",
         HIT + "TestSkippedRebuilds::test_pinned_nine_by_nine_counters"],
    ),
    "row_all_ones skips a partial last word": (
        "return !rem || row[words] == (((u64)1 << rem) - 1);",
        "return 1;",
        [HIT + "TestWorkedInstance::test_exactly_seven_sets",
         HIT + "TestSmallCases::test_single_set_k1",
         HIT + "TestEarlyChildCut::test_check_at_the_root"],
    ),
    "row_all_ones skips the partial last word of a row over 64 sets": (
        "return !rem || row[words] == (((u64)1 << rem) - 1);",
        "return !rem || m > 64 || row[words] == (((u64)1 << rem) - 1);",
        [HIT + "TestBackendParityOnEngine::test_degree_cut_above_level_63",
         HIT + "TestBackendParityOnEngine::test_sixty_fifth_set_decides_the_entry_check"],
    ),
    "degree checks fire one level early": (
        "if (st->check_level != level)",
        "if (st->check_level != level + 1)",
        [HIT + "TestOracleEquivalence::test_flag_combinations_on_random_instances",
         HIT + "TestSkippedRebuilds::test_pinned_nine_by_nine_counters",
         HIT + "TestBackendParityOnEngine::test_identical_emission_and_order"],
    ),
    "mc_cliques drops the high word from the disjointness test": (
        "if ((lo & acc[2 * level]) | (hi & acc[2 * level + 1])) {",
        "if (lo & acc[2 * level]) {",
        [UNAV + "TestNineByNine::test_pinned_clique_families"],
    ),
    "mc_cliques starts each level at start, not start - level": (
        "idx[level] = start - level;",
        "idx[level] = start;",
        [UNAV + "TestBuildCliques::test_worked_family",
         UNAV + "TestNineByNine::test_pinned_clique_families"],
    ),
    "mc_cliques does not stop at cap": (
        "if (++len == cap)\n            break;",
        "++len;",
        [BACK + "TestCliques::test_cap_reached_mid_scan",
         UNAV + "TestBuildCliques::test_cap_truncation"],
    ),
    "solve_rec flips one cell of the second completion": (
        "memcpy(out + (*saved)++ * geo->ncells, b->grid, geo->ncells);",
        "{ memcpy(out + (*saved)++ * geo->ncells, b->grid, geo->ncells);"
        " if (*saved == 2) out[geo->ncells] ^= 1; }",
        [SOLVE + "TestCountCompletions::test_empty_grid_saturates",
         SOLVE + "TestVerifyTwoCompletions::test_empty_puzzle_outcome_passes"],
    ),
    "grid_ok skips the box units": (
        "for (int u = 0; u < 3 * n; ++u) {\n        unsigned int seen = 0;",
        "for (int u = 0; u < 2 * n; ++u) {\n        unsigned int seen = 0;",
        [BACK + "TestConfirm::test_invalid_grid_is_refused",
         BACK + "TestDiffParity::test_bad_solution_raises"],
    ),
    "combine lets two digits fill one cell": (
        "if ((filled[w] & m->fill[w]) || (f[w] & p[w] & ~v[w]))",
        "if (f[w] & p[w] & ~v[w])",
        [UNAV + "TestNineByNine::test_pinned_families"],
    ),
    "combine ignores max_diff": (
        "int ok = m->size + later <= room;",
        "int ok = 1;",
        [BACK + "TestDiffParity::test_same_difference_masks",
         FINDER4 + "test_family_equals_oracle_on_every_representative"],
    ),
    "the move walk skips the box check": (
        "if (c == c0 || (cols >> c & 1) || (boxes >> box & 1)",
        "if (c == c0 || (cols >> c & 1)",
        [BACK + "TestDiffParity::test_same_difference_masks",
         FINDER4 + "test_family_equals_oracle_on_every_representative",
         FINDER4 + "test_structural_lemmas_hold"],
    ),
    "the move walk fills a cell that is not blank": (
        "if (c == c0 || (cols >> c & 1) || (boxes >> box & 1)\n"
        "            || !mask_bit(wk->blank[0], wk->blank[1], cell))",
        "if (c == c0 || (cols >> c & 1) || (boxes >> box & 1))",
        [BACK + "TestDiffParity::test_same_difference_masks",
         FINDER4 + "test_family_equals_oracle_on_every_representative",
         FINDER4 + "test_structural_lemmas_hold"],
    ),
}

ALL_TESTS = sorted({test for *_, tests in MUTANTS.values() for test in tests})


def run_in_copy(tmp_path, tests, search="", replace=""):
    """Run `tests` in a copy of the checkout whose `_ckernels.c` has
    `search` replaced; returns the ids that failed, as pytest reports
    them (a parametrized test once per failing case), the exit status and
    the run's output."""
    if shutil.which("gcc") is None:
        pytest.skip("no gcc")
    copy = tmp_path / "copy"
    source = copy_checkout(copy) / "_ckernels.c"
    if search:
        text = source.read_text()
        assert text.count(search) == 1, "the search text must occur once"
        source.write_text(text.replace(search, replace))
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "MINCLUE_BACKEND": "native"}
    # the copy's loader compiles its own source; a build error stops here
    subprocess.run(
        [sys.executable, "-c", "import minclue._native"],
        cwd=copy, env=env, check=True, capture_output=True, timeout=600,
    )
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *tests],
        cwd=copy, env=env, capture_output=True, text=True, timeout=1800,
    )
    failed = {
        line[len("FAILED "):].split(" - ")[0]
        for line in run.stdout.splitlines()
        if line.startswith("FAILED ")
    }
    return failed, run.returncode, run.stdout[-3000:] + run.stderr[-3000:]


@pytest.mark.slow
def test_unmutated_source_passes(tmp_path):
    failed, status, output = run_in_copy(tmp_path, ALL_TESTS)
    assert status == 0 and not failed, output


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_killed(tmp_path, name):
    search, replace, tests = MUTANTS[name]
    failed, _status, output = run_in_copy(tmp_path, tests, search, replace)
    survivors = [
        test for test in tests
        if not any(f == test or f.startswith(test + "[") for f in failed)
    ]
    assert not survivors, output

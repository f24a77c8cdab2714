import logging
import random
from dataclasses import replace
from itertools import combinations

import pytest

from conftest import clue_cells, random_solution_grid
from minclue.checker import (
    GridSearchError,
    GridSearchReport,
    SearchConfig,
    baseline_config,
    format_report,
    parse_report,
    search_catalog,
    search_grid,
)
from minclue.grid import SHAPE_4X4, SHAPE_9X9
from minclue.solver import count_completions
from minclue.unavoidable import (
    UnavoidableFamily,
    find_minimal_unavoidable,
    recheck_family,
)
from transforms import apply, apply_cells, random_transformation


def oracle_proper_masks(grid, k):
    out = []
    for combo in combinations(range(grid.shape.cell_count), k):
        mask = 0
        for c in combo:
            mask |= 1 << c
        cells = clue_cells(grid, mask)
        if count_completions(grid.shape, cells, 2).count == 1:
            out.append(mask)
    return sorted(out)


class TestSearchGrid4x4:
    def test_k3_finds_nothing(self, reps_4x4):
        for rep in reps_4x4:
            report = search_grid(rep, 3)
            assert report.proper_found == 0
            assert report.safety_failures == 0

    def test_k4_matches_exhaustive_oracle(self, reps_4x4):
        for rep in reps_4x4:
            report = search_grid(rep, 4)
            got = sorted(p.mask for p in report.proper_puzzles)
            assert got == oracle_proper_masks(rep, 4)
            assert report.proper_found == len(got)
            assert report.candidates >= report.proper_found
            assert report.minimal_sets_found > 0

    def test_determinism(self, reps_4x4):
        a = search_grid(reps_4x4[0], 4)
        b = search_grid(reps_4x4[0], 4)
        assert a.proper_puzzles == b.proper_puzzles
        assert a.candidates == b.candidates

    def test_k_validation(self, reps_4x4):
        with pytest.raises(ValueError):
            search_grid(reps_4x4[0], 0)
        with pytest.raises(ValueError):
            search_grid(reps_4x4[0], 17)


class TestSubfamilyRobustness:
    def test_any_prefix_gives_same_proper_sets_4x4(self, reps_4x4):
        for rep in reps_4x4:
            expected = None
            for cap in (1, 2, 5, 384):
                config = SearchConfig(family_cap=cap)
                report = search_grid(rep, 4, config)
                masks = sorted(p.mask for p in report.proper_puzzles)
                if expected is None:
                    expected = masks
                else:
                    assert masks == expected

    def test_two_configurations_agree_on_9x9_k10(self, native_required):
        rng = random.Random(55)
        grid = random_solution_grid(SHAPE_9X9, rng)
        full = search_grid(grid, 10)
        tiny = search_grid(grid, 10, SearchConfig(family_cap=24))
        assert sorted(p.mask for p in full.proper_puzzles) == sorted(
            p.mask for p in tiny.proper_puzzles
        )
        assert tiny.candidates >= full.candidates


class TestCandidateCounts:
    def test_full_config_not_more_candidates_than_baseline(self, reps_4x4):
        for rep in reps_4x4:
            full = search_grid(rep, 4)
            base = search_grid(rep, 4, baseline_config())
            assert full.candidates <= base.candidates
            assert sorted(p.mask for p in full.proper_puzzles) == sorted(
                p.mask for p in base.proper_puzzles
            )

    def test_9x9_k10(self, native_required):
        rng = random.Random(56)
        grid = random_solution_grid(SHAPE_9X9, rng)
        full = search_grid(grid, 10)
        base = search_grid(grid, 10, baseline_config())
        assert full.candidates <= base.candidates


class TestEquivalenceInvariance:
    def test_4x4_k4_sample(self, reps_4x4):
        rng = random.Random(57)
        for _ in range(10):
            rep = reps_4x4[rng.randrange(2)]
            t = random_transformation(SHAPE_4X4, rng)
            image = apply(t, rep)
            a = search_grid(rep, 4)
            b = search_grid(image, 4)
            assert a.proper_found == b.proper_found
            mapped = sorted(
                apply_cells(t, SHAPE_4X4, p.mask) for p in a.proper_puzzles
            )
            assert mapped == sorted(p.mask for p in b.proper_puzzles)


class TestSearchCatalog:
    def test_empty_input(self):
        assert list(search_catalog([], 4)) == []

    def test_both_representatives_k3(self, reps_4x4):
        lines = [str(rep) for rep in reps_4x4]
        reports = list(search_catalog(lines, 3))
        assert len(reports) == 2
        assert all(r.proper_found == 0 for r in reports)

    def test_malformed_line_produces_error_record(self, reps_4x4):
        lines = [str(reps_4x4[0]), "11112222333344445", str(reps_4x4[1])]
        reports = list(search_catalog(lines, 3))
        assert len(reports) == 3
        assert isinstance(reports[1], GridSearchError)
        assert reports[1].line_no == 1
        assert isinstance(reports[0], GridSearchReport)
        assert isinstance(reports[2], GridSearchReport)

    def test_duplicate_lines_identical_reports(self, reps_4x4):
        line = str(reps_4x4[0])
        a, b = list(search_catalog([line, line], 4))
        assert replace(a, elapsed_ms=0) == replace(b, elapsed_ms=0)


class TestReportFormat:
    def test_round_trip_with_puzzles(self, reps_4x4):
        report = search_grid(reps_4x4[0], 4)
        back = parse_report(format_report(report))
        assert back.grid == report.grid
        assert back.k == report.k
        assert back.proper_found == report.proper_found
        assert [tuple(p) for p in back.proper_puzzles] == [
            tuple(p) for p in report.proper_puzzles
        ]

    def test_safety_line_round_trip(self, reps_4x4):
        report = replace(search_grid(reps_4x4[0], 4), safety_failures=2)
        text = format_report(report)
        assert text.splitlines()[1] == "\t!safety 2"
        assert parse_report(text) == report

    def test_clean_report_has_no_safety_line(self, reps_4x4):
        report = search_grid(reps_4x4[0], 4)
        assert "!safety" not in format_report(report)
        assert parse_report(format_report(report)).safety_failures == 0

    def test_error_record_round_trip(self):
        err = GridSearchError(3, "wrong length")
        assert parse_report(format_report(err)) == err

    def test_header_lines_parse_back(self):
        from minclue.config import (
            build_search_config,
            config_header_lines,
            parse_config_text,
        )

        config = SearchConfig(max_set_size=9, family_cap=100)
        text = "\n".join(
            line[2:] for line in config_header_lines(config, 12)
        )
        rebuilt, k = build_search_config(parse_config_text(text))
        assert k == 12
        assert rebuilt.max_set_size == 9
        assert rebuilt.family_cap == 100


class TestSafetyPath:
    def test_clean_grid_reports_zero_failures(self, reps_4x4):
        assert search_grid(reps_4x4[0], 4).safety_failures == 0

    def test_unsafe_candidate_is_counted_logged_and_dropped(
        self, reps_4x4, one_unsafe_candidate, monkeypatch, caplog
    ):
        with caplog.at_level(logging.ERROR, logger="minclue.checker"):
            report = search_grid(reps_4x4[1], 4)
        monkeypatch.undo()
        clean = search_grid(reps_4x4[1], 4)
        (cells,) = one_unsafe_candidate
        mask = sum(1 << c for c in cells)
        assert report.safety_failures == 1
        assert mask in {p.mask for p in clean.proper_puzzles}
        assert mask not in {p.mask for p in report.proper_puzzles}
        assert report.proper_found == clean.proper_found - 1
        assert report.candidates == clean.candidates
        assert str(cells) in caplog.text
        assert "found nothing wrong" in caplog.text

    def test_failed_recheck_is_counted_and_logged(
        self, reps_4x4, backends, monkeypatch, caplog
    ):
        """A one-cell set is not unavoidable (its complement is a proper
        puzzle): the recheck fails it on every backend, and the search
        counts and logs the failure.  The whole-grid set passes."""
        from minclue import checker, unavoidable

        grid = reps_4x4[1]
        found = find_minimal_unavoidable(grid, 8)
        family = UnavoidableFamily(
            1,
            (1 << 5,) + found.masks + (grid.shape.universe_mask,),
        )
        monkeypatch.setattr(checker, "find_minimal_unavoidable", lambda g, m: family)
        for name, kern in backends.items():
            monkeypatch.setattr(unavoidable, "kernels", kern)
            assert recheck_family(grid, found) == 0, name
            assert recheck_family(grid, family) == 1, name
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="minclue.checker"):
                report = search_grid(grid, 4)
            assert report.safety_failures == 1, name
            assert report.minimal_sets_found == len(family)
            assert "1 unavoidable sets failed the solver recheck" in caplog.text

    def test_later_batches_are_confirmed_too(self, reps_4x4, monkeypatch):
        """Batches of one candidate give the same report as one batch, and
        each engine batch goes to `confirm` as it is."""
        from types import SimpleNamespace

        from minclue import checker, hitting

        whole = search_grid(reps_4x4[1], 4)
        real = checker.kernels.confirm
        sizes = []

        def confirm(box_rows, box_cols, digits, k, cells):
            sizes.append(len(cells))
            return real(box_rows, box_cols, digits, k, cells)

        monkeypatch.setattr(hitting, "EMIT_BATCH", 1)
        monkeypatch.setattr(checker, "kernels", SimpleNamespace(confirm=confirm))
        split = search_grid(reps_4x4[1], 4)
        assert replace(split, elapsed_ms=0) == replace(whole, elapsed_ms=0)
        assert sizes == [4] * whole.candidates

import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import clue_cells, random_solution_grid
from test_unavoidable import oracle_cliques
from minclue import _pykernels, checker, hitting, unavoidable
from minclue._pykernels import CONFIRM_AMBIGUOUS, CONFIRM_PROPER, CONFIRM_UNSAFE
from minclue.backend import backend_name
from minclue.grid import SHAPE_4X4, SHAPE_6X6, SHAPE_9X9, Grid, GridShape
from minclue.solver import count_completions, verify_two_completions
from minclue.hitting import EngineConfig, HittingInstance, resolve_plan
from minclue.unavoidable import find_minimal_unavoidable

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "minclue"


class TestSelection:
    def test_backend_is_reported(self):
        assert backend_name() in ("python", "native")

    def test_python_backend_always_available(self, backends):
        assert "python" in backends

    def test_modules_declare_their_names(self, backends):
        for name, module in backends.items():
            assert module.BACKEND_NAME == name

    def test_native_whenever_gcc_is_on_path(self):
        """Fails rather than skips, so the 9x9 acceptance and parity checks
        cannot drop out silently."""
        if shutil.which("gcc") and not os.environ.get("MINCLUE_BACKEND"):
            assert backend_name() == "native"


def import_copy(tmp_path, env_update, source=None):
    """Import the backend from a copy of the package with no built library
    (and `source` as the C kernels, when given) in a fresh interpreter."""
    package = tmp_path / "minclue"
    shutil.copytree(PACKAGE, package, ignore=shutil.ignore_patterns("__pycache__"))
    if source is not None:
        (package / "_ckernels.c").write_text(source)
    env = {**os.environ, "PYTHONPATH": str(tmp_path)}
    env.pop("MINCLUE_BACKEND", None)
    env.update(env_update)
    return subprocess.run(
        [sys.executable, "-W", "always", "-c",
         "from minclue.backend import backend_name; print(backend_name())"],
        env=env, capture_output=True, text=True, timeout=120,
    )


class TestBuildOnImport:
    def test_first_import_builds_into_pycache(self, tmp_path):
        if shutil.which("gcc") is None:
            pytest.skip("no gcc")
        got = import_copy(tmp_path, {})
        assert got.stdout.strip() == "native", got.stderr
        built = sorted(p.name for p in (tmp_path / "minclue" / "__pycache__").glob("*.so"))
        assert len(built) == 1 and built[0].startswith("_ckernels-")
        assert not list((tmp_path / "minclue" / "__pycache__").glob(".ckernels-*"))

    def test_failed_build_warns_and_falls_back(self, tmp_path):
        if shutil.which("gcc") is None:
            pytest.skip("no gcc")
        got = import_copy(tmp_path, {}, source="this is not C\n")
        assert got.stdout.strip() == "python"
        assert "RuntimeWarning" in got.stderr and "error" in got.stderr

    def test_failed_build_with_native_forced_raises(self, tmp_path):
        if shutil.which("gcc") is None:
            pytest.skip("no gcc")
        got = import_copy(tmp_path, {"MINCLUE_BACKEND": "native"}, source="not C\n")
        assert got.returncode != 0
        assert "ImportError" in got.stderr

    def test_no_compiler_falls_back_silently(self, tmp_path):
        got = import_copy(tmp_path, {"PATH": str(tmp_path / "empty")})
        assert got.stdout.strip() == "python"
        assert "Warning" not in got.stderr


class Stop(Exception):
    pass


def raise_on_third(calls):
    def sink(item):
        calls.append(item)
        if len(calls) == 3:
            raise Stop

    return sink


class TestSinkExceptions:
    def test_engine_sink_error_reaches_the_caller(self, backends):
        """Nine candidates of two cells: the third batch is a full one for
        batches of 1 and 2, and the last, short one for batches of 4."""
        instance = HittingInstance.from_sets(20, 2, {1: [{0, 1, 2}, {3, 4, 5}]})
        plan = resolve_plan(instance, EngineConfig())
        for name, kern in backends.items():
            for batch, last in ((1, 2), (2, 4), (4, 2)):
                calls = []
                with pytest.raises(Stop):
                    kern.run_hitting(*plan, raise_on_third(calls), batch)
                assert [len(c) for c in calls] == [2 * batch] * 2 + [last], name
            # the engine still runs normally afterwards
            assert kern.run_hitting(*plan, lambda batch: None, 1)["emitted"] == 9

    def test_diff_collector_error_reaches_the_caller(self, backends, monkeypatch):
        if "native" not in backends:
            pytest.skip("single backend")
        grid = random_solution_grid(SHAPE_9X9, random.Random(3))
        blank = digit_cells(grid, (1, 2, 3))
        args = (3, 3, grid.digits, blank, 12, 8)
        self.abort_and_rerun(backends["native"], monkeypatch, args)

    def test_rectangle_collector_error_reaches_the_caller(self, backends, monkeypatch):
        """max_per_digit=2 takes the native rectangle-swap path."""
        if "native" not in backends:
            pytest.skip("single backend")
        grid = random_solution_grid(SHAPE_4X4, random.Random(3))
        blank = digit_cells(grid, (1, 2, 3, 4))
        args = (2, 2, grid.digits, blank, 8, 2)
        self.abort_and_rerun(backends["native"], monkeypatch, args)

    @staticmethod
    def abort_and_rerun(native, monkeypatch, args):
        expected = native.enumerate_diffs(*args)
        assert len(expected) > 3
        calls = []
        collect = raise_on_third(calls)
        monkeypatch.setattr(native, "_mask", collect)
        with pytest.raises(Stop):
            native.enumerate_diffs(*args)
        assert len(calls) == 3
        monkeypatch.undo()
        assert native.enumerate_diffs(*args) == expected


def digit_cells(grid, digits) -> int:
    """Mask of the cells holding any of `digits`."""
    mask = 0
    for c, d in enumerate(grid.digits):
        if d in digits:
            mask |= 1 << c
    return mask


class TestDiffParity:
    def test_same_difference_masks(self, backends):
        if "native" not in backends:
            pytest.skip("single backend")
        py, native = backends["python"], backends["native"]
        rng = random.Random(2024)
        for shape, max_size in ((SHAPE_4X4, 8), (SHAPE_9X9, 12)):
            n = shape.side
            grid = random_solution_grid(shape, rng)
            cells_of_digit = [0] * (n + 1)
            for c, d in enumerate(grid.digits):
                cells_of_digit[d] |= 1 << c
            for a in range(1, n):
                for b in range(a + 1, min(a + 3, n + 1)):
                    blank = cells_of_digit[a] | cells_of_digit[b]
                    args = (
                        shape.box_rows,
                        shape.box_cols,
                        grid.digits,
                        blank,
                        max_size,
                        max_size - 2,
                    )
                    assert sorted(py.enumerate_diffs(*args)) == sorted(
                        native.enumerate_diffs(*args)
                    )

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.sampled_from((SHAPE_4X4, SHAPE_6X6, SHAPE_9X9)),
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(0, 6),
        thin=st.booleans(),
    )
    @example(shape=SHAPE_9X9, seed=22, count=6, thin=True)
    def test_rectangle_swaps_match_the_reference(
        self, backends, shape, seed, count, thin
    ):
        """max_per_digit=2: the native rectangle-swap enumerator against
        the reference's blanked-board search, for whole digit classes and
        randomly thinned ones, with max_diff below and at 2 per digit.  Six
        digits are always thinned, which keeps the reference fast (whole
        classes take it seconds).  In the pinned 9x9 example a rect_rec
        that let two digits fill one cell would emit a mask the reference
        does not."""
        if "native" not in backends:
            pytest.skip("single backend")
        py, native = backends["python"], backends["native"]
        rng = random.Random(seed)
        grid = random_solution_grid(shape, rng)
        n, ncells = shape.side, shape.cell_count
        digits = rng.sample(range(1, n + 1), min(count, n))
        blank = digit_cells(grid, digits)
        if thin or count == 6:
            blank &= rng.getrandbits(ncells) | rng.getrandbits(ncells)
        blanked = {d for c, d in enumerate(grid.digits) if (blank >> c) & 1}
        for max_diff in (2 * len(blanked) - 1, 2 * len(blanked)):
            for mask in (blank, 0):
                args = (shape.box_rows, shape.box_cols, grid.digits, mask, max_diff, 2)
                got = sorted(native.enumerate_diffs(*args))
                assert got == sorted(py.enumerate_diffs(*args)), (max_diff, mask)
                if mask == 0 or max_diff < 2 * len(blanked):
                    assert got == []

    def test_bad_solution_raises(self, backends):
        """Every backend refuses a solution that is no grid, on the
        board-search path (max_per_digit 4) and the rectangle path (2)."""
        digits = random_solution_grid(SHAPE_4X4, random.Random(4)).digits
        for name, kern in backends.items():
            for solution in (
                (0,) + digits[1:],  # digit outside 1..n
                (1,) * 16,  # rows that miss digits
                LATIN_4X4,  # rows and columns are permutations, a box is not
            ):
                for per_digit in (4, 2):
                    with pytest.raises(ValueError):
                        kern.enumerate_diffs(2, 2, solution, 0xFFFF, 8, per_digit)


class TestFinderParity:
    @pytest.mark.parametrize(
        "shape, max_size, seed", [(SHAPE_6X6, 10, 6), (SHAPE_9X9, 8, 9)]
    )
    def test_same_family(self, backends, monkeypatch, shape, max_size, seed):
        """The whole finder, top rectangle-swap layer included, gives the
        same minimal family on both backends."""
        if "native" not in backends:
            pytest.skip("single backend")
        grid = random_solution_grid(shape, random.Random(seed))
        families = {}
        for name, kern in backends.items():
            monkeypatch.setattr(unavoidable, "kernels", kern)
            families[name] = find_minimal_unavoidable(grid, max_size).masks
        assert families["native"] == families["python"]
        assert families["native"]


class TestSolverParityAcrossShapes:
    def test_counts_and_completions(self, backends):
        if "native" not in backends:
            pytest.skip("single backend")
        py, native = backends["python"], backends["native"]
        rng = random.Random(11)
        for shape in (SHAPE_4X4, SHAPE_9X9):
            for _ in range(10):
                grid = random_solution_grid(shape, rng)
                mask = 0
                for c in rng.sample(
                    range(shape.cell_count), rng.randrange(shape.cell_count)
                ):
                    mask |= 1 << c
                cells = clue_cells(grid, mask)
                if not py.givens_consistent(
                    shape.box_rows, shape.box_cols, cells
                ):
                    continue
                args = (shape.box_rows, shape.box_cols, cells, 2)
                assert py.solve_limit(*args) == native.solve_limit(*args)


class TestCIntArguments:
    """The native binding refuses an int argument past a C int; ctypes
    would wrap it silently.  The reference takes any int."""

    def test_solve_limit(self, backends):
        if "native" not in backends:
            pytest.skip("single backend")
        args = (2, 2, (0,) * 16)
        assert backends["python"].solve_limit(*args, 2**32 + 1)[0] == 288
        assert backends["native"].solve_limit(*args, 2**31 - 1)[0] == 288
        with pytest.raises(ValueError, match="C int"):
            backends["native"].solve_limit(*args, 2**32 + 1)

    def test_run_hitting_consolidation_cap(self, backends):
        """A plan made by hand: EngineConfig refuses such a cap."""
        if "native" not in backends:
            pytest.skip("single backend")
        instance = HittingInstance(8, 2, {1: (0b11, 0b1100, 0b110000)})
        plan = list(resolve_plan(instance, EngineConfig()))
        plan[5] = {1: (1, 2**32 + 1)}  # consolidations
        emitted = []
        stats = backends["python"].run_hitting(*plan, emitted.append, 1)
        assert stats["emitted"] == 0 and stats["consolidations"] > 0
        with pytest.raises(ValueError, match="C int"):
            backends["native"].run_hitting(*plan, emitted.append, 1)
        assert emitted == []


def reference_verdict(grid, cells) -> int:
    """The candidate's class from the solver and its Python double-check."""
    mask = 0
    for c in cells:
        mask |= 1 << c
    puzzle = clue_cells(grid, mask)
    outcome = count_completions(grid.shape, puzzle, 2)
    if outcome.count == 1:
        if outcome.completions[0].digits == grid.digits:
            return CONFIRM_PROPER
        return CONFIRM_UNSAFE
    if verify_two_completions(grid.shape, puzzle, outcome):
        return CONFIRM_AMBIGUOUS
    return CONFIRM_UNSAFE


def greedy_proper(grid, rng):
    """A proper puzzle of `grid`: drop clues in random order while the
    puzzle stays unique."""
    kept = set(range(grid.shape.cell_count))
    for c in rng.sample(sorted(kept), len(kept)):
        trial = kept - {c}
        mask = sum(1 << x for x in trial)
        if count_completions(grid.shape, clue_cells(grid, mask), 2).count == 1:
            kept = trial
    return sorted(kept)


def confirm_args(grid, k, cells):
    shape = grid.shape
    return shape.box_rows, shape.box_cols, bytes(grid.digits), k, bytes(cells)


def rectangle_in_last_rows(shape, rng):
    """A grid of `shape` and the four cells of a swappable rectangle in its
    last two rows: one cell of each row at the last column of the
    next-to-last stack, one in the last stack.  Found in the first random
    grid that has one (two rows of one band, two stacks, digits a b / b a),
    then moved there by permuting bands, rows within a band, stacks and
    columns within a stack, which keeps the grid valid."""
    br, bc, n = shape.box_rows, shape.box_cols, shape.side
    found = None
    while found is None:
        digits = random_solution_grid(shape, rng).digits
        at = lambda r, c: digits[r * n + c]  # noqa: E731
        found = next(
            (
                [r1, r2, c1, c2]
                for r1 in range(n)
                for r2 in range(r1 + 1, (r1 // br + 1) * br)
                for c1 in range(n)
                for c2 in range(n)
                if c1 // bc != c2 // bc
                and at(r1, c1) == at(r2, c2)
                and at(r1, c2) == at(r2, c1)
            ),
            None,
        )
    r1, r2, c1, c2 = found

    def move_last(size, picks):
        """0..n-1 reordered with groups of `size` kept whole: the groups
        of `picks` go last and each pick to the end of its group, both in
        pick order."""
        groups = [p // size for p in picks]
        return sorted(
            range(n),
            key=lambda i: (
                n + groups.index(i // size) if i // size in groups else i // size,
                n + picks.index(i) if i in picks else i,
            ),
        )

    rows, cols = move_last(br, [r1, r2]), move_last(bc, [c1, c2])
    moved = [at(r, c) for r in rows for c in cols]
    rect = {r * n + cols.index(c) for r in (n - 2, n - 1) for c in (c1, c2)}
    return Grid.from_digits(shape, moved), rect


# rows and columns are permutations, the top-left box is not
LATIN_4X4 = (1, 2, 3, 4, 2, 3, 4, 1, 3, 4, 1, 2, 4, 1, 2, 3)


class TestConfirm:
    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.sampled_from((SHAPE_4X4, SHAPE_6X6, SHAPE_9X9)),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_parity_and_reference(self, backends, shape, seed, data):
        rng = random.Random(seed)
        grid = random_solution_grid(shape, rng)
        ncells = shape.cell_count
        k = data.draw(st.integers(1, ncells), label="k")
        candidates = [
            sorted(rng.sample(range(ncells), k))
            for _ in range(data.draw(st.integers(0, 6), label="count"))
        ]
        if k == ncells:
            candidates.append(list(range(ncells)))  # the full grid: proper
        proper = greedy_proper(grid, rng)
        cells = [c for cand in candidates for c in cand]
        expected = [reference_verdict(grid, cand) for cand in candidates]
        for name, kernels in backends.items():
            got = kernels.confirm(*confirm_args(grid, k, cells))
            assert list(got) == expected, name
            one = kernels.confirm(*confirm_args(grid, len(proper), proper))
            assert one == bytes([CONFIRM_PROPER]), name

    def test_repeated_cells_count_once(self, backends):
        grid = random_solution_grid(SHAPE_4X4, random.Random(3))
        proper = greedy_proper(grid, random.Random(4))
        k = len(proper)
        cells = proper + [proper[0]] * k  # the second candidate is one clue
        for name, kernels in backends.items():
            verdicts = kernels.confirm(*confirm_args(grid, k, cells))
            assert verdicts == bytes([CONFIRM_PROPER, CONFIRM_AMBIGUOUS]), name

    def test_no_candidates(self, backends):
        grid = random_solution_grid(SHAPE_4X4, random.Random(5))
        for kernels in backends.values():
            assert kernels.confirm(*confirm_args(grid, 4, [])) == b""

    def test_bad_arguments_raise(self, backends):
        grid = random_solution_grid(SHAPE_4X4, random.Random(6))
        digits = bytes(grid.digits)
        for name, kernels in backends.items():
            for args in (
                (2, 2, digits, 1, bytes([16])),  # cell outside the board
                (2, 2, digits, 2, bytes([0, 1, 200, 3])),
                (2, 2, digits, 2, bytes([0, 1, 2])),  # not whole candidates
                (2, 2, digits, 0, b""),
                (2, 2, bytes([5]) + digits[1:], 1, bytes([0])),  # digit > n
                (2, 2, digits[:-1], 1, bytes([0])),
            ):
                with pytest.raises(ValueError):
                    kernels.confirm(*args)

    def test_invalid_grid_is_refused(self, backends):
        """A Latin square that breaks a box is no grid, so `confirm`
        refuses it whole, even with no candidate or with its full clue set
        (whose only completion is itself)."""
        for name, kernels in backends.items():
            for k, cells in ((16, bytes(range(16))), (4, b"")):
                with pytest.raises(ValueError):
                    kernels.confirm(2, 2, bytes(LATIN_4X4), k, cells)

    @pytest.mark.parametrize("corruption", ["invalid", "off_clues", "equal"])
    def test_corrupted_second_completion_is_unsafe(self, monkeypatch, corruption):
        """The witness is the second completion, the one other than the
        grid that the search returns; one that is invalid, misses the clues
        or equals the grid makes the verdict CONFIRM_UNSAFE."""
        grid = random_solution_grid(SHAPE_4X4, random.Random(7))
        k = 4
        cells = list(range(k))  # one row: many completions
        real = _pykernels._witness
        assert _pykernels.confirm(*confirm_args(grid, k, cells)) == bytes(
            [CONFIRM_AMBIGUOUS]
        )

        def corrupted(geo, clues, digits):
            found, reached = real(geo, clues, digits)
            found = list(found)
            if corruption == "invalid":
                found[15] = found[14]  # repeats a digit in the last row
            elif corruption == "off_clues":
                # a valid grid (digits relabelled) that misses the clues
                found = [d % 4 + 1 for d in found]
            else:
                found = list(digits)
            return tuple(found), reached

        monkeypatch.setattr(_pykernels, "_witness", corrupted)
        got = _pykernels.confirm(*confirm_args(grid, k, cells))
        assert got == bytes([CONFIRM_UNSAFE])

    def test_engine_batch_matches_the_reference(self, backends, monkeypatch):
        """The first engine batch of a 6x6 search at k=9: native verdicts
        equal the reference's byte for byte.  Most of its ambiguous
        candidates miss the cells where an earlier searched candidate's
        witness differs from the grid, which is what lets the native
        `confirm` settle them on that witness instead of searching."""
        if "native" not in backends:
            pytest.skip("single backend")
        grid = random_solution_grid(SHAPE_6X6, random.Random(61))
        k = 9
        batches = []

        def first_batch(box_rows, box_cols, digits, k, cells):
            batches.append(bytes(cells))
            raise Stop

        monkeypatch.setattr(checker, "kernels", SimpleNamespace(confirm=first_batch))
        with pytest.raises(Stop):
            checker.search_grid(grid, k)
        batch = batches[0]
        assert len(batch) == hitting.EMIT_BATCH * k
        verdicts = backends["native"].confirm(*confirm_args(grid, k, batch))
        assert verdicts == _pykernels.confirm(*confirm_args(grid, k, batch))

        geo = _pykernels._geometry(2, 3)
        digits = grid.digits
        diffs, settled = [], 0
        ambiguous = verdicts.count(CONFIRM_AMBIGUOUS)
        for i in range(len(verdicts)):
            if verdicts[i] != CONFIRM_AMBIGUOUS:
                continue
            cand = batch[i * k : (i + 1) * k]
            mask = sum(1 << c for c in cand)
            if any(not d & mask for d in diffs):
                settled += 1
                continue
            found, _reached = _pykernels._witness(geo, clue_cells(grid, mask), digits)
            diffs.append(sum(1 << c for c, d in enumerate(found) if d != digits[c]))
        assert ambiguous > len(verdicts) // 2
        assert settled > ambiguous // 2

    @pytest.mark.parametrize(
        "shape, low", [(SHAPE_9X9, 64), (GridShape(3, 4), 64), (GridShape(4, 3), 128)]
    )
    def test_difference_in_high_cells(self, backends, shape, low):
        """A leaves out a swappable rectangle whose cells all lie at `low`
        and above, so its witness differs from the grid there only.  B
        leaves out four cells of distinct rows outside the rectangle: it is
        proper, and it meets that difference only at cells >= low.  A memo
        test that read fewer mask words would take B for ambiguous.  On
        GridShape(3, 4) no unavoidable set lies wholly in cells >= 128 (the
        last two rows meet them in one box), so GridShape(4, 3) covers the
        third word."""
        grid, rect = rectangle_in_last_rows(shape, random.Random(8))
        assert min(rect) >= low
        n, ncells = shape.side, shape.cell_count
        seen, removed = set(), []
        for c in range(ncells):
            r, col = divmod(c, n)
            box = (r // shape.box_rows, col // shape.box_cols)
            keys = {("d", grid.digits[c]), ("r", r), ("c", col), ("b", box)}
            if c not in rect and not keys & seen and len(removed) < 4:
                removed.append(c)
                seen |= keys
        a = [c for c in range(ncells) if c not in rect]
        b = [c for c in range(ncells) if c not in removed]
        for name, kernels in backends.items():
            verdicts = kernels.confirm(*confirm_args(grid, ncells - 4, a + b))
            assert verdicts == bytes([CONFIRM_AMBIGUOUS, CONFIRM_PROPER]), name


@st.composite
def wide_clique_inputs(draw):
    """A family of 1-4-cell masks over an 81- or 128-cell universe, with a
    clique degree 2-6, a start from degree - 1 to past the family and a cap
    of 1-50.  The cells come from a small pool with at least two cells at
    64 and above, so that masks often meet only in their high word."""
    universe = draw(st.sampled_from((81, 128)))
    pool = draw(st.lists(st.integers(64, universe - 1), min_size=2, max_size=8, unique=True))
    pool += draw(st.lists(st.integers(0, 63), max_size=8, unique=True))
    cell_sets = draw(
        st.lists(st.sets(st.sampled_from(pool), min_size=1, max_size=4), max_size=12)
    )
    masks = [sum(1 << c for c in cells) for cells in cell_sets]
    degree = draw(st.integers(2, 6))
    start = draw(st.integers(degree - 1, max(degree - 1, len(masks) + 1)))
    cap = draw(st.integers(1, 50))
    return masks, degree, start, cap


class TestCliques:
    @settings(max_examples=300, deadline=None)
    @given(wide_clique_inputs())
    def test_parity_with_the_oracle(self, backends, inputs):
        masks, degree, start, cap = inputs
        expected = tuple(oracle_cliques(masks, degree, start, cap))
        got = {
            name: kernels.cliques(masks, degree, start, cap)
            for name, kernels in backends.items()
        }
        for name, cliques in got.items():
            assert cliques == expected, name
        assert len(set(got.values())) == 1

    def test_cap_reached_mid_scan(self, backends):
        """Ten disjoint high cells give C(10, 3) = 120 triples from start
        2; a cap of 7 stops the scan inside its second level-0 index."""
        masks = [1 << (70 + i) for i in range(10)]
        expected = tuple(oracle_cliques(masks, 3, 2, 7))
        assert len(oracle_cliques(masks, 3, 2, 1000)) == 120
        for name, kernels in backends.items():
            assert kernels.cliques(masks, 3, 2, 7) == expected, name
            assert len(kernels.cliques(masks, 3, 2, 1000)) == 120, name

    def test_start_past_the_family_builds_none(self, backends):
        masks = [1 << 80, 1 << 3, 1 << 100]
        for name, kernels in backends.items():
            assert kernels.cliques(masks, 2, 3, 10) == (), name
            assert kernels.cliques(masks, 2, 9, 10) == (), name
            assert kernels.cliques([], 2, 1, 10) == (), name

    @pytest.mark.parametrize(
        "masks, degree, start, cap",
        [
            ([1, 2, 4], 1, 1, 5),  # degree below 2
            ([1, 2, 4], 3, 1, 5),  # start below degree - 1
            ([1, 2, 4], 2, 1, 0),  # cap below 1
            ([1, -2, 4], 2, 1, 5),  # negative mask
            ([1, 1 << 128, 4], 2, 1, 5),  # a cell past 127
            ([1, 2, 1 << 130], 2, 9, 5),  # refused even when nothing is scanned
        ],
    )
    def test_bad_arguments_raise(self, backends, masks, degree, start, cap):
        for name, kernels in backends.items():
            with pytest.raises(ValueError):
                kernels.cliques(masks, degree, start, cap)


class TestBenchmarks:
    def test_native_solver_is_faster(self, backends):
        """Puzzles checked per second, limit 2, over 25-clue random 9x9
        puzzles: the compiled solver must beat the pure-Python one."""
        if "native" not in backends:
            pytest.skip("single backend")
        rng = random.Random(1)
        grids = [random_solution_grid(SHAPE_9X9, rng) for _ in range(8)]
        puzzles = [
            clue_cells(grid, sum(1 << c for c in rng.sample(range(81), 25)))
            for grid in grids
            for _ in range(16)
        ]
        rates = {}
        for name, kern in backends.items():
            count = 0
            started = time.perf_counter()
            while time.perf_counter() - started < 0.3:
                kern.solve_limit(3, 3, puzzles[count % len(puzzles)], 2)
                count += 1
            rates[name] = count / (time.perf_counter() - started)
        assert rates["native"] > rates["python"]

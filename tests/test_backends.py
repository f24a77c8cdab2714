import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import clue_cells, random_solution_grid
from minclue.backend import backend_name
from minclue.grid import SHAPE_4X4, SHAPE_9X9
from minclue.hitting import EngineConfig, HittingInstance, resolve_plan

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
        instance = HittingInstance.from_sets(20, 2, {1: [{0, 1, 2}, {3, 4, 5}]})
        plan = resolve_plan(instance, EngineConfig())
        for name, kern in backends.items():
            calls = []
            with pytest.raises(Stop):
                kern.run_hitting(*plan, raise_on_third(calls))
            assert len(calls) == 3, name
            # the engine still runs normally afterwards
            assert kern.run_hitting(*plan, lambda cells: None)["emitted"] == 9

    def test_diff_collector_error_reaches_the_caller(self, backends, monkeypatch):
        if "native" not in backends:
            pytest.skip("single backend")
        native = backends["native"]
        grid = random_solution_grid(SHAPE_9X9, random.Random(3))
        blank = 0
        for c, d in enumerate(grid.digits):
            if d in (1, 2, 3):
                blank |= 1 << c
        args = (3, 3, grid.digits, blank, 12, 8)
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


class TestBenchmarks:
    def test_solver_benchmark_runs(self, backends):
        from minclue.bench import bench_solver

        rates = bench_solver(seconds=0.2)
        assert set(rates) == set(backends)
        assert all(rate > 0 for rate in rates.values())

    def test_hitting_benchmark_runs(self, backends):
        from minclue.bench import bench_hitting

        times = bench_hitting()
        assert set(times) == set(backends)
        assert all(t >= 0 for t in times.values())

    def test_native_solver_is_faster(self, backends):
        if "native" not in backends:
            pytest.skip("single backend")
        from minclue.bench import bench_solver

        rates = bench_solver(seconds=0.3)
        assert rates["native"] > rates["python"]

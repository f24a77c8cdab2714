"""Benchmarks comparing the compiled kernels with the pure-Python
fallback on the three hot paths: solving, unavoidable-set finding, and
hitting-set enumeration."""

from __future__ import annotations

import random
import time
from typing import Dict

from .backend import available_backends
from .checker import CONFIRM_BATCH
from .grid import SHAPE_9X9, Grid, GridShape
from .hitting import EngineConfig, HittingInstance, resolve_plan


def random_solution_grid(shape: GridShape, rng: random.Random) -> Grid:
    """A pseudo-random completed grid: random first row, then the first
    completion the solver finds."""
    from .solver import count_completions

    n = shape.side
    row0 = list(range(1, n + 1))
    rng.shuffle(row0)
    cells = tuple(row0) + (0,) * (shape.cell_count - n)
    return count_completions(shape, cells, 1).completions[0]


def _puzzle_cells(grid: Grid, clue_count: int, rng: random.Random) -> tuple:
    clues = set(rng.sample(range(grid.shape.cell_count), clue_count))
    return tuple(d if c in clues else 0 for c, d in enumerate(grid.digits))


def bench_solver(seconds: float = 2.0, seed: int = 1) -> Dict[str, float]:
    """Puzzles checked per second (25-clue random 9x9, limit 2)."""
    rng = random.Random(seed)
    grids = [random_solution_grid(SHAPE_9X9, rng) for _ in range(8)]
    puzzles = [_puzzle_cells(g, 25, rng) for g in grids for _ in range(16)]
    rates = {}
    for name, kern in available_backends().items():
        count = 0
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            kern.solve_limit(3, 3, puzzles[count % len(puzzles)], 2)
            count += 1
        rates[name] = count / (time.perf_counter() - started)
    return rates


def bench_finder(seed: int = 1) -> Dict[str, float]:
    """Seconds per 9x9 grid to find all minimal sets of size <= 12.

    The pure-Python backend is sampled on a single cheap digit pair and
    scaled, because a full run takes minutes there.
    """
    from itertools import combinations

    rng = random.Random(seed)
    grid = random_solution_grid(SHAPE_9X9, rng)
    cells_of_digit = [0] * 10
    for c, d in enumerate(grid.digits):
        cells_of_digit[d] |= 1 << c
    times = {}
    for name, kern in available_backends().items():
        started = time.perf_counter()
        if name == "native":
            for dcount in range(2, 7):
                per_digit = 12 - 2 * (dcount - 1)
                for dset in combinations(range(1, 10), dcount):
                    blank = 0
                    for d in dset:
                        blank |= cells_of_digit[d]
                    kern.enumerate_diffs(3, 3, grid.digits, blank, 12, per_digit)
            times[name] = time.perf_counter() - started
        else:
            for dset in combinations(range(1, 10), 2):
                blank = cells_of_digit[dset[0]] | cells_of_digit[dset[1]]
                kern.enumerate_diffs(3, 3, grid.digits, blank, 12, 10)
            times[name] = time.perf_counter() - started
    return times


def bench_hitting(seed: int = 1) -> Dict[str, float]:
    """Seconds to run a mid-size synthetic enumeration (universe 81,
    k = 10, 120 degree-1 sets plus degree-2 cliques)."""
    rng = random.Random(seed)
    deg1 = []
    for _ in range(120):
        size = rng.randint(4, 12)
        mask = 0
        for c in rng.sample(range(81), size):
            mask |= 1 << c
        deg1.append(mask)
    deg1.sort(key=lambda m: m.bit_count())
    deg2 = []
    for _ in range(2000):
        a, b = rng.sample(deg1, 2)
        if not a & b:
            deg2.append(a | b)
    plan = resolve_plan(
        HittingInstance(81, 10, {1: deg1, 2: deg2}),
        EngineConfig(
            enable_effective_size=False, consolidation={1: (5, 64), 2: (4, 256)}
        ),
    )
    times = {}
    for name, kern in available_backends().items():
        started = time.perf_counter()
        kern.run_hitting(*plan, lambda batch: None, CONFIRM_BATCH)
        times[name] = time.perf_counter() - started
    return times


def run_all(report=print) -> None:
    report(f"available backends: {', '.join(available_backends())}")
    rates = bench_solver()
    for name, rate in sorted(rates.items()):
        report(f"solver      {name:>7}: {rate:10.0f} puzzles/s")
    times = bench_hitting()
    for name, t in sorted(times.items()):
        report(f"hitting     {name:>7}: {t * 1000:10.1f} ms/run")
    times = bench_finder()
    for name, t in sorted(times.items()):
        suffix = "" if name == "native" else "  (2-digit pass only)"
        report(f"finder      {name:>7}: {t:10.2f} s{suffix}")

"""Per-grid search pipeline: build the unavoidable-set families, enumerate
candidate k-clue puzzles as hitting sets, and confirm properness with the
kernels' batch entry `confirm`.

The engine hands its sink `hitting.EMIT_BATCH` candidates per call (the
rest in one last call), already packed as bytes; the sink passes each
batch straight to one `confirm` call.  `confirm` searches each candidate
for a completion other than the grid: one that passes its double-check
(valid, extends the clues, differs from the grid) makes the candidate
ambiguous, and an exhausted search that reached only the grid makes it
proper.  The cells where such a completion differs from the grid form an
unavoidable set, so the native `confirm` also calls a later candidate of
the same call ambiguous without a search when it misses one of the last
64 such sets and that completion holds the grid's digits at its clues;
the reference searches every candidate.
Proper puzzles are kept in emission order.  A candidate whose verdict the
double-check rejects is a safety failure: it is counted, never reported as
proper, and re-run through `count_completions` and
`verify_two_completions` for the logged diagnosis.

Correctness does not depend on how many unavoidable sets are used: any
subfamily yields a superset of candidates and the solver keeps exactly the
proper ones.  The family sizes, clique degrees and caps and the engine's
consolidation and selection settings only steer how much work the
enumeration does; `baseline_config` sets them to plain backtracking, the
control the speed-ups are tested against.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from ._pykernels import CONFIRM_PROPER, CONFIRM_UNSAFE
from .backend import kernels
from .errors import GridFormatError, InconsistentCluesError
from .grid import CellSet, Grid, GridShape, parse_grid
from .hitting import (
    EngineConfig,
    HittingInstance,
    SelectionSchedule,
    enumerate_hitting_sets,
)
from .solver import count_completions, verify_two_completions
from .unavoidable import (
    build_cliques,
    default_clique_start,
    find_minimal_unavoidable,
    recheck_family,
)

logger = logging.getLogger(__name__)

CHECKER_VERSION = "1"

_DEFAULT_MAX_SET_SIZE = {16: 8, 36: 10, 81: 12}
DEFAULT_CLIQUE_CAPS = {2: 8192, 3: 16384, 4: 32768, 5: 32768, 6: 16384}


@dataclass(frozen=True)
class SearchConfig:
    """Tunables of the per-grid search; all caps are configurable, the
    defaults target 9x9 with k=16."""

    max_set_size: Optional[int] = None  # None: 8 / 10 / 12 by shape
    family_cap: int = 384
    clique_degrees: Tuple[int, ...] = (2, 3, 4, 5)
    clique_caps: Dict[int, int] = field(default_factory=dict)
    engine: EngineConfig = EngineConfig()

    def __post_init__(self) -> None:
        # a degree without a cap of its own keeps the default cap
        object.__setattr__(
            self, "clique_caps", {**DEFAULT_CLIQUE_CAPS, **self.clique_caps}
        )
        for degree in self.clique_degrees:
            if degree not in self.clique_caps:
                raise ValueError(
                    f"clique degree {degree} has no default cap; "
                    f"give one with clique_cap.{degree}"
                )
        # values no grid can search with: build_cliques refuses such caps,
        # a family cap below 1 keeps no unavoidable set, and no unavoidable
        # set has fewer than 4 cells, so a smaller max_set_size finds none
        # and the engine would emit every k-subset of the board
        if self.max_set_size is not None and self.max_set_size < 4:
            raise ValueError("max_set_size must be at least 4")
        if self.family_cap < 1:
            raise ValueError("family_cap must be at least 1")
        for degree, cap in self.clique_caps.items():
            if cap < 1:
                raise ValueError(f"clique_cap.{degree} must be at least 1")

    def resolved_max_set_size(self, shape: GridShape) -> int:
        if self.max_set_size is not None:
            return self.max_set_size
        return _DEFAULT_MAX_SET_SIZE.get(shape.cell_count, 12)


def baseline_config() -> SearchConfig:
    """The unimproved engine: the dead-cell rule only.  No cliques, so no
    degree checks; no consolidation; first-unhit selection at every level
    (the config-file form is `clique_degrees=`, `consolidate.D=off` for
    each default degree D and `selection=0:0:0`)."""
    return SearchConfig(
        clique_degrees=(),
        engine=EngineConfig(
            consolidation={}, selection=SelectionSchedule(0, 0, 0)
        ),
    )


@dataclass(frozen=True)
class GridSearchReport:
    grid: str
    k: int
    minimal_sets_found: int
    candidates: int
    proper_found: int
    proper_puzzles: Tuple[CellSet, ...]
    elapsed_ms: int
    safety_failures: int = 0


@dataclass(frozen=True)
class GridSearchError:
    """Per-line failure record for stream processing."""

    line_no: int
    message: str


ReportOrError = Union[GridSearchReport, GridSearchError]


def search_grid(
    grid: Grid, k: int, config: SearchConfig = SearchConfig()
) -> GridSearchReport:
    """Exhaustively search one grid for proper k-clue puzzles."""
    shape = grid.shape
    if not 1 <= k <= shape.cell_count:
        raise ValueError(f"k must be in 1..{shape.cell_count}")
    started = time.perf_counter()
    safety_failures = 0

    family = find_minimal_unavoidable(grid, config.resolved_max_set_size(shape))
    safety_failures += recheck_family(grid, family)
    if safety_failures:
        logger.warning(
            "grid %s: %d unavoidable sets failed the solver recheck",
            grid,
            safety_failures,
        )
    minimal_found = len(family)
    working = family.truncated(config.family_cap)
    if minimal_found > config.family_cap:
        logger.info(
            "grid %s: keeping the %d smallest of %d minimal sets",
            grid,
            config.family_cap,
            minimal_found,
        )

    families = {1: working.masks}
    for degree in config.clique_degrees:
        if degree >= 2 and degree <= k:
            cliques = build_cliques(
                working,
                degree,
                default_clique_start(k, degree),
                config.clique_caps[degree],
            )
            if len(cliques):
                families[degree] = cliques.masks

    instance = HittingInstance(shape.cell_count, k, families)

    digits = bytes(grid.digits)
    proper: List[CellSet] = []
    candidates = 0

    def confirm_batch(batch: bytes) -> None:
        nonlocal candidates, safety_failures
        verdicts = kernels.confirm(shape.box_rows, shape.box_cols, digits, k, batch)
        candidates += len(verdicts)
        i = verdicts.find(CONFIRM_PROPER)
        while i >= 0:
            mask = 0
            for c in batch[i * k : (i + 1) * k]:
                mask |= 1 << c
            proper.append(CellSet(shape, mask))
            i = verdicts.find(CONFIRM_PROPER, i + 1)
        i = verdicts.find(CONFIRM_UNSAFE)
        while i >= 0:
            cells = batch[i * k : (i + 1) * k]
            safety_failures += 1
            logger.error(
                "grid %s: candidate %s failed confirmation: %s",
                grid,
                tuple(cells),
                _diagnose(grid, cells),
            )
            i = verdicts.find(CONFIRM_UNSAFE, i + 1)

    enumerate_hitting_sets(instance, config.engine, confirm_batch)

    elapsed_ms = int((time.perf_counter() - started) * 1000)
    return GridSearchReport(
        grid=str(grid),
        k=k,
        minimal_sets_found=minimal_found,
        candidates=candidates,
        proper_found=len(proper),
        proper_puzzles=tuple(proper),
        elapsed_ms=elapsed_ms,
        safety_failures=safety_failures,
    )


def _diagnose(grid: Grid, cells) -> str:
    """Why a candidate failed confirmation, from a re-run through the
    solver and its Python double-check."""
    clues = set(cells)
    puzzle = [d if c in clues else 0 for c, d in enumerate(grid.digits)]
    try:
        outcome = count_completions(grid.shape, puzzle, 2)
    except InconsistentCluesError:
        return "its clues repeat a digit inside a unit"
    if outcome.count == 1:
        if outcome.completions[0].digits != grid.digits:
            return "its unique completion differs from the grid"
    elif not verify_two_completions(grid.shape, puzzle, outcome):
        return f"the solver double-check failed ({outcome.count} completions)"
    return "a re-run through the solver found nothing wrong"


def search_catalog(
    lines: Iterable[str],
    k: int,
    config: SearchConfig = SearchConfig(),
    shape: Optional[GridShape] = None,
) -> Iterator[ReportOrError]:
    """Yields one report per non-blank input line, in input order, each as
    its grid is searched; a malformed line yields an error record carrying
    its index in `lines`, and processing continues."""
    for line_no, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            grid = parse_grid(line, shape)
        except GridFormatError as exc:
            yield GridSearchError(line_no, str(exc))
        else:
            yield search_grid(grid, k, config)


# ---------------------------------------------------------------------------
# report text format

# block line carrying a report's safety-failure count; indented like the
# puzzle lines, so a farm output keeps it inside its report block
_SAFETY_TAG = "\t!safety "

def format_report(report: ReportOrError) -> str:
    """Tab-separated main line, then `\t!safety N` when the search had
    N > 0 safety failures, then one indented line per proper puzzle."""
    if isinstance(report, GridSearchError):
        return f"!error\t{report.line_no}\t{report.message}"
    lines = [
        f"{report.grid}\t{report.k}\t{report.minimal_sets_found}"
        f"\t{report.candidates}\t{report.proper_found}\t{report.elapsed_ms}"
    ]
    if report.safety_failures:
        lines.append(f"{_SAFETY_TAG}{report.safety_failures}")
    for puzzle in report.proper_puzzles:
        lines.append("\t" + ",".join(str(c) for c in puzzle))
    return "\n".join(lines)


def parse_report(block: str) -> ReportOrError:
    lines = block.splitlines()
    if not lines:
        raise ValueError("empty report block")
    if lines[0].startswith("!error\t"):
        _tag, line_no, message = lines[0].split("\t", 2)
        return GridSearchError(int(line_no), message)
    head = lines[0].split("\t")
    if len(head) != 6:
        raise ValueError(f"bad report line {lines[0]!r}")
    grid_text, k, minimal, cand, proper, ms = head
    grid = parse_grid(grid_text)
    puzzles = []
    safety_failures = 0
    for extra in lines[1:]:
        if extra.startswith(_SAFETY_TAG):
            safety_failures = int(extra[len(_SAFETY_TAG) :])
            continue
        cells = [int(tok) for tok in extra.strip().split(",") if tok]
        puzzles.append(CellSet.from_cells(grid.shape, cells))
    return GridSearchReport(
        grid=grid_text,
        k=int(k),
        minimal_sets_found=int(minimal),
        candidates=int(cand),
        proper_found=int(proper),
        proper_puzzles=tuple(puzzles),
        elapsed_ms=int(ms),
        safety_failures=safety_failures,
    )

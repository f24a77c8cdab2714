"""Command-line entry point.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal
safety-check failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .bitrows import bits_ascending
from .checker import GridSearchError, SearchConfig, format_report, search_catalog
from .config import config_header_lines, load_config_file
from .errors import (
    BudgetExceededError,
    CheckpointMismatchError,
    ConflictingRecordsError,
    GridFormatError,
    InconsistentCluesError,
)
from .grid import GridShape, format_grid, parse_clue_cells, parse_grid
from .hitting import (
    EngineConfig,
    enumerate_hitting_sets,
    format_hitting_set,
    parse_instance,
    per_candidate,
)
from .solver import count_completions
from .symmetry import catalog, minlex, verify_scs_bracket
from .taskfarm import merge_outputs, run_farm
from .unavoidable import (
    build_cliques,
    default_clique_start,
    find_minimal_unavoidable,
)

DATA_ERRORS = (
    GridFormatError,
    InconsistentCluesError,
    BudgetExceededError,
    CheckpointMismatchError,
    ConflictingRecordsError,
    ValueError,
    OSError,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would sys.exit(2)
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _raw_lines(path: Optional[str]):
    if path is None or path == "-":
        return sys.stdin
    return Path(path).read_text().splitlines()


def _input_lines(path: Optional[str]):
    for line in _raw_lines(path):
        if line.strip():
            yield line.strip()


def _shape_arg(value: Optional[str]) -> Optional[GridShape]:
    return None if value is None else GridShape.parse(value)


def build_parser() -> _Parser:
    parser = _Parser(prog="minclue", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("solve", help="count completions of puzzle lines")
    p.add_argument("file", nargs="?", help="puzzle lines; default stdin")
    p.add_argument("--shape", help="box shape like 3x3 (default: infer)")
    p.add_argument("--limit", type=int, default=2)

    p = sub.add_parser("canon", help="minlex-canonicalize grid lines")
    p.add_argument("file", nargs="?")
    p.add_argument("--shape")

    p = sub.add_parser("catalog", help="emit all class representatives")
    p.add_argument("--shape", required=True, help="4x4 or 6x6")

    p = sub.add_parser("unavoidable", help="minimal unavoidable sets per grid")
    p.add_argument("file", nargs="?")
    p.add_argument("--shape")
    p.add_argument("--max-size", type=int, default=12)

    p = sub.add_parser("cliques", help="degree-d clique unions per grid")
    p.add_argument("file", nargs="?")
    p.add_argument("--shape")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--max-size", type=int, default=12)
    p.add_argument("--k", type=int, default=16, help="target clue count")
    p.add_argument("--start", type=int)
    p.add_argument("--cap", type=int, default=32768)

    p = sub.add_parser("hitset", help="enumerate hitting sets of an instance file")
    p.add_argument("file", nargs="?")

    p = sub.add_parser("search", help="search grids for proper k-clue puzzles")
    p.add_argument("file", nargs="?")
    p.add_argument("--shape")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--config", help="key=value configuration file")

    p = sub.add_parser("farm", help="checkpointed multi-worker catalogue run")
    p.add_argument("catalogue")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--batch", type=int, default=16)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--time-budget", type=float)
    p.add_argument("--config")
    p.add_argument("--merge", action="store_true",
                   help="print merged reports after the run")

    p = sub.add_parser("verify-scs", help="check the completion-count bracket")
    p.add_argument("n", type=int)
    p.add_argument("total", type=int)
    p.add_argument("claimed", type=int)

    return parser


def cmd_solve(args) -> int:
    shape = _shape_arg(args.shape)
    status = 0
    for line in _input_lines(args.file):
        try:
            line_shape, cells = parse_clue_cells(line, shape)
            outcome = count_completions(line_shape, cells, args.limit)
        except (GridFormatError, InconsistentCluesError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            status = 2
            continue
        fields = [str(outcome.count)]
        fields.extend(format_grid(g) for g in outcome.completions)
        print("\t".join(fields))
    return status


def cmd_canon(args) -> int:
    shape = _shape_arg(args.shape)
    for line in _input_lines(args.file):
        print(format_grid(minlex(parse_grid(line, shape)).grid))
    return 0


def cmd_catalog(args) -> int:
    shape = GridShape.parse(args.shape)
    reps: List = []
    total = catalog(shape, reps.append)
    print(f"# total_completions {total}")
    for rep in reps:
        print(format_grid(rep))
    return 0


def cmd_unavoidable(args) -> int:
    shape = _shape_arg(args.shape)
    for line in _input_lines(args.file):
        grid = parse_grid(line, shape)
        family = find_minimal_unavoidable(grid, args.max_size)
        print(f"# grid {format_grid(grid)} sets {len(family)}")
        for mask in family.masks:
            print(",".join(map(str, bits_ascending(mask))))
    return 0


def cmd_cliques(args) -> int:
    shape = _shape_arg(args.shape)
    for line in _input_lines(args.file):
        grid = parse_grid(line, shape)
        family = find_minimal_unavoidable(grid, args.max_size)
        start = args.start
        if start is None:
            start = default_clique_start(args.k, args.degree)
        cliques = build_cliques(family, args.degree, start, args.cap)
        print(f"# grid {format_grid(grid)} cliques {len(cliques)}")
        for mask in cliques.masks:
            cells = ",".join(map(str, bits_ascending(mask)))
            print(f"{args.degree}\t{cells}")
    return 0


def cmd_hitset(args) -> int:
    text = (
        sys.stdin.read()
        if args.file in (None, "-")
        else Path(args.file).read_text()
    )
    instance = parse_instance(text)
    enumerate_hitting_sets(
        instance,
        EngineConfig(),
        per_candidate(instance.k, lambda cells: print(format_hitting_set(cells))),
    )
    return 0


def _load_search_config(path: Optional[str], k: int) -> SearchConfig:
    """The --config file's configuration; a k it pins must equal --k."""
    if path is None:
        return SearchConfig()
    config, file_k = load_config_file(path)
    if file_k is not None and file_k != k:
        raise ValueError(f"{path} sets k={file_k} but --k is {k}")
    return config


def cmd_search(args) -> int:
    shape = _shape_arg(args.shape)
    config = _load_search_config(args.config, args.k)
    for line in config_header_lines(config, args.k):
        print(line)
    status = 0
    for record in search_catalog(_raw_lines(args.file), args.k, config, shape):
        print(format_report(record))
        if isinstance(record, GridSearchError):
            status = max(status, 2)
        elif record.safety_failures:
            status = 3
    return status


def cmd_farm(args) -> int:
    config = _load_search_config(args.config, args.k)
    summary = run_farm(
        args.catalogue,
        args.k,
        workers=args.workers,
        batch_size=args.batch,
        checkpoint_path=args.checkpoint,
        output_path=args.out,
        time_budget=args.time_budget,
        config=config,
    )
    print(
        f"# batches {summary.batches_total} done_before {summary.done_before}"
        f" recorded {summary.recorded_now} pending {summary.pending_after}"
        f" elapsed {summary.elapsed_s:.1f}s"
    )
    status = 3 if summary.safety_failures else 2 if summary.errors else 0
    if args.merge:
        for report in merge_outputs(args.out):
            print(format_report(report))
            if isinstance(report, GridSearchError):
                status = max(status, 2)
            elif report.safety_failures:
                status = 3
    return status


def cmd_verify_scs(args) -> int:
    print("true" if verify_scs_bracket(args.n, args.total, args.claimed) else "false")
    return 0


_COMMANDS = {
    "solve": cmd_solve,
    "canon": cmd_canon,
    "catalog": cmd_catalog,
    "unavoidable": cmd_unavoidable,
    "cliques": cmd_cliques,
    "hitset": cmd_hitset,
    "search": cmd_search,
    "farm": cmd_farm,
    "verify-scs": cmd_verify_scs,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError(parser.format_usage())
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

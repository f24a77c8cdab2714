"""Correctness gate and counter-drift check.

The set of proper k-clue puzzles of a grid is fixed by the grid and k: no
correct change to the unavoidable-set families, the clique caps or the
engine can alter it.  `reference.json` stores, per workload and base grid,
the number of proper puzzles and a sha256 of their sorted clue masks.  A
search result is checked against the reference of its base grid; digit
relabelling does not move clue masks.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from grids import Input

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def mask_digest(masks: Iterable[int]) -> str:
    text = "\n".join(str(m) for m in sorted(masks))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def load_reference(workload: str) -> dict:
    with open(REFERENCE_PATH, encoding="ascii") as fh:
        return json.load(fh)[workload]


def check_report(report, inp: Input, reference: dict) -> Optional[str]:
    """None when the report is correct for `inp`, else the reason."""
    if report.grid != inp.line:
        return f"report is for grid {report.grid}, expected {inp.line}"
    if report.safety_failures:
        return f"{report.safety_failures} safety-check failures"
    if report.proper_found != len(report.proper_puzzles):
        return "proper count disagrees with the puzzles listed"
    want_count, want_digest = reference["proper"][inp.base]
    masks = [p.mask for p in report.proper_puzzles]
    if len(masks) != want_count or mask_digest(masks) != want_digest:
        return (
            f"proper-puzzle set differs from the reference of base grid "
            f"{inp.base} ({len(masks)} puzzles, expected {want_count})"
        )
    return None


def count_drift(before: Dict[str, int], after: Dict[str, int]) -> List[str]:
    """Count metrics that differ between two runs of the same inputs."""
    return [
        f"{name}: {before.get(name)} -> {after.get(name)}"
        for name in sorted(set(before) | set(after))
        if before.get(name) != after.get(name)
    ]

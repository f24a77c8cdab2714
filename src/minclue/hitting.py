"""Hitting-set enumeration over degree-stratified set families.

The engine walks a search tree drawing one cell per level from a not-yet-
hit degree-1 set, tracking hits with per-degree bit rows.  Higher-degree
families only prune: a degree-d set still unhit when fewer than d draws
remain kills its branch.  The dead-cell rule (cells of the drawn-from set
below the chosen cell are excluded from the subtree) makes every hitting
set come out exactly once.  The engine hands its sink the hitting sets in
batches of EMIT_BATCH whole sets, as bytes; `per_candidate` adapts a
callable that takes one set at a time.

Levels below `full_through` draw from the unhit degree-1 set of fewest
live cells over all unhit sets; a set with no live cell cuts the branch.
Deeper levels draw from the first unhit set.

Each of the speed-ups over plain backtracking is turned off by its own
setting: the degree checks by an instance with no family above degree 1,
consolidation by `EngineConfig(consolidation={})`, and effective-size
selection by `EngineConfig(full_through=0)`, so that every level draws
from the first unhit set.  `checker.baseline_config` sets all three.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Tuple

from .backend import kernels
from ._pykernels import INT_MAX

MAX_UNIVERSE = 128
# hitting sets per sink call
EMIT_BATCH = 4096


@dataclass(frozen=True)
class HittingInstance:
    """Universe size, target cardinality k, and per-degree set families.

    The degree-1 list is kept sorted ascending by size (stable, so equal
    sizes preserve input order); other degrees keep their given order.
    """

    universe_size: int
    k: int
    families: Mapping[int, Tuple[int, ...]]  # degree -> cell masks

    def __post_init__(self) -> None:
        if not 1 <= self.universe_size <= MAX_UNIVERSE:
            raise ValueError(f"universe size must be in 1..{MAX_UNIVERSE}")
        if self.k < 1 or self.k > self.universe_size:
            raise ValueError("k must be in 1..universe_size")
        limit = 1 << self.universe_size
        clean = {}
        for degree, masks in sorted(self.families.items()):
            if degree < 1:
                raise ValueError("degrees start at 1")
            masks = tuple(masks)
            if any(m < 0 or m >= limit for m in masks):
                raise ValueError("set mask outside the universe")
            if degree == 1:
                masks = tuple(sorted(masks, key=lambda m: m.bit_count()))
            clean[degree] = masks
        object.__setattr__(self, "families", clean)

    def degree_one(self) -> Tuple[int, ...]:
        return self.families.get(1, ())


DEFAULT_CONSOLIDATION: Mapping[int, Tuple[int, int]] = {
    1: (7, 128),
    2: (5, 1536),
    3: (5, 1536),
    4: (5, 1536),
    5: (5, 1536),
    6: (5, 1536),
}


@dataclass(frozen=True)
class EngineConfig:
    """Consolidation (trigger level, cap) per degree, {} for none, and
    full_through, the number of levels that select by effective size (None
    for k - 6): the two keys of the configuration file that the engine
    reads.  The higher-degree checks need no setting: they follow from the
    instance's families above degree 1."""

    consolidation: Mapping[int, Tuple[int, int]] = field(
        default_factory=lambda: dict(DEFAULT_CONSOLIDATION)
    )
    full_through: Optional[int] = None

    def __post_init__(self) -> None:
        if any(degree < 1 for degree in self.consolidation):
            raise ValueError("consolidate.D needs D >= 1")
        for trigger, cap in self.consolidation.values():
            if not (1 <= trigger <= INT_MAX and 1 <= cap <= INT_MAX):
                raise ValueError(
                    f"consolidation triggers and caps must be in 1..{INT_MAX}"
                )


def check_level(k: int, degree: int) -> int:
    """Level (clues drawn) at which a degree-d family proves a branch dead:
    with k - (k - d + 1) = d - 1 draws left, an unhit set cannot reach d."""
    return max(k - degree + 1, 0)


def resolve_plan(instance: HittingInstance, config: EngineConfig):
    """Flatten instance + config into the positional kernel arguments;
    the last is full_through, clamped to 0..k.  A consolidation whose cap
    keeps the whole family is left out: it would only renumber the sets,
    and nothing reads their numbers."""
    k = instance.k
    degrees = sorted(instance.families)
    masks_by_degree = [list(instance.families[d]) for d in degrees]

    check_levels: Dict[int, int] = {}
    for d in degrees:
        if d >= 2 and instance.families[d]:
            check_levels[d] = check_level(k, d)

    consolidations: Dict[int, Tuple[int, int]] = {}
    for d, (trigger, cap) in config.consolidation.items():
        if trigger >= k or cap >= len(instance.families.get(d, ())):
            continue  # too late, or keeps every set (an empty family too)
        if d >= 2 and trigger >= check_level(k, d):
            continue  # the degree is checked once, earlier consolidation only
        consolidations[d] = (trigger, cap)

    full_through = k - 6 if config.full_through is None else config.full_through
    return (
        instance.universe_size,
        k,
        degrees,
        masks_by_degree,
        check_levels,
        consolidations,
        min(max(full_through, 0), k),
    )


def enumerate_hitting_sets(
    instance: HittingInstance,
    config: EngineConfig = EngineConfig(),
    sink: Optional[Callable[[bytes], None]] = None,
    stats: Optional[dict] = None,
) -> int:
    """Feed every k-subset hitting all degree-1 sets to `sink`, each
    exactly once, in a deterministic order; returns the number emitted.

    Each sink call receives one bytes object holding EMIT_BATCH whole
    sets, k ascending cell bytes each; the sets left at the end go in one
    last, shorter call.  The sink must not re-enter the engine.
    """
    if sink is None:
        sink = lambda batch: None
    run_stats = kernels.run_hitting(
        *resolve_plan(instance, config), sink, EMIT_BATCH
    )
    if stats is not None:
        stats.update(run_stats)
    return run_stats["emitted"]


def per_candidate(
    k: int, take: Callable[[Tuple[int, ...]], None]
) -> Callable[[bytes], None]:
    """A sink for `enumerate_hitting_sets` that splits each batch and
    hands `take` every k-cell set in it, in order, as an ascending tuple."""

    def sink(batch: bytes) -> None:
        for start in range(0, len(batch), k):
            take(tuple(batch[start : start + k]))

    return sink


# ---------------------------------------------------------------------------
# generic instance file format

def parse_instance(text: str) -> HittingInstance:
    """Line 1: `universe k`; then one set per line as `d: c1,c2,...`."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty instance")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("first line must be 'universe k'")
    universe, k = int(head[0]), int(head[1])
    families: Dict[int, list] = {}
    for ln in lines[1:]:
        if ":" not in ln:
            raise ValueError(f"bad set line {ln!r}")
        d_part, cells_part = ln.split(":", 1)
        degree = int(d_part)
        cells = [int(tok) for tok in cells_part.split(",") if tok.strip() != ""]
        mask = 0
        for c in cells:
            mask |= 1 << c
        families.setdefault(degree, []).append(mask)
    families.setdefault(1, [])
    return HittingInstance(universe, k, {d: tuple(v) for d, v in families.items()})


def format_hitting_set(cells: Tuple[int, ...]) -> str:
    return ",".join(str(c) for c in cells)

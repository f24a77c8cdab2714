"""Hitting-set enumeration over degree-stratified set families.

The engine walks a search tree drawing one cell per level from a not-yet-
hit degree-1 set, tracking hits with per-degree bit rows.  Higher-degree
families only prune: a degree-d set still unhit when fewer than d draws
remain kills its branch.  The dead-cell rule (cells of the drawn-from set
below the chosen cell are excluded from the subtree) makes every hitting
set come out exactly once.  The engine hands its sink the hitting sets in
batches of EMIT_BATCH whole sets, as bytes; `per_candidate` adapts a
callable that takes one set at a time.

At each level the engine draws from one rule with two bounds, a window
and a count: the unhit degree-1 set of fewest live cells among the unhit
slots below the window, looking at no more than count of them, or the
first unhit set when it looks at none.  A set with no live cell cuts the
branch.

Each of the speed-ups over plain backtracking is turned off by its own
setting: the degree checks by an instance with no family above degree 1,
consolidation by `EngineConfig(consolidation={})`, and effective-size
selection by `SelectionSchedule(0, 0, 0)`, whose bounds look at no set,
so every level draws from the first unhit one.  `checker.baseline_config`
sets all three.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .backend import kernels
from .errors import BudgetExceededError
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

    @classmethod
    def from_sets(
        cls, universe_size: int, k: int, families: Mapping[int, Sequence]
    ) -> "HittingInstance":
        as_masks = {}
        for degree, sets in families.items():
            masks = []
            for s in sets:
                mask = 0
                for c in s:
                    mask |= 1 << c
                masks.append(mask)
            as_masks[degree] = tuple(masks)
        return cls(universe_size, k, as_masks)

    def degree_one(self) -> Tuple[int, ...]:
        return self.families.get(1, ())


@dataclass(frozen=True)
class SelectionSchedule:
    """Which degree-1 set to draw from, by clue position t (1-based), as
    the (window, count) bounds of each level: minimum effective size over
    all unhit sets through t = full_through, then over the unhit sets
    among the first window_width slots, then over the first short_width
    unhit sets, then simply the first unhit set (a window of 0).  A width
    of 0 looks at no set, which draws from the first unhit one, so
    SelectionSchedule(0, 0, 0) turns effective sizes off.

    full_through = None derives the default k - 6 at resolve time, placing
    the two bounded scans at k - 5 and k - 4.
    """

    full_through: Optional[int] = None
    window_width: int = 64
    short_width: int = 5

    def __post_init__(self) -> None:
        if self.window_width < 0 or self.short_width < 0:
            raise ValueError("selection widths must be >= 0")


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
    """Consolidation (trigger level, cap) per degree, {} for none, and the
    selection schedule: the two keys of the configuration file that the
    engine reads.  The higher-degree checks need no setting: they follow
    from the instance's families above degree 1."""

    consolidation: Mapping[int, Tuple[int, int]] = field(
        default_factory=lambda: dict(DEFAULT_CONSOLIDATION)
    )
    selection: SelectionSchedule = SelectionSchedule()

    def __post_init__(self) -> None:
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
    the last is the (window, count) selection bounds of each level below
    k, with INT_MAX for no bound."""
    k = instance.k
    degrees = sorted(instance.families)
    masks_by_degree = [list(instance.families[d]) for d in degrees]

    check_levels: Dict[int, int] = {}
    for d in degrees:
        if d >= 2 and instance.families[d]:
            check_levels[d] = check_level(k, d)

    consolidations: Dict[int, Tuple[int, int]] = {}
    for d, (trigger, cap) in config.consolidation.items():
        if trigger >= k:
            continue
        if d not in instance.families or not instance.families[d]:
            continue
        if d >= 2 and trigger >= check_level(k, d):
            continue  # the degree is checked once, earlier consolidation only
        consolidations[d] = (trigger, cap)

    selection = config.selection
    full_through = selection.full_through
    if full_through is None:
        full_through = k - 6
    bounds: List[Tuple[int, int]] = []
    for t in range(1, k + 1):
        if t <= full_through:
            bounds.append((INT_MAX, INT_MAX))
        elif t == full_through + 1:
            bounds.append((selection.window_width, INT_MAX))
        elif t == full_through + 2:
            bounds.append((INT_MAX, selection.short_width))
        else:
            bounds.append((0, INT_MAX))

    return (
        instance.universe_size,
        k,
        degrees,
        masks_by_degree,
        check_levels,
        consolidations,
        bounds,
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


def brute_force_hitting_sets(instance: HittingInstance) -> List[Tuple[int, ...]]:
    """Oracle: all k-subsets intersecting every degree-1 member, sorted.

    Refuses instances with more than 10**7 candidate subsets.
    """
    n, k = instance.universe_size, instance.k
    if comb(n, k) > 10**7:
        raise BudgetExceededError(
            f"C({n},{k}) exceeds the 10^7 subset budget"
        )
    needed = instance.degree_one()
    out = []
    for combo in combinations(range(n), k):
        mask = 0
        for c in combo:
            mask |= 1 << c
        if all(mask & s for s in needed):
            out.append(combo)
    return out


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

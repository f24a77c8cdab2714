"""Pure-Python kernels: solver core, batch confirmation of candidate clue
sets, alternate-completion enumerator, clique builder and the hitting-set
engine.

This is the reference backend; `_native` (C, via ctypes) implements the same
five entry points (`solve_limit`, `confirm`, `enumerate_diffs`, `cliques`
and `run_hitting`) with identical semantics and emission order, except
that `enumerate_diffs` may list its masks in another order.  Bit rows are
Python ints here, so widths are unbounded.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .bitrows import bits_ascending

BACKEND_NAME = "python"

# the largest limit, count or cap a kernel argument may hold: the native
# kernels take them as C ints, and callers refuse larger values
INT_MAX = 2**31 - 1


# ---------------------------------------------------------------------------
# board geometry

@lru_cache(maxsize=None)
def _geometry(box_rows: int, box_cols: int):
    n = box_rows * box_cols
    ncells = n * n
    row_of = [c // n for c in range(ncells)]
    col_of = [c % n for c in range(ncells)]
    box_of = [
        (c // n // box_rows) * box_rows + (c % n) // box_cols
        for c in range(ncells)
    ]
    units = []
    for r in range(n):
        units.append(tuple(c for c in range(ncells) if row_of[c] == r))
    for col in range(n):
        units.append(tuple(c for c in range(ncells) if col_of[c] == col))
    for b in range(n):
        units.append(tuple(c for c in range(ncells) if box_of[c] == b))
    return n, ncells, tuple(row_of), tuple(col_of), tuple(box_of), tuple(units)


# ---------------------------------------------------------------------------
# solver core

class _Board:
    """Mutable solve state: digit array plus per-unit used-digit masks."""

    __slots__ = ("geo", "grid", "row_used", "col_used", "box_used")

    def __init__(self, geo, cells):
        n, ncells, row_of, col_of, box_of, _units = geo
        self.geo = geo
        self.grid = list(cells)
        self.row_used = [0] * n
        self.col_used = [0] * n
        self.box_used = [0] * n
        for c, d in enumerate(self.grid):
            if d:
                bit = 1 << (d - 1)
                self.row_used[row_of[c]] |= bit
                self.col_used[col_of[c]] |= bit
                self.box_used[box_of[c]] |= bit

    def copy(self):
        clone = _Board.__new__(_Board)
        clone.geo = self.geo
        clone.grid = self.grid[:]
        clone.row_used = self.row_used[:]
        clone.col_used = self.col_used[:]
        clone.box_used = self.box_used[:]
        return clone

    def assign(self, c: int, d: int) -> None:
        _n, _nc, row_of, col_of, box_of, _units = self.geo
        bit = 1 << (d - 1)
        self.grid[c] = d
        self.row_used[row_of[c]] |= bit
        self.col_used[col_of[c]] |= bit
        self.box_used[box_of[c]] |= bit

    def candidates(self, c: int) -> int:
        _n, _nc, row_of, col_of, box_of, _units = self.geo
        full = (1 << self.geo[0]) - 1
        return full & ~(
            self.row_used[row_of[c]]
            | self.col_used[col_of[c]]
            | self.box_used[box_of[c]]
        )


def givens_consistent(box_rows: int, box_cols: int, cells) -> bool:
    """True iff no digit repeats inside a row, column or box."""
    geo = _geometry(box_rows, box_cols)
    n, ncells, row_of, col_of, box_of, _units = geo
    rows = [0] * n
    cols = [0] * n
    boxes = [0] * n
    for c, d in enumerate(cells):
        if not d:
            continue
        bit = 1 << (d - 1)
        if rows[row_of[c]] & bit or cols[col_of[c]] & bit or boxes[box_of[c]] & bit:
            return False
        rows[row_of[c]] |= bit
        cols[col_of[c]] |= bit
        boxes[box_of[c]] |= bit
    return True


def _propagate(board: _Board, diff) -> int:
    """Run naked+hidden singles to fixpoint.

    Returns the number of remaining blanks, or -1 on contradiction (or when
    the diff budget of the enumerator is exceeded).
    """
    n, ncells, row_of, col_of, box_of, units = board.geo
    full = (1 << n) - 1
    grid = board.grid
    while True:
        changed = False
        blanks = 0
        for c in range(ncells):
            if grid[c]:
                continue
            cand = full & ~(
                board.row_used[row_of[c]]
                | board.col_used[col_of[c]]
                | board.box_used[box_of[c]]
            )
            if cand == 0:
                return -1
            if cand & (cand - 1) == 0:
                d = cand.bit_length()
                board.assign(c, d)
                if diff is not None and not diff.note(c, d):
                    return -1
                changed = True
            else:
                blanks += 1
        if changed:
            continue
        if blanks == 0:
            return 0
        # hidden singles per unit
        for unit in units:
            placed = 0
            once = 0
            multi = 0
            for c in unit:
                d = grid[c]
                if d:
                    placed |= 1 << (d - 1)
                else:
                    cand = board.candidates(c)
                    multi |= once & cand
                    once |= cand
            need = full & ~placed
            if need & ~once:
                return -1
            singles = need & once & ~multi
            while singles:
                low = singles & -singles
                singles ^= low
                d = low.bit_length()
                for c in unit:
                    if not grid[c] and board.candidates(c) & low:
                        board.assign(c, d)
                        if diff is not None and not diff.note(c, d):
                            return -1
                        changed = True
                        break
        if not changed:
            return blanks


def _pick_branch_cell(board: _Board) -> int:
    """Blank cell with the fewest candidates, lowest index on ties."""
    _n, ncells, *_ = board.geo
    best_c = -1
    best_count = 1 << 30
    grid = board.grid
    for c in range(ncells):
        if grid[c]:
            continue
        count = board.candidates(c).bit_count()
        if count < best_count:
            best_count = count
            best_c = c
            if count <= 2:
                break
    return best_c


def _solve_rec(board: _Board, limit: int, found: list) -> int:
    blanks = _propagate(board, None)
    if blanks < 0:
        return 0
    if blanks == 0:
        if len(found) < 2:
            found.append(tuple(board.grid))
        return 1
    c = _pick_branch_cell(board)
    total = 0
    for bit in bits_ascending(board.candidates(c)):
        child = board.copy()
        child.assign(c, bit + 1)
        total += _solve_rec(child, limit - total, found)
        if total >= limit:
            break
    return total


def solve_limit(box_rows: int, box_cols: int, cells, limit: int):
    """Count completions up to `limit`; return (count, first, second).

    `cells` is a row-major digit sequence with 0 for blanks; givens must be
    unit-consistent (checked by the caller).  The two returned completions
    (or None) are digit tuples in discovery order.
    """
    geo = _geometry(box_rows, box_cols)
    board = _Board(geo, cells)
    found: list = []
    count = _solve_rec(board, limit, found)
    first = found[0] if found else None
    second = found[1] if len(found) > 1 else None
    return count, first, second


# ---------------------------------------------------------------------------
# batch confirmation of candidate clue sets

# confirm verdict codes shared with the compiled backend
CONFIRM_AMBIGUOUS = 0
CONFIRM_PROPER = 1
CONFIRM_UNSAFE = 2


def _grid_ok(units, n: int, grid) -> bool:
    """True iff every unit of `grid` is a permutation of 1..n; independent
    of the solver's propagation."""
    full = set(range(1, n + 1))
    return all({grid[c] for c in unit} == full for unit in units)


def _completion_ok(units, n: int, completion, clues) -> bool:
    """True iff `completion` passes `_grid_ok` and extends `clues`."""
    return _grid_ok(units, n, completion) and all(
        not d or completion[c] == d for c, d in enumerate(clues)
    )


def _witness_rec(board: _Board, grid):
    blanks = _propagate(board, None)
    if blanks < 0:
        return None, False
    if blanks == 0:
        completion = tuple(board.grid)
        if completion == grid:
            return None, True
        return completion, False
    c = _pick_branch_cell(board)
    cand = board.candidates(c)
    own = cand & (1 << (grid[c] - 1))
    for bit in bits_ascending(cand ^ own):
        child = board.copy()
        child.assign(c, bit + 1)
        found, _reached = _witness_rec(child, grid)
        if found is not None:
            return found, False
    if not own:
        return None, False
    board.assign(c, grid[c])  # the last branch: board is not needed after
    return _witness_rec(board, grid)


def _witness(geo, clues, grid):
    """Search the completions of `clues` for one other than `grid`,
    trying grid's digit last at each branch cell.  Returns (that
    completion, False), or (None, reached) when the search is exhausted,
    where reached tells whether it completed to `grid` itself.  With
    grid's digit last, grid is the last completion the search can reach,
    so reaching it ends the search."""
    return _witness_rec(_Board(geo, clues), grid)


def confirm(box_rows: int, box_cols: int, digits, k: int, cells) -> bytes:
    """One verdict byte per candidate clue set of the grid `digits`.

    `cells` concatenates the candidates, `k` cell indices each.  Each
    candidate is decided by a search for one completion other than the
    grid (`_witness`): CONFIRM_AMBIGUOUS when it returns a completion that
    differs from the grid and passes `_completion_ok`; CONFIRM_PROPER when
    it is exhausted and the only completion it reached is the grid, which
    passes `_completion_ok`; and CONFIRM_UNSAFE otherwise (no completion at
    all, or an invalid or equal witness): a verdict the double-check could
    not trust.  Raises ValueError, before any verdict, when `digits` is not
    a valid grid of n*n digits (so the grid completes every candidate), for
    a cell index outside the board and for a `cells` length that is not a
    multiple of k.

    This reference searches every candidate and is the oracle.  The native
    kernel skips the search of a candidate that misses the cells where an
    earlier witness of the same call differs from the grid, since that
    witness completes it too; its verdicts must equal these.
    """
    geo = _geometry(box_rows, box_cols)
    n, ncells, _row_of, _col_of, _box_of, units = geo
    if len(digits) != ncells or not _grid_ok(units, n, digits):
        raise ValueError(f"expected a valid grid of {ncells} digits")
    if k < 1 or len(cells) % k:
        raise ValueError("cells must hold whole candidates of k >= 1 cells")
    if any(not 0 <= c < ncells for c in cells):
        raise ValueError("cell index outside the board")
    digits = tuple(digits)
    verdicts = bytearray()
    for start in range(0, len(cells), k):
        clues = [0] * ncells
        for c in cells[start : start + k]:
            clues[c] = digits[c]
        found, reached = _witness(geo, clues, digits)
        verdict = CONFIRM_UNSAFE
        if found is not None:
            if found != digits and _completion_ok(units, n, found, clues):
                verdict = CONFIRM_AMBIGUOUS
        elif reached and _completion_ok(units, n, digits, clues):
            verdict = CONFIRM_PROPER
        verdicts.append(verdict)
    return bytes(verdicts)


# ---------------------------------------------------------------------------
# alternate-completion enumeration (diff-bounded)

class _DiffBudget:
    """Tracks how far a partial completion strays from a reference grid.

    Beyond the plain difference bound, structural cuts apply.  Any two
    completions of one puzzle differ in 0 or >= 2 cells of every unit (the
    digit multisets per unit are equal), so a fully assigned unit with
    exactly one difference is impossible, and each unit with exactly one
    difference and open blanks forces at least one further difference.
    The same holds per original digit: a digit changed in exactly one cell
    would need a replacement in both that cell's row and its column, which
    a single further change cannot provide.  Units of one kind are
    disjoint, as are the cell sets per original digit, so the open
    exactly-one counts are sound lower bounds on further differences.

    The budget further demands that every blanked digit ends up changed
    (hence changed at least twice): completions whose difference set uses
    only a subset of the blanked digits are exactly the ones reachable by
    blanking that digit subset alone, so a caller sweeping digit subsets
    loses nothing.  The remaining deficit, sum over digits of
    max(0, 2 - changes), is a sound lower bound as well.
    """

    __slots__ = (
        "ref",
        "geo",
        "max_diff",
        "max_per_digit",
        "total",
        "per_digit",
        "mask",
        "unit_blanks",
        "unit_diffs",
        "open_singles",
        "digit_open",
        "deficit",
    )

    def __init__(self, ref, max_diff, max_per_digit, geo, blank_mask):
        n = geo[0]
        self.ref = ref
        self.geo = geo
        self.max_diff = max_diff
        self.max_per_digit = max_per_digit
        self.total = 0
        self.per_digit = [0] * (n + 1)
        self.mask = 0
        # unit ids: rows 0..n-1, cols n..2n-1, boxes 2n..3n-1
        self.unit_blanks = [0] * (3 * n)
        self.unit_diffs = [0] * (3 * n)
        self.open_singles = [0, 0, 0]  # rows, cols, boxes
        self.digit_open = [0] * (n + 1)
        row_of, col_of, box_of = geo[2], geo[3], geo[4]
        m = blank_mask
        while m:
            low = m & -m
            m ^= low
            c = low.bit_length() - 1
            self.unit_blanks[row_of[c]] += 1
            self.unit_blanks[n + col_of[c]] += 1
            self.unit_blanks[2 * n + box_of[c]] += 1
            self.digit_open[ref[c]] += 1
        self.deficit = 2 * sum(1 for v in self.digit_open if v)

    def note(self, c: int, d: int) -> bool:
        """Record assignment of d at c; False when any budget is exceeded."""
        n = self.geo[0]
        units = (
            self.geo[2][c],
            n + self.geo[3][c],
            2 * n + self.geo[4][c],
        )
        r = self.ref[c]
        differs = d != r
        count_before = self.per_digit[r]
        open_before = self.digit_open[r]
        self.digit_open[r] = open_before - 1
        if differs:
            self.total += 1
            if self.total > self.max_diff:
                return False
            self.per_digit[r] = count_before + 1
            if self.per_digit[r] > self.max_per_digit:
                return False
            if count_before < 2:
                self.deficit -= 1
            self.mask |= 1 << c
        count_after = self.per_digit[r]
        if open_before == 1 and count_after < 2:
            return False  # digit closed while still needing changes
        for kind, u in enumerate(units):
            blanks_before = self.unit_blanks[u]
            diffs_before = self.unit_diffs[u]
            blanks = blanks_before - 1
            diffs = diffs_before + 1 if differs else diffs_before
            self.unit_blanks[u] = blanks
            self.unit_diffs[u] = diffs
            if blanks == 0 and diffs == 1:
                return False
            was_open = diffs_before == 1 and blanks_before > 0
            now_open = diffs == 1 and blanks > 0
            if was_open != now_open:
                self.open_singles[kind] += 1 if now_open else -1
        bound = max(self.open_singles)
        if bound < self.deficit:
            bound = self.deficit
        if self.total + bound > self.max_diff:
            return False
        return True

    def snapshot(self):
        return (
            self.total,
            self.per_digit[:],
            self.mask,
            self.unit_blanks[:],
            self.unit_diffs[:],
            self.open_singles[:],
            self.digit_open[:],
            self.deficit,
        )

    def restore(self, snap) -> None:
        (
            self.total,
            per_digit,
            self.mask,
            unit_blanks,
            unit_diffs,
            open_singles,
            digit_open,
            self.deficit,
        ) = snap
        self.per_digit[:] = per_digit
        self.unit_blanks[:] = unit_blanks
        self.unit_diffs[:] = unit_diffs
        self.open_singles[:] = open_singles
        self.digit_open[:] = digit_open


def _diff_rec(board: _Board, diff: _DiffBudget, out: list) -> None:
    blanks = _propagate(board, diff)
    if blanks < 0:
        return
    if blanks == 0:
        if diff.mask:
            out.append(diff.mask)
        return
    c = _pick_branch_cell(board)
    for bit in bits_ascending(board.candidates(c)):
        child = board.copy()
        snap = diff.snapshot()
        child.assign(c, bit + 1)
        if diff.note(c, bit + 1):
            _diff_rec(child, diff, out)
        diff.restore(snap)


def enumerate_diffs(
    box_rows: int,
    box_cols: int,
    solution,
    blank_mask: int,
    max_diff: int,
    max_per_digit: int,
):
    """Completions of `solution` with the masked cells blanked, reported as
    bit masks of the cells that differ from `solution`.

    Only completions whose difference set involves every blanked digit (at
    least twice, necessarily) are emitted; differences over a digit subset
    are exactly the ones found when blanking that subset alone, so a caller
    sweeping digit subsets still sees everything once.  Branches exceeding
    `max_diff` total changes or `max_per_digit` changes of one original
    digit are cut.

    The enumeration splits on the smallest changed cell: blanks below it
    are pinned to the reference digits, so each completion is reached
    exactly once and most of the board is forced early.  The result is a
    multiset in unspecified order, one mask per completion (two completions
    may share a mask); backends may list it in different orders.  Raises
    ValueError when `solution` is not a valid grid.
    """
    geo = _geometry(box_rows, box_cols)
    n, ncells, _row_of, _col_of, _box_of, units = geo
    if len(solution) != ncells or not _grid_ok(units, n, solution):
        raise ValueError(f"expected a valid grid of {ncells} digits")
    ref = tuple(solution)
    cells = [0 if (blank_mask >> c) & 1 else d for c, d in enumerate(solution)]
    blanks = [c for c in range(len(ref)) if (blank_mask >> c) & 1]
    out: list = []
    for split, c0 in enumerate(blanks):
        board = _Board(geo, cells)
        diff = _DiffBudget(ref, max_diff, max_per_digit, geo, blank_mask)
        pinned_ok = True
        for c in blanks[:split]:
            board.assign(c, ref[c])
            if not diff.note(c, ref[c]):
                pinned_ok = False
                break
        if not pinned_ok:
            # pinning failed at some cell; every later split pins a
            # superset of this prefix and fails identically
            break
        full = (1 << geo[0]) - 1
        cand = board.candidates(c0) & ~(1 << (ref[c0] - 1)) & full
        for bit in bits_ascending(cand):
            child = board.copy()
            snap = diff.snapshot()
            child.assign(c0, bit + 1)
            if diff.note(c0, bit + 1):
                _diff_rec(child, diff, out)
            diff.restore(snap)
    return out


# ---------------------------------------------------------------------------
# cliques

def cliques(masks, degree: int, start: int, cap: int):
    """Unions of `degree` pairwise-disjoint masks, as a tuple of masks.

    The nested loop runs index floors start, start-1, ...: level 0 tries
    indices start..len(masks)-1 ascending, level j indices start-j up to
    the index taken at level j-1, and a mask joins only when it misses the
    union so far.  The first `cap` unions reached at the last level are
    the result.  Raises ValueError for degree < 2, start < degree - 1,
    cap < 1, or a mask that is negative or has a cell past 127 (the
    engines' universe).
    """
    if any(mask < 0 or mask >> 128 for mask in masks):
        raise ValueError("a set mask is negative or has cells past 127")
    if degree < 2 or start < degree - 1 or cap < 1:
        raise ValueError("clique degree below 2, start below degree - 1 or cap below 1")
    m = len(masks)
    out = []

    def scan(level: int, upper: int, acc: int) -> bool:
        for idx in range(start - level, upper):
            mask = masks[idx]
            if mask & acc:
                continue
            if level == degree - 1:
                out.append(acc | mask)
                if len(out) == cap:
                    return True
            elif scan(level + 1, idx, acc | mask):
                return True
        return False

    try:
        if m > start:
            scan(0, m, 0)
    finally:
        # scan reaches itself through its closure; without this the cycle
        # keeps out and masks alive until a cyclic collection
        del scan
    return tuple(out)


# ---------------------------------------------------------------------------
# hitting-set engine

class _DegreeState:
    """Per-degree family state: current masks/hitvec table and widths."""

    __slots__ = ("degree", "masks", "hitvec", "m", "saved")

    def __init__(self, degree, masks, universe):
        self.degree = degree
        self.masks = list(masks)
        self.m = len(masks)
        self.hitvec = _build_hitvec(masks, universe)
        self.saved = []

    def full_row(self) -> int:
        return (1 << self.m) - 1


def _build_hitvec(masks, universe):
    table = [0] * universe
    for i, mask in enumerate(masks):
        bit = 1 << i
        for c in bits_ascending(mask):
            table[c] |= bit
    return table


def run_hitting(
    universe: int,
    k: int,
    degrees,
    masks_by_degree,
    check_levels,
    consolidations,
    bounds,
    emit,
    batch,
):
    """Enumerate k-subsets of range(universe) hitting every degree-1 set,
    each exactly once: the cells of the drawn-from set up to the drawn cell
    are dead in its subtree, and free-fill takes only live cells.

    universe          cell count, cells 0..universe-1
    k                 size of each emitted set
    degrees           sorted degree list; degrees[0] == 1 when present
    masks_by_degree   per degree, list of cell masks (ints)
    check_levels      per degree, level at which to test all-hit (or -1)
    consolidations    per degree, (trigger_level, cap) or None
    bounds            per level 0..k-1, (window, count): draw from the
                      unhit degree-1 set of fewest live cells among the
                      unhit slots below `window`, looking at no more than
                      `count` of them (ties to the lower slot; one with no
                      live cell cuts the branch); looking at none, draw
                      from the first unhit slot
    emit              callable receiving the hitting sets in batches: one
                      bytes object of whole sets, k ascending cell bytes
                      each, in emission order; must not re-enter the engine
    batch             sets per emit call (>= 1); the sets left over at the
                      end go in one last, shorter call, none when no set
                      is left

    Returns a stats dict (nodes, emitted, per-degree cut counts/levels).
    """
    if batch < 1:
        raise ValueError("batch must be at least 1")
    states = {}
    for d, masks in zip(degrees, masks_by_degree):
        states[d] = _DegreeState(d, masks, universe)
    deg1 = states.get(1)

    statevec = {d: [0] * (k + 1) for d in states}
    deadvec = [0] * (k + 1)
    hitset: list = []
    pending = bytearray()
    full_batch = batch * k
    alive_universe = (1 << universe) - 1

    stats = {
        "nodes": 0,
        "emitted": 0,
        "degree_cuts": {d: 0 for d in states if d > 1},
        "degree_cut_levels": {d: set() for d in states if d > 1},
        "selection_cuts": 0,
        "consolidations": 0,
    }

    check_at = {}
    for d, level in check_levels.items():
        if level >= 0:
            check_at.setdefault(level, []).append(d)
    for levels in check_at.values():
        levels.sort()
    consolidate_at = {}
    for d, entry in consolidations.items():
        if entry is None:
            continue
        trigger, cap = entry
        consolidate_at.setdefault(trigger, []).append((d, cap))
    for entries in consolidate_at.values():
        entries.sort()

    def consolidate(d: int, cap: int, level: int) -> None:
        st = states[d]
        sv = statevec[d][level]
        retained = []
        for i in range(st.m):
            if not (sv >> i) & 1:
                retained.append(i)
                if len(retained) == cap:
                    break
        st.saved.append((st.masks, st.hitvec, st.m, sv))
        st.masks = [st.masks[i] for i in retained]
        st.m = len(retained)
        new_table = [0] * universe
        for j, mask in enumerate(st.masks):
            bit = 1 << j
            for c in bits_ascending(mask):
                new_table[c] |= bit
        st.hitvec = new_table
        statevec[d][level] = 0
        stats["consolidations"] += 1

    def restore(d: int, level: int) -> None:
        st = states[d]
        st.masks, st.hitvec, st.m, statevec[d][level] = st.saved.pop()

    def select(level: int) -> int:
        """Index of the degree-1 set to draw from, or -1 to cut."""
        sv = statevec[1][level]
        window, count = bounds[level]
        alive = alive_universe & ~deadvec[level]
        best = -1
        best_eff = 1 << 30
        seen = 0
        for i in range(deg1.m):
            if (sv >> i) & 1:
                continue
            if i >= window or seen == count:
                return best if best >= 0 else i
            eff = (deg1.masks[i] & alive).bit_count()
            if eff < best_eff:
                best_eff = eff
                best = i
                if eff == 0:
                    stats["selection_cuts"] += 1
                    return -1
            seen += 1
        return best

    def take(cells) -> None:
        stats["emitted"] += 1
        pending.extend(sorted(cells))
        if len(pending) == full_batch:
            emit(bytes(pending))
            pending.clear()

    def free_fill(level: int) -> None:
        need = k - level
        if need == 0:
            take(hitset)
            return
        avail = [c for c in range(universe) if not (deadvec[level] >> c) & 1]
        for combo in combinations(avail, need):
            take(hitset + list(combo))

    def recurse(level: int) -> None:
        stats["nodes"] += 1
        if deg1 is None or deg1.m == 0 or statevec[1][level] == deg1.full_row():
            free_fill(level)
            return
        if level == k:
            return
        for d in check_at.get(level, ()):
            st = states[d]
            if st.m and statevec[d][level] != st.full_row():
                stats["degree_cuts"][d] += 1
                stats["degree_cut_levels"][d].add(level)
                return
        pushed = []
        for d, cap in consolidate_at.get(level, ()):
            consolidate(d, cap, level)
            pushed.append(d)
        try:
            i_sel = select(level)
            if i_sel < 0:
                return
            set_mask = deg1.masks[i_sel]
            for c in bits_ascending(set_mask & ~deadvec[level]):
                hitset.append(c)
                for d, st in states.items():
                    statevec[d][level + 1] = statevec[d][level] | st.hitvec[c]
                # cells of the drawn-from set up to c die in the subtree
                deadvec[level + 1] = deadvec[level] | (set_mask & ((1 << (c + 1)) - 1))
                recurse(level + 1)
                hitset.pop()
        finally:
            for d in reversed(pushed):
                restore(d, level)

    try:
        recurse(0)
        if pending:
            emit(bytes(pending))
    finally:
        # recurse reaches itself through its closure; without this the
        # cycle keeps emit, and all the caller's sink holds, alive until
        # a cyclic collection
        del recurse
    return stats

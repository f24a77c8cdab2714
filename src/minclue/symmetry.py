"""Minlex canonical forms, small-shape catalogue generation, and the
completion-count bracket verifier.

Grids are canonicalized over the equivalence group: digit relabelling x
band-preserving row permutations x stack-preserving column permutations x
optional transpose.  Transpose is only in the group when boxes are square
(R == C); for rectangular boxes it would reshape the boxes, leaving the
grid family.  That convention yields more 6x6 classes than a convention
with box-reshaping transpose would, but every class is still searched.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product
from math import factorial
from typing import Callable, Iterator, List, Tuple

from .grid import Grid, GridShape


def _invert(perm: Tuple[int, ...]) -> Tuple[int, ...]:
    inv = [0] * len(perm)
    for i, image in enumerate(perm):
        inv[image] = i
    return tuple(inv)


def block_permutations(n: int, width: int) -> Iterator[Tuple[int, ...]]:
    """All permutations of range(n) preserving consecutive blocks of
    `width` (bands for rows, stacks for columns)."""
    blocks = n // width
    for block_order in permutations(range(blocks)):
        for inner in product(permutations(range(width)), repeat=blocks):
            perm = [0] * n
            for b in range(blocks):
                dest = block_order[b]
                for o in range(width):
                    perm[b * width + o] = dest * width + inner[b][o]
            yield tuple(perm)


# ---------------------------------------------------------------------------
# minlex

@lru_cache(maxsize=8)
def _colmaps(n: int, box_cols: int) -> tuple:
    """Column maps: out column j reads input column colmap[j]."""
    return tuple(_invert(p) for p in block_permutations(n, box_cols))


def minlex(grid: Grid) -> Grid:
    """Lexicographically smallest equivalent grid.

    Searches every cell permutation of the group, relabelling digits by
    first occurrence, and abandons a permutation as soon as its partial
    digit string exceeds the best found so far.
    """
    shape = grid.shape
    n = shape.side
    R, C = shape.box_rows, shape.box_cols
    digits = grid.digits
    n_bands = n // R

    colmaps = _colmaps(n, C)
    transposes = (False, True) if R == C else (False,)

    best: List[int] = [n + 1] * shape.cell_count  # sentinel: larger than any

    def run(read_row: Callable[[int], Tuple[int, ...]]) -> None:
        # read_row(r) is input row r (after optional transpose) as a tuple
        rows_cache = [read_row(r) for r in range(n)]
        for colmap in colmaps:
            _minlex_rows(rows_cache, colmap, best, n, R, n_bands)

    def plain_row(r: int) -> Tuple[int, ...]:
        return digits[r * n : (r + 1) * n]

    run(plain_row)
    if True in transposes:
        run(lambda r: tuple(digits[c * n + r] for c in range(n)))

    return Grid(shape, tuple(best))


def _minlex_rows(rows, colmap, best, n, R, n_bands) -> None:
    """DFS over output row order for one fixed column map, updating best."""
    out: List[int] = []
    relabel = [0] * (n + 1)

    def extend(row_idx, band_rows, current_band, next_label, tight) -> None:
        if row_idx == n:
            # `tight` may be stale once a descendant elsewhere improved
            # best, so always compare in full before replacing.
            if out < best:
                best[:] = out
            return
        if current_band is not None and band_rows[current_band]:
            choices = [(current_band, r) for r in band_rows[current_band]]
        else:
            choices = [
                (b, r)
                for b in range(n_bands)
                if band_rows[b] and len(band_rows[b]) == R
                for r in band_rows[b]
            ]
        saved_relabel = relabel[:]
        for band, r in choices:
            src = rows[r]
            pos = row_idx * n
            label = next_label
            ok = True
            still_tight = tight
            emitted = 0
            for j in range(n):
                d = src[colmap[j]]
                lab = relabel[d]
                if not lab:
                    label += 1
                    lab = label
                    relabel[d] = lab
                if still_tight:
                    ref = best[pos + j]
                    if lab > ref:
                        ok = False
                        emitted = j
                        break
                    if lab < ref:
                        still_tight = False
                out.append(lab)
                emitted = j + 1
            if ok:
                band_rows[band].remove(r)
                extend(
                    row_idx + 1,
                    band_rows,
                    band if band_rows[band] else None,
                    label,
                    still_tight,
                )
                band_rows[band].append(r)
                band_rows[band].sort()
            del out[len(out) - emitted :]
            relabel[:] = saved_relabel

    band_rows = [list(range(b * R, (b + 1) * R)) for b in range(n_bands)]
    extend(0, band_rows, None, 0, True)


# ---------------------------------------------------------------------------
# catalogue generation

def enumerate_completions_first_row_fixed(shape: GridShape) -> Iterator[Grid]:
    """All completed grids whose first row is 1..side, ascending.

    Every equivalence class contains such grids (relabel any member so its
    first row reads 1..n), so canonicalizing exactly these covers all
    classes; the total completion count is this stream's length times n!.
    """
    n = shape.side
    ncells = shape.cell_count
    from ._pykernels import _geometry

    _n, _nc, row_of, col_of, box_of, _units = _geometry(
        shape.box_rows, shape.box_cols
    )
    grid = [0] * ncells
    rows = [0] * n
    cols = [0] * n
    boxes = [0] * n
    full = (1 << n) - 1
    for c in range(n):
        d = c + 1
        grid[c] = d
        bit = 1 << c
        rows[0] |= bit
        cols[c] |= bit
        boxes[box_of[c]] |= bit

    def rec(c: int):
        if c == ncells:
            yield Grid(shape, tuple(grid))
            return
        r, col, b = row_of[c], col_of[c], box_of[c]
        cand = full & ~(rows[r] | cols[col] | boxes[b])
        while cand:
            low = cand & -cand
            cand ^= low
            grid[c] = low.bit_length()
            rows[r] |= low
            cols[col] |= low
            boxes[b] |= low
            yield from rec(c + 1)
            rows[r] ^= low
            cols[col] ^= low
            boxes[b] ^= low
        grid[c] = 0

    yield from rec(n)


def catalog(shape: GridShape, sink: Callable[[Grid], None]) -> int:
    """Emit each equivalence-class representative once, in ascending
    lexicographic order and in minlex form; return the total number of
    completed grids of this shape.

    Supported for generation at 4x4 and 6x6; larger catalogues are consumed
    from files rather than generated.
    """
    if shape.cell_count > 36:
        raise ValueError(f"catalogue generation not supported for {shape}")
    reps = set()
    count_fixed = 0
    for completion in enumerate_completions_first_row_fixed(shape):
        count_fixed += 1
        reps.add(minlex(completion).digits)
    for rep in sorted(reps):
        sink(Grid(shape, rep))
    return count_fixed * factorial(shape.side)


# ---------------------------------------------------------------------------
# completion-count bracket

def verify_scs_bracket(n: int, total: int, claimed: int) -> bool:
    """Check n*(n+2)*...*(n+2(C-2)) < total < n*(n+2)*...*(n+2(C-1)) with
    exact integer arithmetic, for C = claimed."""
    if n < 2 or total < 1 or claimed < 2:
        raise ValueError("require n >= 2, total >= 1, claimed >= 2")
    left = 1
    for i in range(claimed - 1):
        left *= n + 2 * i
    right = left * (n + 2 * (claimed - 1))
    return left < total < right

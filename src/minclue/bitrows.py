"""Small bit-vector helpers.

Rows are plain Python ints; slot i of a row is bit i.  Tuple notation used
in docs and tests lists slot 1 first, i.e. (b1, b2, ..., b8) maps to the
integer b1 + 2*b2 + 4*b3 + ...

`con8` and its table are the paper's byte-gather primitive for
consolidation, checked by acceptance criterion 5.  Neither engine uses
them: both rebuild a consolidated table by scattering the kept sets' cell
masks, which costs the kept sets' sizes rather than a gather per row byte.
"""

from __future__ import annotations

from functools import lru_cache


def con8(mask: int, bits: int) -> int:
    """Gather the bits of `bits` at the zero slots of `mask`.

    Both inputs are 8-bit rows.  Kept slots are packed toward slot 0 in
    slot order; the tail is zero-filled.
    """
    out = 0
    j = 0
    for p in range(8):
        if not (mask >> p) & 1:
            out |= ((bits >> p) & 1) << j
            j += 1
    return out


@lru_cache(maxsize=1)
def con8_table() -> list:
    """The full 65,536-entry table: index (mask << 8) | bits."""
    return [con8(m, b) for m in range(256) for b in range(256)]


def bits_ascending(mask: int):
    """Yield set bit positions of `mask` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low

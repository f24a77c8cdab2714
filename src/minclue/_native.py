"""Native kernels: the C core in `_ckernels.c`, loaded through ctypes.

The entry points (`solve_limit`, `confirm`, `enumerate_diffs`, `cliques`
and `run_hitting`) take the same arguments and return the same results as
those of `_pykernels`, which is the reference (`enumerate_diffs` the same
multiset of masks, in unspecified order).  `run_hitting` fills its batches
of candidates in C, so the engine calls into Python once per batch, not
once per candidate; `cliques` hands back all its unions in one buffer.
Set masks cross into C packed, 16 little-endian bytes each.  Importing
this module loads the shared library from `__pycache__/`, compiling it
there with gcc first when no build of the current source exists (see
`_cbuild`).  Import raises ImportError when the library is unavailable:
silently when there is no compiler, after a RuntimeWarning naming the error
when the build fails.
"""

from __future__ import annotations

import ctypes
import subprocess
import warnings
from ctypes import CFUNCTYPE, POINTER, c_char_p, c_int, c_longlong, c_uint64, c_void_p

from . import _cbuild
from ._pykernels import INT_MAX

BACKEND_NAME = "native"

_MASK64 = (1 << 64) - 1

# mc_* error codes
_NO_MEMORY = -1
_BAD_ARGUMENT = -2

# int (*)(const unsigned char *data, int len); nonzero aborts the call
_EMIT = CFUNCTYPE(c_int, c_void_p, c_int)


def _open_library() -> ctypes.CDLL:
    path = _cbuild.CACHE_DIR / _cbuild.library_name()
    if not path.exists():
        try:
            _cbuild.build(path)
        except FileNotFoundError as exc:
            raise ImportError(f"no C compiler ({_cbuild.COMPILER}) on PATH") from exc
        except (OSError, subprocess.CalledProcessError) as exc:
            detail = getattr(exc, "stderr", None) or str(exc)
            warnings.warn(
                f"the native kernels failed to build; using pure Python: {detail}",
                RuntimeWarning,
                stacklevel=2,
            )
            raise ImportError(f"the native kernels failed to build: {detail}") from exc
    lib = ctypes.CDLL(str(path))
    lib.mc_solve_limit.argtypes = (c_int, c_int, c_char_p, c_int, c_char_p)
    lib.mc_solve_limit.restype = c_int
    lib.mc_confirm.argtypes = (c_int, c_int, c_char_p, c_int, c_int, c_char_p, c_char_p)
    lib.mc_confirm.restype = c_int
    lib.mc_enumerate_diffs.argtypes = (
        c_int, c_int, c_char_p, c_uint64, c_uint64, c_int, c_int, _EMIT,
    )
    lib.mc_enumerate_diffs.restype = c_int
    lib.mc_cliques.argtypes = (c_int, c_char_p, c_int, c_int, c_int, _EMIT)
    lib.mc_cliques.restype = c_int
    int_array = POINTER(c_int)
    lib.mc_run_hitting.argtypes = (
        c_int, c_int, c_int, int_array, int_array, c_char_p,
        int_array, int_array, int_array, int_array, int_array, _EMIT, c_int,
        POINTER(c_longlong), c_char_p,
    )
    lib.mc_run_hitting.restype = c_int
    return lib


_lib = _open_library()


def _emitter(take):
    """A C callback that hands each emitted buffer, as bytes, to `take`,
    and the list that receives the exception `take` raises.  The callback
    then returns nonzero, which aborts the call (the C side unwinds and
    frees its memory), and `_check` re-raises the exception.

    A closure rather than an object holding its own callback: without a
    reference cycle, the callback and everything `take` reaches (a whole
    search's results) are freed as soon as the call returns, not at some
    later cyclic collection."""
    errors = []

    def callback(data, size):
        try:
            take(ctypes.string_at(data, size))
        except BaseException as exc:  # re-raised by _check()
            errors.append(exc)
            return 1
        return 0

    return _EMIT(callback), errors


def _check(status: int, errors: list) -> None:
    if errors:
        raise errors.pop()
    if status == _NO_MEMORY:
        raise MemoryError("native kernels out of memory")
    if status == _BAD_ARGUMENT:
        raise ValueError(
            "board size, universe, k, batch, a digit, a cell, a set mask or a"
            " clique degree, start or cap out of range, or a grid that is not"
            " valid"
        )


def _c_int(value: int) -> int:
    """`value`, refused with ValueError outside the C int range: ctypes
    would wrap it silently (a limit of 2**32 + 1 becomes 1)."""
    if not -INT_MAX - 1 <= value <= INT_MAX:
        raise ValueError(f"{value} does not fit a C int")
    return value


def _c_ints(values):
    """A C int array of `values`, each checked by `_c_int`."""
    values = [_c_int(v) for v in values]
    return (c_int * len(values))(*values)


def _mask(data: bytes) -> int:
    return int.from_bytes(data, "little")


def _pack(masks) -> bytes:
    """Set masks as 16 little-endian bytes each (cells 0..63, then
    64..127), the form the C side reads.  Appended one at a time: a list
    of the 16-byte pieces would briefly hold about 4x the packed size."""
    out = bytearray()
    try:
        for mask in masks:
            out += mask.to_bytes(16, "little")
    except OverflowError:
        raise ValueError("a set mask is negative or has cells past 127") from None
    return bytes(out)


def solve_limit(box_rows: int, box_cols: int, cells, limit: int):
    """Count completions up to `limit`; return (count, first, second)."""
    ncells = (box_rows * box_cols) ** 2
    if len(cells) != ncells:
        raise ValueError(f"expected {ncells} cells")
    out = ctypes.create_string_buffer(2 * ncells)
    count = _lib.mc_solve_limit(
        _c_int(box_rows), _c_int(box_cols), bytes(cells), _c_int(limit), out
    )
    _check(count, [])
    raw = out.raw
    first = tuple(raw[:ncells]) if count >= 1 else None
    second = tuple(raw[ncells : 2 * ncells]) if count >= 2 else None
    return count, first, second


def confirm(box_rows: int, box_cols: int, digits, k: int, cells) -> bytes:
    """One verdict byte per candidate of `k` cells in `cells`; see
    _pykernels.confirm for the contract."""
    ncells = (box_rows * box_cols) ** 2
    if len(digits) != ncells:
        raise ValueError(f"expected {ncells} digits")
    if k < 1 or len(cells) % k:
        raise ValueError("cells must hold whole candidates of k >= 1 cells")
    count = len(cells) // k
    verdicts = ctypes.create_string_buffer(count)
    status = _lib.mc_confirm(
        _c_int(box_rows), _c_int(box_cols), bytes(digits), _c_int(k),
        _c_int(count), bytes(cells), verdicts,
    )
    _check(status, [])
    return verdicts.raw


def enumerate_diffs(box_rows: int, box_cols: int, solution, blank_mask: int,
                    max_diff: int, max_per_digit: int):
    """Masks of cells where bounded alternate completions differ from
    `solution`; see the reference backend for the full contract.  The
    masks are a multiset in unspecified order: with max_per_digit == 2
    the C side combines rectangle swaps instead of searching the board,
    which yields the reference's masks in another order."""
    ncells = (box_rows * box_cols) ** 2
    if len(solution) != ncells:
        raise ValueError(f"expected {ncells} cells")
    out = []
    callback, errors = _emitter(lambda data: out.append(_mask(data)))
    status = _lib.mc_enumerate_diffs(
        _c_int(box_rows), _c_int(box_cols), bytes(solution), blank_mask & _MASK64,
        blank_mask >> 64, _c_int(max_diff), _c_int(max_per_digit), callback,
    )
    _check(status, errors)
    return out


def cliques(masks, degree: int, start: int, cap: int):
    """Unions of `degree` pairwise-disjoint masks; see _pykernels.cliques
    for the contract.  The C side returns them all in one buffer of two
    native-order words per union."""
    packed = _pack(masks)
    if degree < 2 or start < degree - 1 or cap < 1:
        raise ValueError("clique degree below 2, start below degree - 1 or cap below 1")
    # only a start and degree below len(masks) and a clamped cap go to C
    if start >= len(masks) or degree > len(masks):
        return ()
    out = []
    callback, errors = _emitter(out.append)
    status = _lib.mc_cliques(
        len(masks), packed, degree, start, min(cap, INT_MAX), callback
    )
    _check(status, errors)
    if not out:
        return ()
    words = memoryview(out[0]).cast("Q")
    return tuple([lo | hi << 64 for lo, hi in zip(words[0::2], words[1::2])])


def run_hitting(universe: int, k: int, degrees, masks_by_degree, check_levels,
                consolidations, bounds, emit, batch: int):
    """Positional twin of the reference engine; see _pykernels.run_hitting
    for the argument contract.  The C side fills each batch and `emit`
    receives it as one bytes object."""
    ndeg = len(degrees)
    entries = [consolidations.get(d) or (-1, 0) for d in degrees]
    packed = _pack(mask for masks in masks_by_degree for mask in masks)
    counters = (c_longlong * (4 + ndeg))()
    cut_levels = ctypes.create_string_buffer(ndeg * (k + 1))
    callback, errors = _emitter(emit)
    status = _lib.mc_run_hitting(
        _c_int(universe),
        _c_int(k),
        ndeg,
        _c_ints(degrees),
        _c_ints(len(masks) for masks in masks_by_degree),
        packed,
        _c_ints(check_levels.get(d, -1) for d in degrees),
        _c_ints(trigger for trigger, _cap in entries),
        _c_ints(cap for _trigger, cap in entries),
        _c_ints(bounds[level][0] for level in range(k)),
        _c_ints(bounds[level][1] for level in range(k)),
        callback,
        _c_int(batch),
        counters,
        cut_levels,
    )
    _check(status, errors)
    stats = {
        "nodes": counters[0],
        "emitted": counters[1],
        "selection_cuts": counters[2],
        "consolidations": counters[3],
        "degree_cuts": {},
        "degree_cut_levels": {},
    }
    flags = cut_levels.raw
    for di, degree in enumerate(degrees):
        if degree > 1:
            row = flags[di * (k + 1) : (di + 1) * (k + 1)]
            stats["degree_cuts"][degree] = counters[4 + di]
            stats["degree_cut_levels"][degree] = {
                level for level, hit in enumerate(row) if hit
            }
    return stats

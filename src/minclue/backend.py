"""Kernel backend selection.

The native kernels (`minclue._native`, C compiled with gcc on first import)
are preferred; without a compiler, or when the build fails, the pure-Python
kernels are used.  Set MINCLUE_BACKEND=python or MINCLUE_BACKEND=native to
force a choice (forcing an unavailable native backend raises on import).
"""

from __future__ import annotations

import os
from functools import lru_cache

from . import _pykernels


@lru_cache(maxsize=1)
def _import_native():
    """(module, None) or (None, the ImportError); imported once, so a
    failed build is neither retried nor reported twice."""
    try:
        from . import _native
    except ImportError as exc:
        return None, exc
    return _native, None


def _load():
    choice = os.environ.get("MINCLUE_BACKEND", "").strip().lower()
    if choice not in ("", "native", "python", "py"):
        raise RuntimeError(f"unknown MINCLUE_BACKEND value {choice!r}")
    if choice in ("python", "py"):
        return _pykernels
    native, error = _import_native()
    if native is None:
        if choice == "native":
            raise ImportError(f"MINCLUE_BACKEND=native: {error}") from error
        return _pykernels
    return native


kernels = _load()


def backend_name() -> str:
    return kernels.BACKEND_NAME

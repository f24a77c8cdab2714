"""Compile the native kernels, `_ckernels.c`, into a shared library.

Stand-alone (standard library only) so that `setup.py` can load this file
without importing the package.  The library is cached next to the source
as `__pycache__/_ckernels-<hash>.so`, where the hash covers the source and
the compiler flags: an edited source gets a new name and is rebuilt on the
next import, and a stale build is never loaded.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

COMPILER = "gcc"
CFLAGS = ("-O2", "-std=c99", "-shared", "-fPIC")
SOURCE = Path(__file__).with_name("_ckernels.c")
CACHE_DIR = SOURCE.parent / "__pycache__"


def library_name() -> str:
    digest = hashlib.sha256(SOURCE.read_bytes())
    digest.update("\0".join(CFLAGS).encode())
    return f"_ckernels-{digest.hexdigest()[:16]}.so"


def build(target: Path) -> Path:
    """Compile the source to `target`, atomically: the library is written
    to a temporary file in the same directory and renamed into place, so
    concurrent builders never load a half-written file.

    Raises FileNotFoundError when the compiler is missing and
    subprocess.CalledProcessError (compiler output in `stderr`) when the
    compile fails.
    """
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=".ckernels-", suffix=".so")
    os.close(fd)
    try:
        subprocess.run(
            [COMPILER, *CFLAGS, "-o", tmp, str(SOURCE)],
            check=True,
            capture_output=True,
            text=True,
        )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target

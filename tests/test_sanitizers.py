"""The native kernels under AddressSanitizer and UndefinedBehaviorSanitizer.

A copy of the package gets `_ckernels.c` built with the sanitizers under
the name its loader looks for, and the backend, engine and checker tests
run against that copy in a fresh interpreter with the sanitizer runtimes
preloaded.  Any memory error or undefined behaviour in C aborts that run.
Slow (about a minute), so outside the default suite:
`python -m pytest -m slow tests/test_sanitizers.py`.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from minclue import _cbuild

ROOT = Path(__file__).resolve().parent.parent
SANITIZE = ("-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=undefined")
SUITES = ("tests/test_backends.py", "tests/test_hitting.py", "tests/test_checker.py")


def copy_checkout(dest: Path) -> Path:
    """A copy of `src/`, `tests/` and `pyproject.toml` under `dest`, with
    no built library; returns the copy's package directory."""
    for part in ("src", "tests"):
        shutil.copytree(
            ROOT / part, dest / part, ignore=shutil.ignore_patterns("__pycache__")
        )
    shutil.copy(ROOT / "pyproject.toml", dest)
    package = dest / "src" / "minclue"
    (package / "__pycache__").mkdir()
    return package


def _runtime(name: str) -> Path:
    """The path gcc reports for a sanitizer runtime; it echoes the bare
    name when it has none."""
    out = subprocess.run(
        ["gcc", f"-print-file-name={name}"], capture_output=True, text=True, check=True
    ).stdout.strip()
    path = Path(out)
    if not path.is_absolute() or not path.exists():
        pytest.skip(f"no {name}")
    return path


@pytest.mark.slow
def test_kernels_under_sanitizers(tmp_path):
    if shutil.which("gcc") is None:
        pytest.skip("no gcc")
    preload = [_runtime("libasan.so"), _runtime("libubsan.so")]
    copy = tmp_path / "copy"
    package = copy_checkout(copy)
    # the copy's source is this one, so its loader looks for this name
    subprocess.run(
        ["gcc", *SANITIZE, "-std=c99", "-shared", "-fPIC",
         "-o", str(package / "__pycache__" / _cbuild.library_name()),
         str(package / "_ckernels.c")],
        check=True,
    )
    env = {
        **os.environ,
        "PYTHONPATH": str(copy / "src"),
        "MINCLUE_BACKEND": "native",
        "LD_PRELOAD": " ".join(map(str, preload)),
        "ASAN_OPTIONS": "detect_leaks=0",
        "UBSAN_OPTIONS": "print_stacktrace=1",
    }
    # capture at the sys level leaves fd 2, where the sanitizers report,
    # to this run
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--capture=sys", *SUITES],
        cwd=copy, env=env, capture_output=True, text=True, timeout=3600,
    )
    # a sanitizer report starts with the error and the C frames
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[:3000]
